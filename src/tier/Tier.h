//===- tier/Tier.h - Tiered dynamic compilation ----------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiered instantiation: answer the first call from a profiled baseline
/// compiled synchronously by VCODE — the one-pass abstract machine at
/// ~100-500 cycles/generated instruction (paper §5.1) — then transparently
/// re-instantiate hot specs through ICODE's global register allocator
/// (~1000-2500 cycles/instruction for measurably better code, §5.2) — the
/// paper's static per-`compile` back-end choice made automatic.
///
/// The moving parts:
///
///   * TieredFn — a dispatch slot: an atomic function-pointer indirection
///     the caller invokes through. It starts at baseline code whose
///     prologue counts invocations (CompileOptions::Profile); the dispatch
///     wrapper checks that counter against the promotion threshold after
///     each call and enqueues a promotion request the first time it is
///     crossed. Once the slot is queued, promoted or failed the wrapper
///     stops counting: a call is one acquire load of the entry plus an
///     indirect call. The invocation counter is the only trigger: the
///     sampler's per-symbol counts feed reports, not promotion.
///   * TierManager — a small pool of background compile threads draining a
///     bounded MPMC queue of promotion requests. A worker re-runs the
///     spec-building closure, compiles it with BackendKind::ICode (without
///     the profiling prologue: no tier sits above it) through the same
///     CompileService, so the optimized body lands in the code cache,
///     verifies the baseline spec is still cache-resident, and atomically
///     swaps the slot.
///   * Retirement — the slot keeps the superseded baseline until it dies.
///     A caller inside call<>() holds a TieredFnHandle, so no thread can
///     ever execute freed code. A slot swaps at most once.
///
/// Lifetime rules: a TieredFnHandle (and anything its SpecBuild closure
/// captures) must not outlive the CompileService it was created against or
/// its TierManager; destroy managers before services.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_TIER_TIER_H
#define TICKC_TIER_TIER_H

#include "cache/CompileService.h"
#include "observability/Profile.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <type_traits>
#include <vector>

namespace tcc {
namespace tier {

/// Knobs for one tier manager.
struct TierConfig {
  /// Background compile threads.
  unsigned Workers = 1;
  /// Invocation count at which a baseline function is promoted.
  std::uint64_t PromoteThreshold = 1000;
  /// Bound on queued promotion requests; excess requests are dropped (the
  /// slot retries once the counter doubles) and counted as
  /// tier.promote.queue_full.
  std::size_t QueueCapacity = 256;

  /// Defaults with environment overrides applied: TICKC_TIER_THREADS,
  /// TICKC_TIER_THRESHOLD.
  static TierConfig fromEnv();
};

/// Where a dispatch slot currently stands.
enum class TierState : std::uint8_t {
  Baseline, ///< Running the VCODE baseline, counting invocations.
  Queued,   ///< Promotion request enqueued or being compiled.
  Promoted, ///< Slot points at the ICODE-compiled body.
  Failed,   ///< Manager shut down with the request pending; stays baseline.
};

class TierManager;

/// A per-function dispatch slot. Callers invoke through call<>(), which
/// loads the entry pointer, runs the generated code, and (while the slot can
/// still be promoted) checks the invocation counter against the promotion
/// threshold. For batch loops, handle() returns a refcounted FnHandle of the
/// current tier that stays valid across (and after) a promotion swap.
class TieredFn : public std::enable_shared_from_this<TieredFn> {
public:
  TieredFn(const TieredFn &) = delete;
  TieredFn &operator=(const TieredFn &) = delete;
  /// Retires the superseded baseline, if the slot was promoted: the last
  /// caller is gone, so nothing can still be executing it.
  ~TieredFn();

  /// Invokes the current tier: `TF->call<int(const Record *)>(&R)`.
  template <typename FnT, typename... ArgTs> auto call(ArgTs... Args) {
    // Only a Baseline slot can still be promoted, so only it checks the
    // trigger; above it a call is the entry load plus the call. The
    // baseline's own prologue counts the invocation.
    bool Counting =
        State.load(std::memory_order_relaxed) == TierState::Baseline;
    // Every body the slot installed lives as long as the slot, which the
    // caller's handle keeps alive.
    auto *Fn = reinterpret_cast<FnT *>(Entry.load(std::memory_order_acquire));
    using RetT = decltype(Fn(Args...));
    if constexpr (std::is_void_v<RetT>) {
      Fn(Args...);
      if (Counting)
        maybeRequestPromotion();
    } else {
      RetT R = Fn(Args...);
      if (Counting)
        maybeRequestPromotion();
      return R;
    }
  }

  /// The current tier as a refcounted handle — the steady-state batch
  /// path: one refcount bump amortized over many direct calls, valid after
  /// the slot dies. Does not advance the promotion trigger. Never null.
  cache::FnHandle handle() const {
    support::MutexLock G(M);
    return Promoted ? Promoted : Baseline;
  }

  TierState state() const { return State.load(); }
  bool promoted() const { return state() == TierState::Promoted; }

  /// Blocks until the slot is promoted (or fails) or \p Timeout elapses.
  bool waitPromoted(std::chrono::milliseconds Timeout =
                        std::chrono::milliseconds(10000)) const;

  /// The baseline profile entry carrying the invocation counter, the only
  /// promotion trigger. The count stops once the slot is queued for (or
  /// reaches) the top tier.
  const obs::ProfileEntry &profile() const { return *Prof; }
  std::uint64_t invocations() const {
    return Prof->Invocations.load(std::memory_order_relaxed);
  }
  /// Enqueue -> slot-swap latency of the completed promotion, or 0.
  std::uint64_t promoteLatencyNanos() const { return PromoteLatencyNs.load(); }

private:
  friend class TierManager;
  TieredFn() = default;

  void maybeRequestPromotion() {
    if (State.load(std::memory_order_relaxed) != TierState::Baseline)
      return;
    if (Prof->Invocations.load(std::memory_order_relaxed) <
        TriggerAt.load(std::memory_order_relaxed))
      return;
    requestPromotion();
  }

  /// CASes Baseline -> Queued and enqueues with the manager (out of line:
  /// needs TierManager's definition).
  void requestPromotion();

  /// Worker side: swap the slot to \p NewFn and publish Promoted state.
  /// The baseline stays with the slot until ~TieredFn.
  void installPromoted(cache::FnHandle NewFn);

  // --- Dispatch fast path ---------------------------------------------------
  std::atomic<void *> Entry{nullptr};
  std::atomic<TierState> State{TierState::Baseline};
  /// Promotion trigger in absolute invocations: the baseline counter's
  /// value at slot creation plus TierConfig::PromoteThreshold (the only
  /// threshold; the ProfileEntry carries none), doubled for backoff when a
  /// promotion is dropped as stale or the queue is full.
  std::atomic<std::uint64_t> TriggerAt{0};
  std::atomic<std::uint64_t> PromoteLatencyNs{0};

  // --- Fixed at creation ----------------------------------------------------
  TierManager *Manager = nullptr;
  cache::CompileService *Service = nullptr;
  SpecBuild Build;
  core::EvalType RetType = core::EvalType::Int;
  core::CompileOptions PromoteOpts;
  cache::SpecKey BaselineKey; ///< !Cacheable skips the residency check.
  /// The baseline's entry; the baseline (and so the entry) lives as long as
  /// the slot.
  const obs::ProfileEntry *Prof = nullptr;

  // --- Tier handles + promotion rendezvous ----------------------------------
  // CV is _any so it can sleep on the annotated Mutex directly (it is
  // BasicLockable); wait sites hold M via support::MutexLock and loop on
  // the predicate themselves so the analysis sees every guarded read.
  mutable support::Mutex M;
  mutable std::condition_variable_any CV;
  /// Kept after promotion until the slot dies: a caller may still be
  /// running it.
  cache::FnHandle Baseline TICKC_GUARDED_BY(M);
  cache::FnHandle Promoted TICKC_GUARDED_BY(M);
  std::uint64_t EnqueuedNs TICKC_GUARDED_BY(M) = 0;
  std::uint64_t EnqueuedTsc TICKC_GUARDED_BY(M) = 0;
};

/// Owns the promotion queue and worker pool, and memoizes dispatch slots by
/// spec identity so repeated tiered instantiations of one spec share one
/// counter and one promotion. All methods are thread-safe.
class TierManager {
public:
  explicit TierManager(TierConfig Config = TierConfig::fromEnv());
  /// Clean shutdown: drains nothing, joins every worker; still-queued
  /// requests are marked Failed, and every other still-live slot is
  /// detached (Failed) so later calls can never enqueue with a dead
  /// manager. Detached slots keep answering on whatever tier they reached.
  ~TierManager();

  TierManager(const TierManager &) = delete;
  TierManager &operator=(const TierManager &) = delete;

  /// Builds (or finds) the dispatch slot for \p Build's spec: compiles the
  /// profiled VCODE baseline through \p Service (memoized + single-flighted;
  /// the same entry getOrCompile returns for {VCode, Profile}) and
  /// arms the promotion trigger. Cacheable specs are memoized per manager,
  /// so a repeat request returns the existing slot — possibly already
  /// promoted. Prefer CompileService::getOrCompileTiered().
  TieredFnHandle getOrCreate(cache::CompileService &Service,
                             const SpecBuild &Build, core::EvalType RetType,
                             core::CompileOptions BaseOpts);

  const TierConfig &config() const { return Config; }
  std::size_t queueDepth();

  /// Process-wide manager (TierConfig::fromEnv()); workers start on first
  /// use and join at static destruction.
  static TierManager &global();

private:
  friend class TieredFn;
  /// Queue side of a promotion request; returns false when the queue is
  /// full or shut down.
  bool enqueue(const std::shared_ptr<TieredFn> &Fn);
  void workerLoop();
  /// Recompile + verify + swap for one dequeued slot.
  void promote(const std::shared_ptr<TieredFn> &Fn);
  /// Memoizes \p Fn in Slots/AllSlots; returns the already-published slot
  /// instead when another creator won the race for the same key.
  TieredFnHandle publishSlot(const std::shared_ptr<TieredFn> &Fn);

  TierConfig Config;

  support::Mutex QueueM;
  /// Workers sleep on it; enqueue() notifies one, shutdown all.
  std::condition_variable_any QueueCV;
  std::deque<std::weak_ptr<TieredFn>> Queue TICKC_GUARDED_BY(QueueM);
  bool Stopping TICKC_GUARDED_BY(QueueM) = false;
  std::vector<std::thread> Workers;

  support::Mutex SlotsM;
  std::unordered_map<cache::SpecKey, std::weak_ptr<TieredFn>,
                     cache::SpecKeyHash>
      Slots TICKC_GUARDED_BY(SlotsM);
  /// Every slot ever created (uncacheable ones included): the destructor's
  /// detach list. Compacted alongside Slots.
  std::vector<std::weak_ptr<TieredFn>> AllSlots TICKC_GUARDED_BY(SlotsM);
};

} // namespace tier
} // namespace tcc

#endif // TICKC_TIER_TIER_H
