//===- tier/Tier.cpp - Tiered dynamic compilation -------------------------===//

#include "tier/Tier.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/RuntimeSymbols.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/Timing.h"

#include <algorithm>

using namespace tcc;
using namespace tcc::tier;
using namespace tcc::core;

namespace {

obs::Counter &counter(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name);
}

} // namespace

//===----------------------------------------------------------------------===//
// TierConfig
//===----------------------------------------------------------------------===//

TierConfig TierConfig::fromEnv() {
  TierConfig C;
  C.Workers = static_cast<unsigned>(std::max<std::uint64_t>(
      1, envUInt64("TICKC_TIER_THREADS", C.Workers)));
  C.PromoteThreshold = std::max<std::uint64_t>(
      1, envUInt64("TICKC_TIER_THRESHOLD", C.PromoteThreshold));
  return C;
}

//===----------------------------------------------------------------------===//
// TieredFn
//===----------------------------------------------------------------------===//

// The waits hold the annotated mutex via MutexLock and loop on their
// predicate inline (not through a lambda passed into wait_for) so the
// thread-safety analysis checks every guarded read under the capability.

bool TieredFn::waitPromoted(std::chrono::milliseconds Timeout) const {
  auto Deadline = std::chrono::steady_clock::now() + Timeout;
  support::MutexLock L(M);
  for (;;) {
    TierState S = State.load();
    if (S == TierState::Promoted || S == TierState::Failed)
      break;
    if (CV.wait_until(M, Deadline) == std::cv_status::timeout)
      break;
  }
  return State.load() == TierState::Promoted;
}

void TieredFn::requestPromotion() {
  TierState Expected = TierState::Baseline;
  if (!State.compare_exchange_strong(Expected, TierState::Queued))
    return; // Another caller just won the race to enqueue.

  obs::Phase Span(obs::EventKind::TierEnqueue);
  {
    support::MutexLock G(M);
    EnqueuedNs = readMonotonicNanos();
    EnqueuedTsc = readCycleCounter();
  }
  if (Manager->enqueue(shared_from_this())) {
    counter(obs::names::TierEnqueued).inc();
    return;
  }
  // Queue full (or manager stopping): back off — revert to Baseline with a
  // doubled trigger so a later call retries instead of hammering the queue.
  counter(obs::names::TierQueueFull).inc();
  std::uint64_t Inv = Prof->Invocations.load(std::memory_order_relaxed);
  TriggerAt.store(std::max<std::uint64_t>(Inv * 2, Inv + 1),
                  std::memory_order_relaxed);
  State.store(TierState::Baseline);
}

TieredFn::~TieredFn() {
  // Retirement: the baseline a promotion superseded is released only here,
  // once no caller can hold the slot.
  support::MutexLock G(M);
  if (Promoted && Baseline) {
    counter(obs::names::TierRetiredFns).inc();
    counter(obs::names::TierRetiredBytes).inc(Baseline->stats().CodeBytes);
  }
}

void TieredFn::installPromoted(cache::FnHandle NewFn) {
  std::uint64_t StartNs, StartTsc;
  // The swap instant names the baseline by its runtime symbol.
  char Name[obs::RuntimeSymbolTable::NameBytes] = {};
  obs::RuntimeSymbolTable::global().resolve(
      reinterpret_cast<std::uintptr_t>(Entry.load()), Name, nullptr, nullptr);
  {
    obs::Phase Swap(obs::EventKind::TierSwap);
    support::MutexLock G(M);
    StartNs = EnqueuedNs;
    StartTsc = EnqueuedTsc;
    void *OldEntry = Entry.load();
    Promoted = std::move(NewFn);
    Entry.store(Promoted->entry());
    obs::recordEvent(obs::EventKind::TierSwapped,
                     reinterpret_cast<std::uintptr_t>(OldEntry),
                     reinterpret_cast<std::uintptr_t>(Promoted->entry()),
                     Name);
    // From here every new call dispatches to the ICODE body; callers
    // already past their Entry.load() finish on the baseline, which the
    // slot keeps until it dies.
  }

  std::uint64_t LatNs = readMonotonicNanos() - StartNs;
  std::uint64_t LatTsc = readCycleCounter() - StartTsc;
  PromoteLatencyNs.store(LatNs);
  obs::MetricsRegistry::global()
      .histogram(obs::names::HistTierPromoteLatency)
      .record(LatTsc);
  counter(obs::names::TierPromotions).inc();

  {
    support::MutexLock G(M);
    State.store(TierState::Promoted);
  }
  CV.notify_all();
}

//===----------------------------------------------------------------------===//
// TierManager
//===----------------------------------------------------------------------===//

TierManager::TierManager(TierConfig Config) : Config(Config) {
  Workers.reserve(Config.Workers);
  for (unsigned I = 0; I < Config.Workers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

TierManager::~TierManager() {
  {
    support::MutexLock G(QueueM);
    Stopping = true;
    Queue.clear(); // Never-reached requests are failed via AllSlots below.
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
  // Detach every surviving slot: a slot left Baseline would enqueue into
  // this (dead) manager the next time its counter crossed the trigger.
  // Failed slots keep dispatching whatever tier they reached and never
  // enqueue again; waitPromoted() callers unblock.
  support::MutexLock SG(SlotsM);
  for (std::weak_ptr<TieredFn> &W : AllSlots) {
    std::shared_ptr<TieredFn> Fn = W.lock();
    if (!Fn || Fn->State.load() == TierState::Promoted)
      continue;
    counter(obs::names::TierAbandoned).inc();
    {
      support::MutexLock G(Fn->M);
      Fn->State.store(TierState::Failed);
    }
    Fn->CV.notify_all();
  }
}

bool TierManager::enqueue(const std::shared_ptr<TieredFn> &Fn) {
  {
    support::MutexLock G(QueueM);
    if (Stopping || Queue.size() >= Config.QueueCapacity)
      return false;
    Queue.emplace_back(Fn);
  }
  QueueCV.notify_one();
  return true;
}

std::size_t TierManager::queueDepth() {
  support::MutexLock G(QueueM);
  return Queue.size();
}

void TierManager::workerLoop() {
  for (;;) {
    std::weak_ptr<TieredFn> W;
    {
      support::MutexLock L(QueueM);
      while (!Stopping && Queue.empty())
        QueueCV.wait(QueueM);
      if (Stopping)
        return; // Leftover queue entries are failed by the destructor.
      W = std::move(Queue.front());
      Queue.pop_front();
    }
    if (std::shared_ptr<TieredFn> Fn = W.lock())
      promote(Fn);
    else
      counter(obs::names::TierAbandoned).inc();
  }
}

void TierManager::promote(const std::shared_ptr<TieredFn> &Fn) {
  // A cacheable baseline that has been evicted since the request was queued
  // signals a cold or thrashing spec: promoting it would spend an ICODE
  // compile on code the cache itself decided was not worth keeping. Drop
  // the request and re-arm with a doubled trigger.
  if (Fn->BaselineKey.Cacheable && !Fn->Service->lookup(Fn->BaselineKey)) {
    counter(obs::names::TierStale).inc();
    std::uint64_t Inv = Fn->Prof->Invocations.load(std::memory_order_relaxed);
    Fn->TriggerAt.store(std::max<std::uint64_t>(Inv * 2, Inv + 1),
                        std::memory_order_relaxed);
    {
      support::MutexLock G(Fn->M);
      Fn->State.store(TierState::Baseline);
    }
    Fn->CV.notify_all();
    return;
  }

  cache::FnHandle Optimized;
  {
    obs::Phase Span(obs::EventKind::TierCompile);
    Context Ctx;
    Stmt Body = Fn->Build(Ctx);
    // PromoteOpts inherits Verify from the caller's options, so under
    // verification the optimized body is fully re-checked (IR, allocation,
    // emitted bytes) *inside* this compile — i.e. before installPromoted
    // can swap it into the dispatch slot. A promotion can therefore never
    // replace working baseline code with bytes that failed an audit.
    Optimized =
        Fn->Service->getOrCompile(Ctx, Body, Fn->RetType, Fn->PromoteOpts);
  }
  counter(obs::names::TierCompiled).inc();
  Fn->installPromoted(std::move(Optimized));
}

TieredFnHandle TierManager::getOrCreate(cache::CompileService &Service,
                                        const SpecBuild &Build,
                                        EvalType RetType,
                                        CompileOptions BaseOpts) {
  // Baseline tier: VCODE with the profiling prologue — the counter is the
  // promotion sensor, and the slot's handle is the same cache entry a
  // profiled VCODE getOrCompile of this spec returns. No tier sits above
  // ICODE, so the promoted body drops the prologue (and can share a cache
  // entry with a plain ICODE compile of the same spec).
  CompileOptions BaselineOpts = BaseOpts;
  BaselineOpts.Backend = BackendKind::VCode;
  BaselineOpts.Profile = true;
  CompileOptions PromoteOpts = BaseOpts;
  PromoteOpts.Backend = BackendKind::ICode;
  PromoteOpts.Profile = false;

  Context Ctx;
  Stmt Body = Build(Ctx);
  cache::SpecKey Key = cache::buildSpecKey(Ctx, Body, RetType, BaselineOpts);

  if (Key.Cacheable) {
    support::MutexLock G(SlotsM);
    auto It = Slots.find(Key);
    if (It != Slots.end())
      if (std::shared_ptr<TieredFn> Existing = It->second.lock())
        if (Existing->Service == &Service)
          return Existing;
  }

  // make_shared needs a public constructor; this avoids befriending every
  // allocator by constructing through a local derived type.
  struct MakeSharedTieredFn : TieredFn {};
  auto Fn = std::static_pointer_cast<TieredFn>(
      std::make_shared<MakeSharedTieredFn>());
  Fn->Manager = this;
  Fn->Service = &Service;
  Fn->Build = Build;
  Fn->RetType = RetType;
  Fn->PromoteOpts = PromoteOpts;

  cache::FnHandle Baseline =
      Service.getOrCompileKeyed(Ctx, Body, RetType, BaselineOpts, Key);
  if (!Baseline || !Baseline->valid())
    reportFatalError("tier: baseline instantiation failed");
  // Warm-start provenance: a snapshot-revived baseline enters the tier
  // machinery exactly like a fresh compile (its patched counter drives
  // promotion), but the report should attribute it to the snapshot.
  if (Baseline->fromSnapshot())
    counter(obs::names::TierBaselineSnapshot).inc();

  Fn->BaselineKey = std::move(Key);
  Fn->Prof = Baseline->profile();
  if (!Fn->Prof)
    reportFatalError("tier: baseline compiled without a profile entry");
  // Arm relative to the counter's current value: a cache-shared baseline
  // may already have been invoked by non-tiered callers.
  Fn->TriggerAt.store(Fn->Prof->Invocations.load(std::memory_order_relaxed) +
                          Config.PromoteThreshold,
                      std::memory_order_relaxed);
  Fn->Entry.store(Baseline->entry());
  {
    support::MutexLock G(Fn->M);
    Fn->Baseline = std::move(Baseline);
  }
  return publishSlot(Fn);
}

TieredFnHandle TierManager::publishSlot(const std::shared_ptr<TieredFn> &Fn) {
  support::MutexLock G(SlotsM);
  if (Fn->BaselineKey.Cacheable) {
    auto It = Slots.find(Fn->BaselineKey);
    if (It != Slots.end()) {
      // Raced with another creator; prefer the slot already published so
      // all callers share one counter and one promotion.
      if (std::shared_ptr<TieredFn> Existing = It->second.lock())
        if (Existing->Service == Fn->Service)
          return Existing;
      It->second = Fn;
    } else {
      // Bound the slot map: dead weak_ptrs pile up when callers churn
      // through many short-lived tiered fns.
      if (Slots.size() >= 1024)
        for (auto I = Slots.begin(); I != Slots.end();) {
          if (I->second.expired())
            I = Slots.erase(I);
          else
            ++I;
        }
      Slots.emplace(Fn->BaselineKey, Fn);
    }
  }
  if (AllSlots.size() >= 1024) {
    std::size_t Keep = 0;
    for (std::weak_ptr<TieredFn> &W : AllSlots)
      if (!W.expired())
        AllSlots[Keep++] = std::move(W);
    AllSlots.resize(Keep);
  }
  AllSlots.push_back(Fn);
  return Fn;
}

TierManager &TierManager::global() {
  static TierManager M;
  return M;
}

//===----------------------------------------------------------------------===//
// CompileService::getOrCompileTiered
//===----------------------------------------------------------------------===//

namespace tcc {
namespace cache {

TieredFnHandle CompileService::getOrCompileTiered(const SpecBuild &Build,
                                                  EvalType RetType,
                                                  CompileOptions BaseOpts,
                                                  TierManager *Manager) {
  TierManager &M = Manager ? *Manager : TierManager::global();
  return M.getOrCreate(*this, Build, RetType, BaseOpts);
}

} // namespace cache
} // namespace tcc
