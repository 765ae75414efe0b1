//===- cache/CompileService.h - Memoized instantiation ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door for server-shaped workloads: getOrCompile() memoizes
/// compileFn() behind a structural cache key (cache/SpecKey.h), the one
/// identity the in-memory cache, the tier slots and the persistent snapshot
/// all share. A cache hit costs one fingerprint walk and one sharded map
/// lookup — no code generation; a cold miss with a snapshot open reuses
/// that same key to probe the file, without walking the tree again; a
/// cold compile installs its code into the process-wide CodeHeap without a
/// syscall once the heap is warm. Concurrent misses on one key are
/// single-flighted: one thread compiles, the rest block on it and share the
/// result.
///
///   cache::CompileService &S = cache::CompileService::instance();
///   cache::FnHandle F = S.getOrCompile(Ctx, Body, EvalType::Int);
///   int R = F->as<int(int)>()(42);   // Hold F while the code may run.
///
/// getOrCompileTiered() (implemented in src/tier) answers from a profiled
/// VCODE baseline compiled on the caller's thread and transparently
/// re-instantiates hot specs with ICODE in the background — see tier/Tier.h.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CACHE_COMPILESERVICE_H
#define TICKC_CACHE_COMPILESERVICE_H

#include "cache/CodeCache.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/CompileContext.h"
#include "support/ThreadSafety.h"

#include <condition_variable>
#include <functional>
#include <unordered_map>

namespace tcc {

namespace persist {
class SnapshotCache;
}

namespace tier {
class TierManager;
class TieredFn;
/// Shared handle to a tiered dispatch slot (see tier/Tier.h).
using TieredFnHandle = std::shared_ptr<TieredFn>;
/// Rebuilds one spec into a fresh Context — the closure the background
/// promotion worker re-runs to instantiate the same function through the
/// optimizing back end. Must be pure: same tree (and same captured
/// run-time constants) every time it is invoked, from any thread.
using SpecBuild = std::function<core::Stmt(core::Context &)>;
} // namespace tier

namespace cache {

/// Knobs for one service instance.
struct ServiceConfig {
  unsigned Shards = 8;
  /// Bound on emitted code bytes held by the cache (LRU beyond it).
  std::size_t MaxCodeBytes = 32u << 20;
  /// When non-empty, the service opens (creating on demand) the persistent
  /// snapshot file in this directory: in-memory cache misses probe it
  /// before compiling, and fresh compiles of portable specs append to it —
  /// the warm-start path that lets a second process skip every recompile.
  std::string SnapshotDir;
  /// Dead-byte threshold at which opening the snapshot compacts it
  /// (duplicate records from concurrent writers); 0 disables compaction.
  std::size_t SnapshotCompactBytes = 1u << 20;
  /// Per-file size budget for the snapshot (bytes); when an append would
  /// grow the file past it, the oldest records are evicted on the next
  /// compaction pass and oversized appends are dropped (counted as
  /// cache.snapshot.evictions). 0 = unbounded (the pre-budget behavior).
  std::size_t SnapshotBudgetBytes = 0;
  /// Per-record snapshot lifetime in seconds: probes skip records saved
  /// longer ago (counted as cache.snapshot.expired) and the open-time
  /// compaction drops them. 0 = records never expire.
  std::uint64_t SnapshotTtlSec = 0;
  /// Default config with environment overrides applied:
  /// TICKC_CACHE_BYTES caps MaxCodeBytes (decimal bytes);
  /// TICKC_SNAPSHOT_DIR enables the persistent snapshot cache;
  /// TICKC_SNAPSHOT_COMPACT sets its compaction threshold;
  /// TICKC_SNAPSHOT_BUDGET caps the snapshot file size;
  /// TICKC_SNAPSHOT_TTL sets the per-record snapshot lifetime (seconds).
  /// Used by CompileService::instance() so benches and CI can sweep the
  /// knobs without rebuilding.
  static ServiceConfig fromEnv();
};

/// A code cache behind one memoizing entry point.
/// All methods are safe to call from concurrent threads.
class CompileService {
public:
  explicit CompileService(ServiceConfig Config = ServiceConfig());
  ~CompileService(); // Out of line: Snap's type is incomplete here.

  /// Returns the cached function for this (spec, run-time constants,
  /// options) identity, compiling at most once per identity. Concurrent
  /// misses on one key block on a single in-flight compile
  /// (cache.singleflight_wait counts the waiters). Uncacheable specs
  /// (rtEval over memory) always compile.
  FnHandle getOrCompile(core::Context &Ctx, core::Stmt Body,
                        core::EvalType RetType,
                        core::CompileOptions Opts = core::CompileOptions());

  /// getOrCompile() with the fingerprint already built: skips the key
  /// derivation walk when the caller (like the tier manager, which needs
  /// the key for its own slot memoization anyway) has one for exactly this
  /// (Ctx, Body, RetType, Opts) request. The key is the only identity the
  /// request has — the in-memory cache and, when one is open, the snapshot
  /// file both store the result under it — so passing a key built from
  /// different inputs poisons the cache and the snapshot file alike.
  FnHandle getOrCompileKeyed(core::Context &Ctx, core::Stmt Body,
                             core::EvalType RetType, core::CompileOptions Opts,
                             const SpecKey &K);

  /// The steady-state fast path: probes the cache with a key the caller
  /// built earlier (see QueryApp::cacheKey / PowerApp::cacheKey). A server
  /// that fingerprints each plan once can serve repeat instantiations from
  /// here without rebuilding or re-walking the spec; on a null return, fall
  /// back to getOrCompile(). Returns null for uncacheable keys.
  FnHandle lookup(const SpecKey &K);

  /// Tiered instantiation: compiles \p Build's spec with the profiled VCODE
  /// baseline (the entry getOrCompile returns for {VCode, Profile}) before
  /// returning a dispatch slot that runs it; once the prologue counter
  /// crosses the tier manager's promotion threshold, a background worker
  /// recompiles the spec with ICODE and atomically swaps the slot. \p BaseOpts seeds both
  /// compiles (Backend/Profile are overridden per tier;
  /// RegAlloc/Spill/UnrollLimit are honored). Pass a null \p Manager for
  /// the process-wide tier::TierManager::global(). Defined in
  /// tier/Tier.cpp — callers link tickc_tier. The returned handle (and
  /// anything \p Build captures) must not outlive this service or the
  /// manager.
  tier::TieredFnHandle
  getOrCompileTiered(const tier::SpecBuild &Build, core::EvalType RetType,
                     core::CompileOptions BaseOpts = core::CompileOptions(),
                     tier::TierManager *Manager = nullptr);

  /// Stats live on the components themselves (cache().stats(),
  /// CodeHeap::global().stats()) and, cumulatively, in
  /// obs::MetricsRegistry — the service adds no parallel stats surface of
  /// its own.
  CodeCache &cache() { return Cache; }
  /// The persistent snapshot cache, or null when ServiceConfig::SnapshotDir
  /// was empty (or the directory was unusable — persistence degrades to
  /// off, never to an error).
  persist::SnapshotCache *snapshot() { return Snap.get(); }
  /// Recycled per-compile scratch contexts; every compile the service
  /// performs (including the tier manager's background promotions, which
  /// come through getOrCompileKeyed) draws from here, so warm-service
  /// compiles allocate nothing.
  core::CompileContextPool &contextPool() { return CtxPool; }

  /// Process-wide default instance (ServiceConfig::fromEnv()).
  static CompileService &instance();

private:
  /// One in-flight compile that duplicate-key racers block on. CV is _any
  /// so it can sleep on the annotated Mutex directly.
  struct InFlightCompile {
    support::Mutex M;
    std::condition_variable_any CV;
    bool Done TICKC_GUARDED_BY(M) = false;
    FnHandle Result TICKC_GUARDED_BY(M);
  };

  /// Compiles with the service's scratch-context pool threaded into Opts
  /// (unless the caller brought a context of its own).
  core::CompiledFn compilePooled(core::Context &Ctx, core::Stmt Body,
                                 core::EvalType RetType,
                                 core::CompileOptions Opts);

  ServiceConfig Config;
  core::CompileContextPool CtxPool;
  /// Open snapshot file, or null when persistence is off. Holds only file
  /// state (fd, mapping, record index) — no code regions — so its position
  /// in the destruction order is unconstrained.
  std::unique_ptr<persist::SnapshotCache> Snap;
  /// A handle the caller keeps may outlive the service: its code lives in
  /// the process-wide CodeHeap, not in anything the service owns.
  CodeCache Cache;
  support::Mutex InFlightM;
  std::unordered_map<SpecKey, std::shared_ptr<InFlightCompile>, SpecKeyHash>
      InFlight TICKC_GUARDED_BY(InFlightM);
};

} // namespace cache
} // namespace tcc

#endif // TICKC_CACHE_COMPILESERVICE_H
