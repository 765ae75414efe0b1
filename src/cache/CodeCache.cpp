//===- cache/CodeCache.cpp - Sharded memoizing code cache -----------------==//

#include "cache/CodeCache.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"

#include <bit>
#include <cstdint>

using namespace tcc;
using namespace tcc::cache;

namespace {

/// Global-registry mirrors of the per-instance counters: cumulative across
/// every CodeCache in the process, for tickc-report and trend dashboards.
/// Per-instance counts stay on the cache itself (tests assert on them).
struct CacheMetrics {
  obs::Counter &Hits, &Misses, &Evictions, &Insertions;
  obs::Counter &BytesInserted, &BytesEvicted;
  static CacheMetrics &get() {
    namespace N = obs::names;
    auto &R = obs::MetricsRegistry::global();
    static CacheMetrics M{R.counter(N::CacheHits),
                          R.counter(N::CacheMisses),
                          R.counter(N::CacheEvictions),
                          R.counter(N::CacheInsertions),
                          R.counter(N::CacheBytesInserted),
                          R.counter(N::CacheBytesEvicted)};
    return M;
  }
};

} // namespace

CodeCache::CodeCache(unsigned NumShards, std::size_t MaxBytes) {
  if (NumShards == 0)
    NumShards = 1;
  NumShards = std::bit_ceil(NumShards);
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
  ShardBudget = MaxBytes / NumShards;
  if (ShardBudget == 0)
    ShardBudget = 1;
}

FnHandle CodeCache::lookup(const SpecKey &K) {
  obs::Phase Span(obs::EventKind::CacheProbe);
  Shard &S = shardFor(K);
  support::MutexLock G(S.M);
  auto It = S.Map.find(K);
  if (It == S.Map.end()) {
    Misses.inc();
    CacheMetrics::get().Misses.inc();
    return nullptr;
  }
  // Touch: splice to the front of the LRU list (iterators stay valid).
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Hits.inc();
  CacheMetrics::get().Hits.inc();
  return It->second->Fn;
}

FnHandle CodeCache::insert(const SpecKey &K, core::CompiledFn &&Fn) {
  obs::Phase Span(obs::EventKind::CacheInsert);
  CacheMetrics &GM = CacheMetrics::get();
  Entry E;
  E.Key = K;
  E.Bytes = Fn.stats().CodeBytes ? Fn.stats().CodeBytes : 1;
  E.Fn = std::make_shared<core::CompiledFn>(std::move(Fn));

  Shard &S = shardFor(K);
  support::MutexLock G(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    // Lost an insert race: the first compile wins so every caller shares
    // one entry; our duplicate dies (freeing its heap block).
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return It->second->Fn;
  }
  S.Bytes += E.Bytes;
  GM.BytesInserted.inc(E.Bytes);
  S.Lru.push_front(std::move(E));
  S.Map.emplace(K, S.Lru.begin());
  Insertions.inc();
  GM.Insertions.inc();
  // Provenance split: the process-wide cache.snapshot.* counters live in
  // the persist layer (which knows about probes and rejects too); the
  // per-instance count here lets tests pin loads to one cache.
  if (S.Lru.front().Fn->fromSnapshot())
    SnapshotLoads.inc();
  // Evict from the cold end, but never the entry just inserted.
  while (S.Bytes > ShardBudget && S.Lru.size() > 1) {
    Entry &Victim = S.Lru.back();
    S.Bytes -= Victim.Bytes;
    GM.BytesEvicted.inc(Victim.Bytes);
    obs::recordEvent(
        obs::EventKind::CacheEvict,
        Victim.Fn ? reinterpret_cast<std::uintptr_t>(Victim.Fn->entry()) : 0,
        Victim.Bytes);
    S.Map.erase(Victim.Key);
    S.Lru.pop_back();
    Evictions.inc();
    GM.Evictions.inc();
  }
  return S.Lru.front().Fn;
}

void CodeCache::clear() {
  for (auto &SP : Shards) {
    support::MutexLock G(SP->M);
    SP->Map.clear();
    SP->Lru.clear();
    SP->Bytes = 0;
  }
}

CacheStats CodeCache::stats() const {
  CacheStats St;
  St.Hits = Hits.value();
  St.Misses = Misses.value();
  St.Evictions = Evictions.value();
  St.Insertions = Insertions.value();
  St.SnapshotLoads = SnapshotLoads.value();
  for (const auto &SP : Shards) {
    support::MutexLock G(SP->M);
    St.CodeBytes += SP->Bytes;
    St.Entries += SP->Lru.size();
  }
  return St;
}
