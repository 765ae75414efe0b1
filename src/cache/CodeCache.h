//===- cache/CodeCache.h - Sharded memoizing code cache --------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded, LRU code cache mapping SpecKeys to compiled
/// functions. The paper's economics (Table 1, Figure 5) make dynamic
/// compilation pay only past a use-count crossover; memoizing instantiation
/// moves that crossover to 1 for every repeated specialization.
///
/// Sharding: a key's hash picks one of N shards, each with its own mutex,
/// map, and LRU list, so concurrent compile threads contend only when they
/// hash to the same shard. Eviction: each shard is bounded by
/// MaxBytes/NumShards of *emitted code bytes*; inserting past the bound
/// evicts least-recently-used entries. Entries are shared_ptrs, so an
/// evicted function stays alive (and its heap block unfreed) until the
/// last caller drops its handle — eviction can never free code that is
/// still executing.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CACHE_CODECACHE_H
#define TICKC_CACHE_CODECACHE_H

#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "observability/Metrics.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace tcc {
namespace cache {

/// A shared, refcounted handle to an instantiated function. Hold it for as
/// long as the code may run; the executable region lives while any handle
/// does, regardless of cache eviction.
using FnHandle = std::shared_ptr<const core::CompiledFn>;

/// Monotonic counters plus a point-in-time byte/entry census. This is the
/// single stats surface for the caching layer — per-instance counts here,
/// process-wide cumulative mirrors in obs::MetricsRegistry under the
/// cache.* names (observability/Names.h).
struct CacheStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;      ///< Lookups that found nothing.
  std::uint64_t Evictions = 0;   ///< Entries pushed out by the byte bound.
  std::uint64_t Insertions = 0;
  /// Insertions whose function was revived from a persistent snapshot
  /// (CompiledFn::fromSnapshot()) rather than compiled in this process —
  /// kept distinct from Hits so warm-start loads never masquerade as
  /// in-memory hits in the report.
  std::uint64_t SnapshotLoads = 0;
  std::size_t CodeBytes = 0;     ///< Emitted bytes currently resident.
  std::size_t Entries = 0;
};

class CodeCache {
public:
  /// \p NumShards is rounded up to a power of two. \p MaxBytes bounds the
  /// emitted code bytes cached across all shards.
  explicit CodeCache(unsigned NumShards = 8,
                     std::size_t MaxBytes = 32u << 20);

  CodeCache(const CodeCache &) = delete;
  CodeCache &operator=(const CodeCache &) = delete;

  /// Returns the cached function for \p K and marks it most recently used,
  /// or nullptr.
  FnHandle lookup(const SpecKey &K);

  /// Inserts \p Fn under \p K, evicting LRU entries if the shard's byte
  /// budget overflows. If another thread inserted the same key first, that
  /// entry wins and is returned — callers lose only a duplicated compile,
  /// never coherence.
  FnHandle insert(const SpecKey &K, core::CompiledFn &&Fn);

  /// Drops every entry (live handles keep their functions alive).
  void clear();

  CacheStats stats() const;
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }

private:
  struct Entry {
    SpecKey Key;
    FnHandle Fn;
    std::size_t Bytes = 0;
  };
  struct Shard {
    support::Mutex M;
    /// Front = most recently used.
    std::list<Entry> Lru TICKC_GUARDED_BY(M);
    std::unordered_map<SpecKey, std::list<Entry>::iterator, SpecKeyHash>
        Map TICKC_GUARDED_BY(M);
    std::size_t Bytes TICKC_GUARDED_BY(M) = 0;
  };

  Shard &shardFor(const SpecKey &K) {
    // The low hash bits pick the map bucket inside the shard; use high
    // bits for shard selection so the two are independent.
    return *Shards[(K.Hash >> 48) & (Shards.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> Shards;
  std::size_t ShardBudget;

  obs::Counter Hits, Misses, Evictions, Insertions, SnapshotLoads;
};

} // namespace cache
} // namespace tcc

#endif // TICKC_CACHE_CODECACHE_H
