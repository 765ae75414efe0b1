//===- cache/CodeCache.h - Sharded memoizing code cache --------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded code cache with CLOCK eviction, mapping SpecKeys
/// to compiled functions. The paper's economics (Table 1, Figure 5) make
/// dynamic compilation pay only past a use-count crossover; memoizing
/// instantiation moves that crossover to 1 for every repeated
/// specialization.
///
/// Sharding: a key's hash picks one of N shards, each with its own mutex
/// and one open-addressed table of {hash, entry} slots (linear probing,
/// backward-shift deletion), so concurrent compile threads contend only
/// when they hash to the same shard. An entry is one allocation holding the
/// function handle, its code byte count, a copy of its key's refs and bytes
/// and the handle's own control block. A hit compares the stored hash in
/// the slot, then the entry's key in place: a probe touches the shard, one
/// slot line and the entry's first lines.
///
/// Single flight: the shard table is also where concurrent misses on one
/// key meet. acquire() on an absent key places a *pending* entry and hands
/// its caller the claim; every other acquire() of that key sleeps on the
/// shard's condition variable until the claimant publish()es the function
/// into the same entry. lookup() and the stats treat a pending entry as
/// absent, eviction passes it over and clear() leaves it in place. A hit
/// is counted when lookup() or acquire() returns a function, a miss only
/// when acquire() hands out a claim: one per compile or snapshot load.
///
/// Eviction: each shard is bounded by MaxBytes/NumShards of *emitted code
/// bytes*; publishing past the bound runs the shard's CLOCK hand over the
/// slots. A hit sets its entry's referenced bit (a store only when the bit
/// is clear); the hand clears a set bit and passes on (the second chance),
/// and evicts the first entry it finds clear — never the one just
/// published, never a pending one. Entries hold shared_ptrs, so an evicted
/// function stays alive (and its heap block unfreed) until the last caller
/// drops its handle — eviction can never free code that is still executing.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CACHE_CODECACHE_H
#define TICKC_CACHE_CODECACHE_H

#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "observability/Metrics.h"
#include "support/ThreadSafety.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
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
  std::uint64_t Hits = 0;        ///< Functions lookup() or acquire() returned.
  std::uint64_t Misses = 0;      ///< Claims acquire() handed out.
  std::uint64_t Evictions = 0;   ///< Entries pushed out by the byte bound.
  std::uint64_t Insertions = 0;
  /// Insertions whose function was revived from a persistent snapshot
  /// (CompiledFn::fromSnapshot()) rather than compiled in this process —
  /// kept distinct from Hits so warm-start loads never masquerade as
  /// in-memory hits in the report.
  std::uint64_t SnapshotLoads = 0;
  std::size_t CodeBytes = 0;     ///< Emitted bytes currently resident.
  std::size_t Entries = 0;       ///< Published entries (claims excluded).
};

class CodeCache {
  /// One cached function and its key, in one allocation (CodeCache.cpp).
  struct Entry;

public:
  /// The right to produce one absent key's function, held by exactly one
  /// caller at a time (see acquire()).
  class Claim {
    friend class CodeCache;
    Entry *E = nullptr;
  };

  /// \p NumShards is rounded up to a power of two. \p MaxBytes bounds the
  /// emitted code bytes cached across all shards.
  explicit CodeCache(unsigned NumShards = 8,
                     std::size_t MaxBytes = 32u << 20);

  CodeCache(const CodeCache &) = delete;
  CodeCache &operator=(const CodeCache &) = delete;

  /// Returns the cached function for \p K and marks it referenced, or
  /// nullptr (a key still being compiled reads as absent). Never waits.
  FnHandle lookup(const SpecKey &K);

  /// Returns the cached function for \p K and marks it referenced. While
  /// another caller holds K's claim, sleeps until it publishes and probes
  /// again. When K is absent, places a pending entry, stores the claim in
  /// \p C and returns nullptr: the caller must then publish(C, ...), and
  /// every concurrent acquire() of K waits for that one function.
  FnHandle acquire(const SpecKey &K, Claim &C);

  /// Fills the claimed entry with \p Fn, evicting unreferenced entries if
  /// the shard's byte budget overflows, and wakes the key's waiters.
  FnHandle publish(const Claim &C, core::CompiledFn &&Fn);

  /// Drops every published entry (live handles keep their functions
  /// alive); pending entries stay for their claimants.
  void clear();

  CacheStats stats() const;
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }

private:
  /// An empty slot has a null E.
  struct Slot {
    std::uint64_t Hash = 0;
    Entry *E = nullptr;
  };
  struct Shard {
    Shard();
    ~Shard();

    /// The slot holding \p K's entry, or the empty slot that ends its probe.
    std::size_t probe(const SpecKey &K) const TICKC_REQUIRES(M);
    /// Fills the empty slot \p I (from probe) with \p E.
    void place(std::size_t I, Entry *E) TICKC_REQUIRES(M);
    /// Empties slot \p I and shifts the rest of its cluster back, so every
    /// probe still ends at the first empty slot.
    void erase(std::size_t I) TICKC_REQUIRES(M);
    /// Re-places the entries into a fresh table of \p Size slots,
    /// destroying the published ones when \p DropPublished.
    void rebuild(std::size_t Size, bool DropPublished) TICKC_REQUIRES(M);

    support::Mutex M;
    /// Signalled by every publish; acquire() of a pending key sleeps on it.
    std::condition_variable_any Published;
    /// Power-of-two table, at most half full.
    std::unique_ptr<Slot[]> Slots TICKC_GUARDED_BY(M);
    std::size_t Mask TICKC_GUARDED_BY(M) = 0;
    /// Occupied slots, pending entries included.
    std::size_t Count TICKC_GUARDED_BY(M) = 0;
    /// Pending entries: claims not yet published.
    std::size_t Claims TICKC_GUARDED_BY(M) = 0;
    /// The CLOCK hand: the next slot the eviction sweep examines.
    std::size_t Hand TICKC_GUARDED_BY(M) = 0;
    std::size_t Bytes TICKC_GUARDED_BY(M) = 0;
  };

  Shard &shardFor(std::uint64_t Hash) {
    // The low hash bits pick the slot inside the shard; use high bits for
    // shard selection so the two are independent.
    return *Shards[(Hash >> 48) & (Shards.size() - 1)];
  }

  std::vector<std::unique_ptr<Shard>> Shards;
  std::size_t ShardBudget;

  obs::Counter Hits, Misses, Evictions, Insertions, SnapshotLoads;
};

} // namespace cache
} // namespace tcc

#endif // TICKC_CACHE_CODECACHE_H
