//===- cache/CodeCache.cpp - Sharded memoizing code cache -----------------==//

#include "cache/CodeCache.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <new>

using namespace tcc;
using namespace tcc::cache;

namespace {

/// Global-registry mirrors of the per-instance counters: cumulative across
/// every CodeCache in the process, for tickc-report and trend dashboards.
/// Per-instance counts stay on the cache itself (tests assert on them).
struct CacheMetrics {
  obs::Counter &Hits, &Misses, &Evictions, &Insertions;
  obs::Counter &BytesInserted, &BytesEvicted, &SingleflightWaits;
  static CacheMetrics &get() {
    namespace N = obs::names;
    auto &R = obs::MetricsRegistry::global();
    static CacheMetrics M{R.counter(N::CacheHits),
                          R.counter(N::CacheMisses),
                          R.counter(N::CacheEvictions),
                          R.counter(N::CacheInsertions),
                          R.counter(N::CacheBytesInserted),
                          R.counter(N::CacheBytesEvicted),
                          R.counter(N::CacheSingleflightWait)};
    return M;
  }
};

constexpr std::size_t InitialSlots = 16;

} // namespace

/// The front of the one block an entry lives in:
///
///   Entry | NumRefs ExtRefs | KeyLen key bytes | pad | control block
///   (use counts, then the CompiledFn)
///
/// The block is the FnHandle's own allocation (allocate_shared through
/// BlockAlloc, which reserves the front), so a hit reads the header, the
/// key and the handle's counts from consecutive lines, and the block lives
/// until the last handle — the table's or a caller's — drops. acquire()
/// allocates it around an empty CompiledFn, pending; publish() moves the
/// function in, so a miss allocates the entry once.
struct CodeCache::Entry {
  /// The table's reference to the function.
  std::shared_ptr<core::CompiledFn> Fn;
  std::uint64_t Hash = 0;
  std::size_t CodeBytes = 0;
  std::uint32_t KeyLen = 0;
  std::uint32_t NumRefs = 0;
  /// CLOCK's second-chance bit: set by a hit, cleared by the passing hand.
  bool Referenced = false;
  /// Claimed by an acquire() and not yet published: reads as absent, and
  /// no sweep or clear() may drop it.
  bool Pending = true;

  ExtRef *refs() { return reinterpret_cast<ExtRef *>(this + 1); }
  const ExtRef *refs() const {
    return reinterpret_cast<const ExtRef *>(this + 1);
  }
  std::uint8_t *key() { return reinterpret_cast<std::uint8_t *>(refs() + NumRefs); }
  const std::uint8_t *key() const {
    return reinterpret_cast<const std::uint8_t *>(refs() + NumRefs);
  }

  /// Allocates \p Front bytes in front of each control block it hands out
  /// and reports the block's start through \p Start.
  template <typename T> struct BlockAlloc {
    using value_type = T;
    std::size_t Front;
    char **Start;
    BlockAlloc(std::size_t Front, char **Start) : Front(Front), Start(Start) {}
    template <typename U>
    BlockAlloc(const BlockAlloc<U> &O) : Front(O.Front), Start(O.Start) {}
    T *allocate(std::size_t N) {
      char *P = static_cast<char *>(::operator new(Front + N * sizeof(T)));
      *Start = P;
      return reinterpret_cast<T *>(P + Front);
    }
    void deallocate(T *P, std::size_t) {
      ::operator delete(reinterpret_cast<char *>(P) - Front);
    }
    template <typename U> bool operator==(const BlockAlloc<U> &O) const {
      return Front == O.Front;
    }
  };

  /// A pending entry for \p K.
  static Entry *make(const SpecKey &K) {
    std::size_t NumRefs = K.Refs.size(), KeyLen = K.Bytes.size();
    std::size_t Front = (sizeof(Entry) + NumRefs * sizeof(ExtRef) + KeyLen +
                         alignof(std::max_align_t) - 1) &
                        ~(alignof(std::max_align_t) - 1);
    char *Start = nullptr;
    auto H = std::allocate_shared<core::CompiledFn>(
        BlockAlloc<core::CompiledFn>(Front, &Start));
    auto *E = new (Start) Entry;
    E->Fn = std::move(H);
    E->Hash = K.Hash;
    E->KeyLen = static_cast<std::uint32_t>(KeyLen);
    E->NumRefs = static_cast<std::uint32_t>(NumRefs);
    for (std::size_t I = 0; I < NumRefs; ++I)
      new (E->refs() + I) ExtRef(K.Refs[I]);
    std::memcpy(E->key(), K.Bytes.data(), KeyLen);
    return E;
  }

  /// Drops the table's reference; the block goes with the last handle.
  static void destroy(Entry *E) {
    std::shared_ptr<core::CompiledFn> Last = std::move(E->Fn);
    E->~Entry();
  }

  /// A hit's handle. The referenced bit is stored only when clear, so a
  /// hot entry's line stays clean between sweeps.
  FnHandle hit() {
    if (!Referenced)
      Referenced = true;
    return Fn;
  }

  /// Starts the misses a hit on this entry takes: the header, the key and
  /// (for keys like servebench's) the handle's counts.
  void prefetch() const {
    const char *P = reinterpret_cast<const char *>(this);
    for (unsigned Off = 0; Off < 256; Off += 64)
      __builtin_prefetch(P + Off, 1);
  }

  bool matches(const SpecKey &K) const {
    if (KeyLen != K.Bytes.size() || NumRefs != K.Refs.size() ||
        std::memcmp(key(), K.Bytes.data(), KeyLen) != 0)
      return false;
    for (std::uint32_t I = 0; I < NumRefs; ++I)
      if (!(refs()[I] == K.Refs[I]))
        return false;
    return true;
  }
};

CodeCache::Shard::Shard()
    : Slots(new Slot[InitialSlots]), Mask(InitialSlots - 1) {}

CodeCache::Shard::~Shard() {
  support::MutexLock G(M);
  for (std::size_t I = 0; I <= Mask; ++I)
    if (Slots[I].E)
      Entry::destroy(Slots[I].E);
}

std::size_t CodeCache::Shard::probe(const SpecKey &K) const {
  for (std::size_t I = K.Hash & Mask;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (!S.E)
      return I;
    if (S.Hash != K.Hash)
      continue;
    S.E->prefetch();
    if (S.E->matches(K))
      return I;
  }
}

void CodeCache::Shard::place(std::size_t I, Entry *E) {
  Slots[I] = {E->Hash, E};
  // Past half full: double the table.
  if (++Count * 2 > Mask + 1)
    rebuild(2 * (Mask + 1), false);
}

void CodeCache::Shard::rebuild(std::size_t Size, bool DropPublished) {
  std::size_t OldSize = Mask + 1;
  std::unique_ptr<Slot[]> Old = std::move(Slots);
  Slots.reset(new Slot[Size]);
  Mask = Size - 1;
  Count = 0;
  Hand = 0;
  for (std::size_t J = 0; J < OldSize; ++J) {
    Entry *E = Old[J].E;
    if (!E)
      continue;
    if (DropPublished && !E->Pending) {
      Entry::destroy(E);
      continue;
    }
    std::size_t At = Old[J].Hash & Mask;
    while (Slots[At].E)
      At = (At + 1) & Mask;
    Slots[At] = Old[J];
    ++Count;
  }
}

void CodeCache::Shard::erase(std::size_t I) {
  // Backward shift: an entry further along the cluster moves into the hole
  // unless its home lies cyclically inside (hole, entry], where moving it
  // would put it before its own home.
  for (std::size_t J = (I + 1) & Mask; Slots[J].E; J = (J + 1) & Mask) {
    std::size_t Home = Slots[J].Hash & Mask;
    if (((J - Home) & Mask) >= ((J - I) & Mask)) {
      Slots[I] = Slots[J];
      I = J;
    }
  }
  Slots[I] = Slot();
  --Count;
}

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
  Shard &S = shardFor(K.Hash);
  FnHandle H;
  {
    support::MutexLock G(S.M);
    Entry *E = S.Slots[S.probe(K)].E;
    if (E && !E->Pending)
      H = E->hit();
  }
  // A null return counts nothing: the caller's fallback, acquire(),
  // counts the miss if it ends up compiling.
  if (H) {
    Hits.inc();
    CacheMetrics::get().Hits.inc();
  }
  return H;
}

FnHandle CodeCache::acquire(const SpecKey &K, Claim &C) {
  obs::Phase Span(obs::EventKind::CacheProbe);
  Shard &S = shardFor(K.Hash);
  FnHandle H;
  {
    support::MutexLock G(S.M);
    for (bool Waited = false;; Waited = true) {
      std::size_t At = S.probe(K);
      Entry *E = S.Slots[At].E;
      if (!E) {
        C.E = Entry::make(K);
        S.place(At, C.E);
        ++S.Claims;
        break;
      }
      if (!E->Pending) {
        H = E->hit();
        break;
      }
      if (!Waited)
        CacheMetrics::get().SingleflightWaits.inc();
      S.Published.wait(S.M);
    }
  }
  (H ? Hits : Misses).inc();
  (H ? CacheMetrics::get().Hits : CacheMetrics::get().Misses).inc();
  return H;
}

FnHandle CodeCache::publish(const Claim &C, core::CompiledFn &&Fn) {
  obs::Phase Span(obs::EventKind::CacheInsert);
  CacheMetrics &GM = CacheMetrics::get();
  Entry *E = C.E;
  std::size_t CodeBytes = Fn.stats().CodeBytes ? Fn.stats().CodeBytes : 1;
  Shard &S = shardFor(E->Hash);
  support::MutexLock G(S.M);
  *E->Fn = std::move(Fn);
  E->CodeBytes = CodeBytes;
  E->Pending = false;
  --S.Claims;
  // The key's waiters re-probe once this lock drops.
  S.Published.notify_all();
  S.Bytes += CodeBytes;
  GM.BytesInserted.inc(CodeBytes);
  Insertions.inc();
  GM.Insertions.inc();
  // Provenance split: the process-wide cache.snapshot.* counters live in
  // the persist layer (which knows about probes and rejects too); the
  // per-instance count here lets tests pin loads to one cache.
  if (E->Fn->fromSnapshot())
    SnapshotLoads.inc();
  // The CLOCK sweep. Every published entry but the new one is a candidate,
  // and one lap of the hand clears every bit, so the loop ends within two
  // laps.
  while (S.Bytes > ShardBudget && S.Count - S.Claims > 1) {
    Entry *Victim = S.Slots[S.Hand].E;
    if (!Victim || Victim == E || Victim->Pending || Victim->Referenced) {
      if (Victim)
        Victim->Referenced = false;
      S.Hand = (S.Hand + 1) & S.Mask;
      continue;
    }
    S.Bytes -= Victim->CodeBytes;
    GM.BytesEvicted.inc(Victim->CodeBytes);
    obs::recordEvent(obs::EventKind::CacheEvict,
                     reinterpret_cast<std::uintptr_t>(Victim->Fn->entry()),
                     Victim->CodeBytes);
    // The hand stays: erase shifts the next entry of the cluster into this
    // slot, and that entry has not been examined yet.
    S.erase(S.Hand);
    Entry::destroy(Victim);
    Evictions.inc();
    GM.Evictions.inc();
  }
  return E->Fn;
}

void CodeCache::clear() {
  for (auto &SP : Shards) {
    support::MutexLock G(SP->M);
    SP->rebuild(SP->Mask + 1, true);
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
    St.Entries += SP->Count - SP->Claims;
  }
  return St;
}
