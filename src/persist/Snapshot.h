//===- persist/Snapshot.h - Persistent cross-process code cache -*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warm-start snapshots: an on-disk log of finalized compiles keyed by the
/// SpecKey (cache/SpecKey.h) — its address-independent bytes, indexed by
/// their bytes-only hash, with its Refs as the address table — so a fresh
/// process can reach steady-state cache-hit latency without recompiling
/// anything.
///
/// Format. One file per snapshot directory (TICKC_SNAPSHOT_DIR):
///
///   file header   "TKSNAP02" magic + the build/ISA fingerprint
///                 (support/Fingerprint.h) of the writing build
///   record*       { magic, total length, key hash, payload checksum,
///                   key/code/reloc/ref section lengths, machine-instr
///                   count, save timestamp } followed by the canonical key
///                   bytes, the external-reference table, the relocation
///                   side table (imm64 offsets as ref ordinals), and the
///                   raw code. The checksum covers everything from the
///                   section lengths to the record end.
///
/// Write model (write-ahead-log style). Records are appended whole under an
/// exclusive flock, so concurrent processes interleave records, never
/// bytes. A crash mid-append leaves a torn tail; the next open scans to the
/// last checksum-valid record boundary and truncates the rest. Duplicate
/// records for one key (two processes compiling the same spec) are benign:
/// probes take the first valid match, and when dead bytes exceed
/// TICKC_SNAPSHOT_COMPACT the opener rewrites the live set to a temp file
/// and renames it into place.
///
/// Load safety. A record is executed only after (1) the file fingerprint
/// matched this build, (2) its checksum and section bounds verified, (3)
/// its key bytes compared equal (not just hash-equal), (4) every recorded
/// imm64 slot had a known kind (Ptr, Callee or Profile) and was re-pointed
/// at this process's addresses, and (5) the patched bytes passed the
/// flow-sensitive admission verifier (verify::verifyAdmission): full CFG
/// recovery over the strict decode, worklist abstract interpretation
/// proving stack-depth balance and callee-saved save/restore on all paths
/// to every ret, frame-pointer
/// integrity, and — against the record's own reloc table — confinement of
/// every indirect call to addresses the loader's key walk declared. Any
/// failure is a counted reject and falls back to compiling. With
/// TICKC_SNAPSHOT_TTL set, records older than the TTL are additionally
/// skipped at probe time and dropped by open-time compaction.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_PERSIST_SNAPSHOT_H
#define TICKC_PERSIST_SNAPSHOT_H

#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "support/Reloc.h"
#include "support/ThreadSafety.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace tcc {
namespace persist {

/// Per-instance probe/save accounting (process-wide cumulative mirrors live
/// in obs::MetricsRegistry under the cache.snapshot.* names).
struct SnapshotStats {
  std::uint64_t Hits = 0;        ///< Probes that produced a loaded function.
  std::uint64_t Misses = 0;      ///< Probes with no matching record.
  std::uint64_t Rejects = 0;     ///< Records refused: fingerprint, bounds,
                                 ///< checksum, patch, or audit failure.
  std::uint64_t Saves = 0;       ///< Records appended by this process.
  std::uint64_t Unportable = 0;  ///< Compiles not persisted because a
                                 ///< pointer escaped the imm64 form.
  std::uint64_t Compactions = 0; ///< Open-time rewrites of the live set.
  std::uint64_t Evictions = 0;   ///< Records dropped (oldest-first at open,
                                 ///< or appends refused) to keep the file
                                 ///< under its size budget.
  std::uint64_t Expired = 0;     ///< Probes that matched a record older
                                 ///< than the configured TTL (skipped).
};

/// One open snapshot file: an mmap'd read view of the records present at
/// open, plus an append channel for compiles this process finishes. Safe to
/// use from concurrent compile threads.
class SnapshotCache {
public:
  /// Opens (creating if absent) \p Dir/tickc.snapshot. Recovery, fingerprint
  /// check, and compaction all happen here, under the file lock. Returns
  /// null when the directory is unusable — persistence then simply stays
  /// off. \p CompactThreshold of 0 disables compaction. \p BudgetBytes of 0
  /// leaves the file unbounded; nonzero, an over-budget file is rewritten
  /// at open keeping the newest live records that fit, and appends that
  /// would grow the file past the budget are dropped (both counted as
  /// cache.snapshot.evictions) — the bound long-lived snapshot dirs need.
  /// \p TtlSeconds of 0 disables per-entry expiry; nonzero, records whose
  /// save timestamp is older than the TTL are skipped at probe time
  /// (counted as cache.snapshot.expired) and treated as dead bytes by the
  /// open-time compaction.
  static std::unique_ptr<SnapshotCache> open(const std::string &Dir,
                                             std::size_t CompactThreshold,
                                             std::size_t BudgetBytes = 0,
                                             std::uint64_t TtlSeconds = 0);

  ~SnapshotCache();

  SnapshotCache(const SnapshotCache &) = delete;
  SnapshotCache &operator=(const SnapshotCache &) = delete;

  /// Probes for a record matching \p K; on a hit, installs the code into a
  /// CodeHeap block, re-points every recorded imm64 at this process's
  /// addresses (K.Refs by ordinal; a fresh profile counter when
  /// \p Opts.Profile), admits the result, and adopts it. Returns
  /// an invalid CompiledFn on miss or reject — the caller compiles.
  core::CompiledFn tryLoad(const cache::SpecKey &K,
                           const core::CompileOptions &Opts);

  /// Appends the finished compile \p F under \p K. Counted no-op when the
  /// reloc table is unportable or a recorded address has no ordinal in
  /// K.Refs (nothing wrong — just not representable on disk).
  void trySave(const cache::SpecKey &K, const core::CompiledFn &F,
               const support::RelocTable &Relocs);

  SnapshotStats stats() const;
  const std::string &path() const { return Path; }
  /// Checksum-valid records visible to probes (open-time + own appends).
  std::size_t recordCount() const;

private:
  SnapshotCache() = default;

  /// A validated record, by pointer into the open-time mapping or into an
  /// owned append buffer.
  struct RecordRef {
    const std::uint8_t *Rec = nullptr;
  };

  bool openFile(const std::string &FilePath, std::size_t CompactThreshold);
  /// True when TTL expiry is on and \p Rec's save timestamp has aged out.
  bool expired(const std::uint8_t *Rec) const;
  /// Counts one budget eviction in both the registry and Stats.
  void countEviction(std::uint64_t N = 1);
  void indexRecord(const std::uint8_t *Rec) TICKC_REQUIRES(M);
  const std::uint8_t *findRecord(const cache::SpecKey &K) const;
  /// False when the append was refused (lock failure or budget).
  bool appendRecord(std::vector<std::uint8_t> &&Bytes);

  std::string Path;
  int Fd = -1;
  std::size_t Budget = 0;   ///< Per-file size bound; 0 = unbounded.
  std::uint64_t Ttl = 0;    ///< Per-record lifetime, seconds; 0 = forever.
  const std::uint8_t *Map = nullptr; ///< Read view of the open-time file.
  std::size_t MapLen = 0;

  mutable support::Mutex M;
  std::unordered_multimap<std::uint64_t, RecordRef>
      Index TICKC_GUARDED_BY(M);
  /// Heap copies of records this process appended (stable addresses; the
  /// mmap only covers the file as it was at open).
  std::vector<std::unique_ptr<std::uint8_t[]>> Owned TICKC_GUARDED_BY(M);

  mutable support::Mutex StatsM;
  /// Mutable: findRecord (const, called from the also-const probe path)
  /// counts TTL expiries it skips.
  mutable SnapshotStats Stats TICKC_GUARDED_BY(StatsM);
};

} // namespace persist
} // namespace tcc

#endif // TICKC_PERSIST_SNAPSHOT_H
