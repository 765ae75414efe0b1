//===- persist/Snapshot.cpp - Persistent cross-process code cache ---------==//

#include "persist/Snapshot.h"

#include "core/Nodes.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Profile.h"
#include "support/Fingerprint.h"
#include "support/Hash.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::persist;

namespace {

// ---------------------------------------------------------------------------
// Wire format. All integers little-endian (x86-64 only — the code bytes are
// ISA-specific anyway); all multi-byte fields accessed via memcpy, so record
// boundaries need no alignment.
//
//   file      := fileHeader record*
//   fileHeader:= "TKSNAP02" u64 buildFingerprint                  (16 bytes)
//   record    := recordHeader key relocs code
//   recordHeader (44 bytes):
//     u32 Magic ("TKSR")   u32 TotalLen (whole record)
//     u64 KeyHash          u64 Checksum (hashBytes over everything
//                                        from KeyLen to the record end —
//                                        the section lengths, instr count,
//                                        and save timestamp are covered)
//     u32 KeyLen  u32 CodeLen  u32 NumRelocs
//     u32 MachineInstrs    u32 SavedAt (unix seconds; TTL expiry)
//   reloc     := u32 Offset u32 Kind u32 RefOrdinal               (12 bytes)
//
// The build fingerprint folds in support::SnapshotFormatVersion, so a file
// written under another format resets on open instead of being misread.
// Format 4: a record's key section holds SpecKey's compact encoding
// (cache/SpecKey.h — child-presence masks, per-kind payloads, varint and
// zigzag integers). Format 5: no ref section, so no writer's addresses on
// disk.
//
// A reloc's RefOrdinal indexes the loader's freshly built SpecKey::Refs,
// which lists the *current* process's addresses in the canonical
// first-occurrence order the key bytes' ordinals name; equal key bytes
// imply an equal ref count. Profile relocs carry the sentinel ordinal:
// their target (the counter) is created at load time, not captured in the
// key.
// ---------------------------------------------------------------------------

constexpr char FileMagic[8] = {'T', 'K', 'S', 'N', 'A', 'P', '0', '2'};
constexpr std::size_t FileHeaderLen = 16;
constexpr std::uint32_t RecordMagic = 0x52534B54u; // "TKSR"
constexpr std::size_t RecordHeaderLen = 44;
constexpr std::size_t RelocLen = 12;
constexpr std::uint32_t ProfileOrdinal = 0xffffffffu;

// Record-header field offsets.
enum : std::size_t {
  OffMagic = 0,
  OffTotalLen = 4,
  OffKeyHash = 8,
  OffChecksum = 16,
  OffKeyLen = 24,
  OffCodeLen = 28,
  OffNumRelocs = 32,
  OffMachineInstrs = 36,
  OffSavedAt = 40,
};

/// First checksum-covered byte. The hash runs from the section-length words
/// to the record end, so a flipped bit in KeyLen/CodeLen/NumRelocs/
/// MachineInstrs/SavedAt — not just the payload — is a checksum miss. The
/// fields before it are self-checking: Magic and TotalLen structurally, the
/// checksum by definition, KeyHash by the byte-exact key compare at probe.
constexpr std::size_t ChecksumFrom = OffKeyLen;

std::uint32_t rd32(const std::uint8_t *P) {
  std::uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

std::uint64_t rd64(const std::uint8_t *P) {
  std::uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

void push32(std::vector<std::uint8_t> &B, std::uint32_t V) {
  std::uint8_t Tmp[4];
  std::memcpy(Tmp, &V, 4);
  B.insert(B.end(), Tmp, Tmp + 4);
}

void push64(std::vector<std::uint8_t> &B, std::uint64_t V) {
  std::uint8_t Tmp[8];
  std::memcpy(Tmp, &V, 8);
  B.insert(B.end(), Tmp, Tmp + 8);
}

/// Validates one record at \p P with \p Avail bytes to the end of file.
/// Returns the record's total length, or 0 when invalid (torn tail,
/// corruption). Checksum covers everything after the header, so a crash at
/// any point mid-append is caught.
std::size_t validateRecord(const std::uint8_t *P, std::size_t Avail) {
  if (Avail < RecordHeaderLen)
    return 0;
  if (rd32(P + OffMagic) != RecordMagic)
    return 0;
  std::size_t Total = rd32(P + OffTotalLen);
  if (Total < RecordHeaderLen || Total > Avail)
    return 0;
  std::size_t KeyLen = rd32(P + OffKeyLen);
  std::size_t CodeLen = rd32(P + OffCodeLen);
  std::size_t NumRelocs = rd32(P + OffNumRelocs);
  // Overflow-safe: every section length is a u32, the sum fits u64.
  std::uint64_t Want = static_cast<std::uint64_t>(RecordHeaderLen) + KeyLen +
                       NumRelocs * RelocLen + CodeLen;
  if (Want != Total)
    return 0;
  if (support::hashBytes(P + ChecksumFrom, Total - ChecksumFrom) !=
      rd64(P + OffChecksum))
    return 0;
  return Total;
}

/// Section accessors over a validated record.
const std::uint8_t *recKey(const std::uint8_t *P) {
  return P + RecordHeaderLen;
}
const std::uint8_t *recRelocs(const std::uint8_t *P) {
  return recKey(P) + rd32(P + OffKeyLen);
}
const std::uint8_t *recCode(const std::uint8_t *P) {
  return recRelocs(P) + rd32(P + OffNumRelocs) * RelocLen;
}

/// Process-wide cumulative mirrors in the metrics registry (the counters
/// tickc-report renders). Per-instance counts live on the SnapshotCache.
struct SnapMetrics {
  obs::Counter &Hits, &Misses, &Rejects, &Saves, &Unportable, &Compactions,
      &Evictions, &Expired;
  obs::Histogram &Load;
  static SnapMetrics &get() {
    namespace N = obs::names;
    auto &R = obs::MetricsRegistry::global();
    static SnapMetrics M{R.counter(N::SnapshotHits),
                         R.counter(N::SnapshotMisses),
                         R.counter(N::SnapshotRejects),
                         R.counter(N::SnapshotSaves),
                         R.counter(N::SnapshotUnportable),
                         R.counter(N::SnapshotCompactions),
                         R.counter(N::SnapshotEvictions),
                         R.counter(N::SnapshotExpired),
                         R.histogram(N::HistSnapshotLoad)};
    return M;
  }
};

/// Counts \p N on an instance counter and on its registry mirror.
void count(obs::Counter &Mine, obs::Counter &Mirror, std::uint64_t N = 1) {
  Mine.inc(N);
  Mirror.inc(N);
}

/// True when the validated records \p A and \p B hold equal key bytes.
bool sameKey(const std::uint8_t *A, const std::uint8_t *B) {
  std::size_t Len = rd32(A + OffKeyLen);
  return rd32(B + OffKeyLen) == Len &&
         std::memcmp(recKey(A), recKey(B), Len) == 0;
}

/// Opens + exclusively flocks \p Path, re-checking that the locked fd still
/// names the path (a concurrent opener's compaction may rename a fresh file
/// over it between our open and flock — retry against the new inode).
int lockedOpen(const std::string &Path) {
  for (int Attempt = 0; Attempt < 16; ++Attempt) {
    int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (Fd < 0)
      return -1;
    if (::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      return -1;
    }
    struct stat FdSt, PathSt;
    if (::fstat(Fd, &FdSt) == 0 && ::stat(Path.c_str(), &PathSt) == 0 &&
        FdSt.st_ino == PathSt.st_ino && FdSt.st_dev == PathSt.st_dev)
      return Fd;
    ::close(Fd); // Releases the stale lock; try the new inode.
  }
  return -1;
}

/// write() until done; false on any error (caller treats the append as
/// torn — the next open's scan truncates it).
bool writeAll(int Fd, const std::uint8_t *P, std::size_t N) {
  while (N) {
    ssize_t W = ::write(Fd, P, N);
    if (W <= 0)
      return false;
    P += static_cast<std::size_t>(W);
    N -= static_cast<std::size_t>(W);
  }
  return true;
}

} // namespace

std::unique_ptr<SnapshotCache> SnapshotCache::open(const std::string &Dir,
                                                   std::size_t CompactThreshold,
                                                   std::size_t BudgetBytes,
                                                   std::uint64_t TtlSeconds) {
  if (Dir.empty())
    return nullptr;
  auto SC = std::unique_ptr<SnapshotCache>(new SnapshotCache());
  SC->Budget = BudgetBytes;
  SC->Ttl = TtlSeconds;
  if (!SC->openFile(Dir + "/tickc.snapshot", CompactThreshold))
    return nullptr;
  return SC;
}

bool SnapshotCache::expired(const std::uint8_t *Rec) const {
  if (!Ttl)
    return false;
  std::uint64_t SavedAt = rd32(Rec + OffSavedAt);
  if (!SavedAt) // Pre-TTL record with no timestamp: never expires.
    return false;
  return static_cast<std::uint64_t>(::time(nullptr)) > SavedAt + Ttl;
}

SnapshotCache::~SnapshotCache() {
  if (Map)
    ::munmap(const_cast<std::uint8_t *>(Map), MapLen);
  if (Fd >= 0)
    ::close(Fd);
}

bool SnapshotCache::openFile(const std::string &FilePath,
                             std::size_t CompactThreshold) {
  Path = FilePath;
  // At most two passes: the second only after this process compacted (the
  // rewritten file is all-live, so the dead-byte check cannot re-fire).
  for (bool Compacted = false;; Compacted = true) {
    Fd = lockedOpen(Path);
    if (Fd < 0)
      return false;

    struct stat St;
    if (::fstat(Fd, &St) != 0) {
      ::close(Fd);
      Fd = -1;
      return false;
    }
    std::size_t FileLen = static_cast<std::size_t>(St.st_size);

    // File header: create, accept, or (mismatched build) reset. A mismatch
    // is a counted rejection of the whole old file, never an abort — the
    // snapshot was written by a build whose code this process must not run.
    std::uint8_t Header[FileHeaderLen];
    bool NeedFreshHeader = FileLen < FileHeaderLen;
    if (!NeedFreshHeader) {
      if (::pread(Fd, Header, FileHeaderLen, 0) !=
          static_cast<ssize_t>(FileHeaderLen)) {
        ::close(Fd);
        Fd = -1;
        return false;
      }
      if (std::memcmp(Header, FileMagic, 8) != 0 ||
          rd64(Header + 8) != support::buildFingerprint()) {
        count(Rejects, SnapMetrics::get().Rejects);
        NeedFreshHeader = true;
      }
    }
    if (NeedFreshHeader) {
      if (::ftruncate(Fd, 0) != 0) {
        ::close(Fd);
        Fd = -1;
        return false;
      }
      std::memcpy(Header, FileMagic, 8);
      std::uint64_t FP = support::buildFingerprint();
      std::memcpy(Header + 8, &FP, 8);
      if (::pwrite(Fd, Header, FileHeaderLen, 0) !=
          static_cast<ssize_t>(FileHeaderLen)) {
        ::close(Fd);
        Fd = -1;
        return false;
      }
      FileLen = FileHeaderLen;
    }

    // Map the whole file once for the validation scan (records are read
    // straight out of this mapping afterwards).
    const std::uint8_t *M8 = nullptr;
    if (FileLen > FileHeaderLen) {
      void *M = ::mmap(nullptr, FileLen, PROT_READ, MAP_PRIVATE, Fd, 0);
      if (M == MAP_FAILED) {
        ::close(Fd);
        Fd = -1;
        return false;
      }
      M8 = static_cast<const std::uint8_t *>(M);
    }

    // WAL recovery scan: walk record to record; the first invalid byte
    // ends the valid prefix (a crash mid-append tore the tail) and the
    // file is truncated back to it. Each valid record is indexed as it is
    // scanned, and the dead bytes counted on the way: a TTL-expired record
    // is dead outright (never indexed, never kept by a compaction), and a
    // record repeating an indexed key (two processes compiled one spec)
    // replaces it, so the last record per key is the live one — the one
    // probes find and compaction keeps. Open runs before the instance is
    // shared; the index mutex is taken (uncontended) for the analysis.
    support::MutexLock G(M);
    Index.clear();
    std::size_t End = FileHeaderLen, DeadBytes = 0;
    while (M8 && End < FileLen) {
      std::size_t Len = validateRecord(M8 + End, FileLen - End);
      if (!Len)
        break;
      DeadBytes += expired(M8 + End) ? Len : indexRecord(M8 + End);
      End += Len;
    }
    if (End < FileLen)
      ::ftruncate(Fd, static_cast<off_t>(End));

    if (!Compacted && ((CompactThreshold && DeadBytes >= CompactThreshold) ||
                       (Budget && End > Budget))) {
      // Compact: rewrite the live set to a temp file and rename it into
      // place. Readers that opened before the rename keep their (complete,
      // consistent) old mapping; appends they make to the old inode are
      // lost, never corrupting — the documented cost of compaction.
      //
      // Live set in append order; under a size budget, evict oldest-first:
      // keep the longest newest suffix that fits (newer records reflect the
      // most recent working set — the same recency bet the in-memory
      // cache's CLOCK makes).
      std::vector<const std::uint8_t *> Keep;
      Keep.reserve(Index.size());
      for (const auto &KV : Index)
        Keep.push_back(KV.second);
      std::sort(Keep.begin(), Keep.end()); // File order.
      if (Budget) {
        std::size_t Used = FileHeaderLen;
        std::size_t FirstKept = Keep.size();
        for (std::size_t I = Keep.size(); I-- > 0;) {
          std::size_t Len = rd32(Keep[I] + OffTotalLen);
          if (Used + Len > Budget)
            break;
          Used += Len;
          FirstKept = I;
        }
        if (FirstKept > 0) {
          count(Evictions, SnapMetrics::get().Evictions, FirstKept);
          Keep.erase(Keep.begin(),
                     Keep.begin() + static_cast<std::ptrdiff_t>(FirstKept));
        }
      }
      std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
      int TFd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                       0644);
      bool Ok = TFd >= 0 && writeAll(TFd, Header, FileHeaderLen);
      for (const std::uint8_t *R : Keep) {
        if (!Ok)
          break;
        Ok = writeAll(TFd, R, rd32(R + OffTotalLen));
      }
      Ok = Ok && ::fsync(TFd) == 0 && ::rename(Tmp.c_str(), Path.c_str()) == 0;
      if (TFd >= 0)
        ::close(TFd);
      if (Ok) {
        count(Compactions, SnapMetrics::get().Compactions);
        if (M8)
          ::munmap(const_cast<std::uint8_t *>(M8), FileLen);
        ::close(Fd); // Releases the old inode's lock.
        Fd = -1;
        continue; // Reopen the compacted file (second and final pass).
      }
      ::unlink(Tmp.c_str()); // Failed compaction: keep the valid old file.
    }

    // Keep the mapping the index points into and the (unlocked) fd.
    Map = M8;
    MapLen = M8 ? FileLen : 0;
    ::flock(Fd, LOCK_UN);
    return true;
  }
}

std::size_t SnapshotCache::indexRecord(const std::uint8_t *Rec) {
  std::uint64_t Hash = rd64(Rec + OffKeyHash);
  auto Range = Index.equal_range(Hash);
  for (auto It = Range.first; It != Range.second; ++It)
    if (sameKey(It->second, Rec)) {
      std::size_t Replaced = rd32(It->second + OffTotalLen);
      It->second = Rec;
      return Replaced;
    }
  Index.emplace(Hash, Rec);
  return 0;
}

const std::uint8_t *SnapshotCache::findRecord(const cache::SpecKey &K) const {
  support::MutexLock G(M);
  auto Range = Index.equal_range(K.BytesHash);
  for (auto It = Range.first; It != Range.second; ++It) {
    const std::uint8_t *R = It->second;
    if (rd32(R + OffKeyLen) != K.Bytes.size() ||
        std::memcmp(recKey(R), K.Bytes.data(), K.Bytes.size()) != 0)
      continue;
    // A record that was fresh at open can age out during a long-lived
    // process: re-checked per probe, counted, treated as absent (so a
    // fresh compile re-saves it with a new timestamp).
    if (expired(R)) {
      count(Expired, SnapMetrics::get().Expired);
      continue;
    }
    return R;
  }
  return nullptr;
}

bool SnapshotCache::appendRecord(std::vector<std::uint8_t> &&Bytes) {
  support::MutexLock G(M);
  // Whole-record append under the file lock: concurrent processes
  // interleave records, never bytes. A failure partway leaves a torn tail
  // the next opener's scan truncates.
  if (::flock(Fd, LOCK_EX) != 0)
    return false;
  if (Budget) {
    // The budget gate reads the *current* size under the lock, so it holds
    // against concurrent writer processes too: whoever locks last sees the
    // others' appends. Over budget, the record is dropped (a counted
    // eviction) — the in-memory cache still serves this process.
    struct stat St;
    if (::fstat(Fd, &St) == 0 &&
        static_cast<std::size_t>(St.st_size) + Bytes.size() > Budget) {
      ::flock(Fd, LOCK_UN);
      count(Evictions, SnapMetrics::get().Evictions);
      return false;
    }
  }
  if (::lseek(Fd, 0, SEEK_END) != static_cast<off_t>(-1))
    writeAll(Fd, Bytes.data(), Bytes.size());
  ::flock(Fd, LOCK_UN);
  // Same-process visibility: the mmap covers only the open-time file, so
  // keep a heap copy of our own append and index that.
  auto Own = std::make_unique<std::uint8_t[]>(Bytes.size());
  std::memcpy(Own.get(), Bytes.data(), Bytes.size());
  indexRecord(Own.get());
  Owned.push_back(std::move(Own));
  return true;
}

core::CompiledFn SnapshotCache::tryLoad(const cache::SpecKey &K,
                                        const core::CompileOptions &Opts) {
  SnapMetrics &GM = SnapMetrics::get();
  if (!K.Cacheable)
    return {};
  std::uint64_t T0 = readCycleCounterBegin();
  const std::uint8_t *R = findRecord(K);
  if (!R) {
    count(Misses, GM.Misses);
    return {};
  }

  auto Reject = [&]() -> core::CompiledFn {
    count(Rejects, GM.Rejects);
    return {};
  };

  std::size_t CodeLen = rd32(R + OffCodeLen);
  std::size_t NumRelocs = rd32(R + OffNumRelocs);
  if (!CodeLen)
    return Reject();

  // Install the stored bytes the way a compile installs its own: into a
  // heap block, patched and admitted through its writable view before the
  // exec-view entry is published. A reject frees the block unexecuted.
  CodeBlock Code =
      CodeHeap::global().install(recCode(R), CodeLen, Opts.Placement);
  std::uint8_t *Base = Code.code();

  // A profiled record increments a counter that must live in *this*
  // process: create the entry first so relocation patching can target it.
  std::shared_ptr<obs::ProfileEntry> Prof;
  if (Opts.Profile)
    Prof = std::make_shared<obs::ProfileEntry>();

  // Re-point every recorded imm64 at this process's addresses. The stored
  // ordinals index K.Refs — the fresh walk's captures in the same canonical
  // order — so old address i maps to current address i by construction.
  // The patched table is what admission trusts below, so a kind outside
  // the three the emitters record is rejected here, before its slot is
  // patched or the field narrowed to a RelocKind.
  // The table is reused per thread, as admission reuses its own arrays, so
  // a warm load builds it without allocating.
  thread_local std::vector<support::RelocEntry> Relocs;
  Relocs.clear();
  const std::uint8_t *RL = recRelocs(R);
  for (std::size_t I = 0; I < NumRelocs; ++I, RL += RelocLen) {
    std::size_t Offset = rd32(RL);
    std::uint32_t Kind = rd32(RL + 4);
    std::uint32_t Ordinal = rd32(RL + 8);
    if (Offset + 8 > CodeLen)
      return Reject();
    std::uint64_t Target;
    if (Kind == static_cast<std::uint32_t>(support::RelocKind::Profile)) {
      if (!Prof)
        return Reject(); // Record/options profile mismatch: stale record.
      Target = reinterpret_cast<std::uint64_t>(&Prof->Invocations);
    } else if (Kind == static_cast<std::uint32_t>(support::RelocKind::Ptr) ||
               Kind == static_cast<std::uint32_t>(support::RelocKind::Callee)) {
      if (Ordinal >= K.Refs.size())
        return Reject();
      Target = K.Refs[Ordinal].Addr;
    } else {
      return Reject();
    }
    std::memcpy(Base + Offset, &Target, 8);
    Relocs.push_back({static_cast<std::uint32_t>(Offset),
                      static_cast<support::RelocKind>(Kind), Target});
  }

  // The gate: the flow-sensitive admission verifier runs unconditionally on
  // the *patched* bytes before they can ever execute. It recovers the full
  // CFG, proves stack/callee-saved discipline on all paths by abstract
  // interpretation, and — because the record's reloc table is handed over —
  // confines every indirect call to addresses the loader's own key walk
  // declared. A hostile record with a stray call target, a mid-instruction
  // branch, an unbalanced path, or a reloc aimed at an opcode byte is a
  // counted reject that falls back to a fresh compile.
  std::uint64_t A0 = readCycleCounterBegin();
  verify::AdmissionInputs AI;
  AI.Code = Base;
  AI.Size = CodeLen;
  AI.ProfileCounter = Prof ? &Prof->Invocations : nullptr;
  AI.ExpectProfile = Prof != nullptr;
  AI.Relocs = Relocs.data();
  AI.NumRelocs = Relocs.size();
  AI.HaveRelocs = true;
  verify::Result VR = verify::verifyAdmission(AI);
  verify::recordOutcome(verify::Layer::Admit, !VR.ok(),
                        readCycleCounterEnd() - A0);
  if (!VR.ok()) {
    // The render (with CFG + abstract-state dump) is observable without
    // aborting: hostile input must degrade to a recompile, not kill the
    // process. TICKC_ADMIT_LOG names a file to append diagnostics to.
    if (const char *LogPath = std::getenv("TICKC_ADMIT_LOG")) {
      if (std::FILE *LF = std::fopen(LogPath, "a")) {
        std::string Rendered = VR.render();
        std::fwrite(Rendered.data(), 1, Rendered.size(), LF);
        std::fclose(LF);
      }
    }
    return Reject();
  }

  core::LoadedCode L;
  L.Code = std::move(Code);
  L.MachineInstrs = rd32(R + OffMachineInstrs);
  L.Prof = std::move(Prof);
  L.Name = Opts.Name;
  L.Backend = Opts.Backend;
  core::CompiledFn F = core::adoptLoadedCode(std::move(L));

  count(Hits, GM.Hits);
  GM.Load.record(readCycleCounterEnd() - T0);
  return F;
}

void SnapshotCache::trySave(const cache::SpecKey &K,
                            const core::CompiledFn &F,
                            const support::RelocTable &Relocs) {
  SnapMetrics &GM = SnapMetrics::get();
  if (!K.Cacheable || !F.valid() || !F.stats().CodeBytes)
    return;

  if (Relocs.Unportable) {
    // Some captured pointer escaped the movabs imm64 form (constant
    // folding); the reloc table cannot account for every embedded address,
    // so the record would be unsound in another process.
    count(Unportable, GM.Unportable);
    return;
  }

  std::size_t CodeLen = F.stats().CodeBytes;

  // Translate each captured slot's absolute address back to its ordinal in
  // the canonical ref list. An address with no ordinal means it entered the
  // code some way the key walk cannot see (e.g. a pointer laundered through
  // a plain long constant) — not persistable, counted, skipped.
  struct WireReloc {
    std::uint32_t Offset, Kind, Ordinal;
  };
  std::vector<WireReloc> Wire;
  Wire.reserve(Relocs.Entries.size());
  for (const support::RelocEntry &E : Relocs.Entries) {
    WireReloc W{E.Offset, static_cast<std::uint32_t>(E.Kind), ProfileOrdinal};
    if (E.Offset + 8 > CodeLen) {
      count(Unportable, GM.Unportable);
      return;
    }
    if (E.Kind != support::RelocKind::Profile) {
      std::uint8_t WantKind =
          E.Kind == support::RelocKind::Callee
              ? static_cast<std::uint8_t>(core::ExprKind::Call)
              : static_cast<std::uint8_t>(core::ExprKind::FreeVar);
      std::uint32_t Found = ProfileOrdinal;
      for (std::size_t I = 0; I < K.Refs.size(); ++I)
        if (K.Refs[I].Addr == E.Value && K.Refs[I].Kind == WantKind) {
          Found = static_cast<std::uint32_t>(I);
          break;
        }
      if (Found == ProfileOrdinal) // Kind-blind fallback (API-built args).
        for (std::size_t I = 0; I < K.Refs.size(); ++I)
          if (K.Refs[I].Addr == E.Value) {
            Found = static_cast<std::uint32_t>(I);
            break;
          }
      if (Found == ProfileOrdinal) {
        count(Unportable, GM.Unportable);
        return;
      }
      W.Ordinal = Found;
    }
    Wire.push_back(W);
  }

  {
    // Duplicate suppression within this process: the record is already
    // probe-visible (our own append or the open-time file).
    if (findRecord(K))
      return;
  }

  // entry() is the exec alias, which stays readable — the emitted bytes are
  // read back from the live function itself.
  const std::uint8_t *Code = static_cast<const std::uint8_t *>(F.entry());

  std::vector<std::uint8_t> Rec;
  Rec.reserve(RecordHeaderLen + K.Bytes.size() + Wire.size() * RelocLen +
              CodeLen);
  push32(Rec, RecordMagic);
  push32(Rec, 0); // TotalLen, fixed up below.
  push64(Rec, K.BytesHash);
  push64(Rec, 0); // Checksum, fixed up below.
  push32(Rec, static_cast<std::uint32_t>(K.Bytes.size()));
  push32(Rec, static_cast<std::uint32_t>(CodeLen));
  push32(Rec, static_cast<std::uint32_t>(Wire.size()));
  push32(Rec, static_cast<std::uint32_t>(F.stats().MachineInstrs));
  push32(Rec, static_cast<std::uint32_t>(::time(nullptr))); // SavedAt.
  Rec.insert(Rec.end(), K.Bytes.begin(), K.Bytes.end());
  for (const WireReloc &W : Wire) {
    push32(Rec, W.Offset);
    push32(Rec, W.Kind);
    push32(Rec, W.Ordinal);
  }
  Rec.insert(Rec.end(), Code, Code + CodeLen);

  std::uint32_t Total = static_cast<std::uint32_t>(Rec.size());
  std::memcpy(Rec.data() + OffTotalLen, &Total, 4);
  std::uint64_t Sum =
      support::hashBytes(Rec.data() + ChecksumFrom, Rec.size() - ChecksumFrom);
  std::memcpy(Rec.data() + OffChecksum, &Sum, 8);

  if (appendRecord(std::move(Rec)))
    count(Saves, GM.Saves);
}

SnapshotStats SnapshotCache::stats() const {
  SnapshotStats S;
  S.Hits = Hits.value();
  S.Misses = Misses.value();
  S.Rejects = Rejects.value();
  S.Saves = Saves.value();
  S.Unportable = Unportable.value();
  S.Compactions = Compactions.value();
  S.Evictions = Evictions.value();
  S.Expired = Expired.value();
  return S;
}

std::size_t SnapshotCache::recordCount() const {
  support::MutexLock G(M);
  return Index.size();
}
