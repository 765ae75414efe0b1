//===- tests/persist_test.cpp - Persistent snapshot cache tests -----------===//
//
// Covers the warm-start path end to end: relocation side-table capture,
// address-independent SpecKeys, save/load round trips through both
// back ends (every load must pass the flow-sensitive admission verifier
// before it can execute), relocation patching against moved free variables
// and fresh profile counters, rejection of wrong-fingerprint / corrupted /
// torn files, a deterministic every-byte corruption sweep, the per-file
// size budget (oldest-first eviction at open, refused over-budget appends),
// the per-entry TTL, and an 8-thread concurrent load+compile stress (run
// under -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "apps/Hash.h"
#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "persist/Snapshot.h"
#include "support/Fingerprint.h"
#include "support/Hash.h"
#include "support/CodeBuffer.h"
#include "support/Reloc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;

namespace {

/// A fresh snapshot directory per test, removed (with contents) afterwards.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/tickc_persist_XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Path.c_str());
  }
  std::string file() const { return Path + "/tickc.snapshot"; }
};

ServiceConfig snapConfig(const TempDir &Dir) {
  ServiceConfig C;
  C.SnapshotDir = Dir.Path;
  return C;
}

/// `fn(x) = x + *Cell`: the free variable's *address* is captured in the
/// closure and planted as a movabs imm64 — the relocation the loader must
/// re-point when the cell lives elsewhere in the loading process.
FnHandle compileCell(CompileService &S, const int *Cell,
                     CompileOptions Opts = CompileOptions()) {
  Context C;
  VSpec X = C.paramInt(0);
  return S.getOrCompile(C, C.ret(Expr(X) + C.fvInt(Cell)), EvalType::Int,
                        Opts);
}

SpecKey keyForCell(const int *Cell) {
  Context C;
  VSpec X = C.paramInt(0);
  return buildSpecKey(C, C.ret(Expr(X) + C.fvInt(Cell)), EvalType::Int,
                      CompileOptions());
}

int goldenCallee(int V) { return V + 1; }

/// Flips one byte of the snapshot file at \p Offset (negative = from end).
void flipByte(const std::string &File, long Offset) {
  int Fd = ::open(File.c_str(), O_RDWR);
  ASSERT_GE(Fd, 0);
  struct stat St;
  ASSERT_EQ(::fstat(Fd, &St), 0);
  off_t Pos = Offset >= 0 ? Offset : St.st_size + Offset;
  std::uint8_t B;
  ASSERT_EQ(::pread(Fd, &B, 1, Pos), 1);
  B ^= 0xFF;
  ASSERT_EQ(::pwrite(Fd, &B, 1, Pos), 1);
  ::close(Fd);
}

off_t fileSize(const std::string &File) {
  struct stat St;
  return ::stat(File.c_str(), &St) == 0 ? St.st_size : -1;
}

} // namespace

// --- Relocation side table --------------------------------------------------

TEST(RelocTable, CapturesFreeVarAndProfileImm64Slots) {
  static int Cell = 5;
  Context C;
  VSpec X = C.paramInt(0);
  Stmt Body = C.ret(Expr(X) + C.fvInt(&Cell));

  support::RelocTable RT;
  CompileOptions Opts;
  Opts.Profile = true;
  Opts.Relocs = &RT;
  CompiledFn F = compileFn(C, Body, EvalType::Int, Opts);
  ASSERT_TRUE(F.valid());
  EXPECT_FALSE(RT.Unportable);

  // Every recorded slot must hold, verbatim, the imm64 it claims to track:
  // the cell's address for the Ptr reloc, the live invocation counter for
  // the Profile reloc.
  bool SawPtr = false, SawProfile = false;
  const auto *Code = static_cast<const std::uint8_t *>(F.entry());
  for (const support::RelocEntry &E : RT.Entries) {
    std::uint64_t Imm;
    ASSERT_LE(E.Offset + 8, F.stats().CodeBytes);
    std::memcpy(&Imm, Code + E.Offset, 8);
    EXPECT_EQ(Imm, E.Value);
    if (E.Kind == support::RelocKind::Ptr &&
        E.Value == reinterpret_cast<std::uint64_t>(&Cell))
      SawPtr = true;
    if (E.Kind == support::RelocKind::Profile) {
      EXPECT_EQ(E.Value,
                reinterpret_cast<std::uint64_t>(&F.profile()->Invocations));
      SawProfile = true;
    }
  }
  EXPECT_TRUE(SawPtr);
  EXPECT_TRUE(SawProfile);
}

TEST(RelocTable, RecordingDoesNotChangeEmittedBytes) {
  static int Cell = 9;
  for (BackendKind B : {BackendKind::VCode, BackendKind::ICode}) {
    Context C1, C2;
    VSpec X1 = C1.paramInt(0);
    VSpec X2 = C2.paramInt(0);
    CompileOptions Plain;
    Plain.Backend = B;
    CompileOptions Recorded = Plain;
    support::RelocTable RT;
    Recorded.Relocs = &RT;
    CompiledFn A =
        compileFn(C1, C1.ret(Expr(X1) + C1.fvInt(&Cell)), EvalType::Int, Plain);
    CompiledFn F = compileFn(C2, C2.ret(Expr(X2) + C2.fvInt(&Cell)),
                             EvalType::Int, Recorded);
    ASSERT_EQ(A.stats().CodeBytes, F.stats().CodeBytes);
    EXPECT_EQ(std::memcmp(A.entry(), F.entry(), A.stats().CodeBytes), 0)
        << "backend " << static_cast<int>(B);
  }
}

// --- SpecKey canonicalization ---------------------------------------------

TEST(SpecKey, AddressIndependentAcrossMovedFreeVars) {
  static int CellA = 1, CellB = 2;
  SpecKey KA = keyForCell(&CellA);
  SpecKey KB = keyForCell(&CellB);
  // Same canonical bytes (the address became an ordinal) ...
  EXPECT_EQ(KA.BytesHash, KB.BytesHash);
  EXPECT_EQ(KA.Bytes, KB.Bytes);
  // ... with the differing addresses carried out-of-band, pairable by
  // position.
  ASSERT_EQ(KA.Refs.size(), 1u);
  ASSERT_EQ(KB.Refs.size(), 1u);
  EXPECT_EQ(KA.Refs[0].Addr, reinterpret_cast<std::uint64_t>(&CellA));
  EXPECT_EQ(KB.Refs[0].Addr, reinterpret_cast<std::uint64_t>(&CellB));
  EXPECT_EQ(KA.Refs[0].Kind, KB.Refs[0].Kind);
  // Yet the keys stay unequal: two different cells are two different
  // functions to one process.
  EXPECT_FALSE(KA == KB);
}

TEST(SpecKey, GoldenBytesHashPinsTheRecordKeyFormat) {
  // The key bytes are the snapshot record key, so they must not drift
  // without a SnapshotFormatVersion bump. The spec covers every ordinal
  // shape: a repeated free variable (A), a second one (B) and a callee.
  static int CellA = 1, CellB = 2;
  Context C;
  VSpec X = C.paramInt(0);
  Expr Call = C.callC(reinterpret_cast<const void *>(&goldenCallee),
                      EvalType::Int, {Expr(X) + C.fvInt(&CellA)});
  Stmt Body = C.ret(Call + C.fvInt(&CellA) + C.fvInt(&CellB));
  CompileOptions Opts;
  Opts.Verify = true; // Pinned on, so TICKC_VERIFY cannot flip its byte.
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, Opts);
  ASSERT_EQ(K.Refs.size(), 3u);
  EXPECT_EQ(K.Refs[0].Addr, reinterpret_cast<std::uint64_t>(&goldenCallee));
  EXPECT_EQ(K.Refs[1].Addr, reinterpret_cast<std::uint64_t>(&CellA));
  EXPECT_EQ(K.Refs[2].Addr, reinterpret_cast<std::uint64_t>(&CellB));
  EXPECT_EQ(K.Bytes.size(), 44u);
  EXPECT_EQ(K.BytesHash, 0xc64f1fc09498a0b0ull);
}

// --- Save / load round trips ------------------------------------------------

TEST(Snapshot, RoundTripAllBackendsOnFig7Workloads) {
  apps::HashApp Hash;
  apps::PowerApp Power(13);
  apps::QueryApp Query(64);
  for (BackendKind B : {BackendKind::VCode, BackendKind::ICode}) {
    TempDir Dir;
    CompileOptions Opts;
    Opts.Backend = B;

    int HashWant, PowerWant, QueryWant;
    {
      CompileService Cold(snapConfig(Dir));
      ASSERT_NE(Cold.snapshot(), nullptr);
      HashWant = Hash.specializeCached(Cold, Opts)
                     ->as<int(int)>()(Hash.presentKey());
      PowerWant = Power.specializeCached(Cold, Opts)->as<int(int)>()(3);
      QueryWant = Query.specializeCached(Query.benchmarkQuery(), Cold, Opts)
                      ->as<int(const apps::Record *)>()(&Query.records()[0]);
      EXPECT_EQ(Cold.snapshot()->stats().Hits, 0u);
      EXPECT_EQ(Cold.snapshot()->stats().Saves, 3u);
      EXPECT_EQ(Cold.cache().stats().SnapshotLoads, 0u);
    }

    // A second service over the same directory stands in for a second
    // process: its in-memory cache is empty, so every spec would recompile
    // — unless the snapshot serves it. Every load passed the strict byte
    // audit before executing (tryLoad runs it unconditionally).
    CompileService Warm(snapConfig(Dir));
    FnHandle H = Hash.specializeCached(Warm, Opts);
    EXPECT_TRUE(H->fromSnapshot()) << "backend " << static_cast<int>(B);
    EXPECT_EQ(H->as<int(int)>()(Hash.presentKey()), HashWant);
    EXPECT_EQ(H->as<int(int)>()(Hash.absentKey()), apps::HashApp::Empty);
    EXPECT_EQ(Power.specializeCached(Warm, Opts)->as<int(int)>()(3),
              PowerWant);
    EXPECT_EQ(Query.specializeCached(Query.benchmarkQuery(), Warm, Opts)
                  ->as<int(const apps::Record *)>()(&Query.records()[0]),
              QueryWant);
    EXPECT_EQ(Warm.snapshot()->stats().Hits, 3u);
    EXPECT_EQ(Warm.snapshot()->stats().Rejects, 0u);
    EXPECT_EQ(Warm.snapshot()->stats().Saves, 0u);
    // Satellite guarantee: warm-start loads are classified apart from
    // in-memory hits ...
    EXPECT_EQ(Warm.cache().stats().SnapshotLoads, 3u);
    EXPECT_EQ(Warm.cache().stats().Hits, 0u);
    // ... and a repeat request is an ordinary in-memory hit, not a second
    // snapshot load.
    EXPECT_EQ(Hash.specializeCached(Warm, Opts).get(), H.get());
    EXPECT_EQ(Warm.cache().stats().Hits, 1u);
    EXPECT_EQ(Warm.snapshot()->stats().Hits, 3u);
  }
}

TEST(Snapshot, RelocationPatchingTracksMovedFreeVariable) {
  // The same canonical spec over two different cells: the record written
  // for CellA must, when loaded against CellB's key, read CellB — a loader
  // that skipped (or mis-indexed) the patch would keep answering from
  // CellA.
  static int CellA = 111, CellB = 222;
  TempDir Dir;
  {
    CompileService S1(snapConfig(Dir));
    EXPECT_EQ(compileCell(S1, &CellA)->as<int(int)>()(0), 111);
    EXPECT_EQ(S1.snapshot()->stats().Saves, 1u);
  }
  CompileService S2(snapConfig(Dir));
  FnHandle H = compileCell(S2, &CellB);
  EXPECT_TRUE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(0), 222);
  // Still a live load, not a baked constant.
  CellB = 333;
  EXPECT_EQ(H->as<int(int)>()(0), 333);
  CellB = 222;
  EXPECT_EQ(S2.snapshot()->stats().Hits, 1u);
}

TEST(Snapshot, ProfiledLoadPatchesFreshCounter) {
  static int Cell = 7;
  TempDir Dir;
  CompileOptions Opts;
  Opts.Profile = true;
  Opts.Name = "persist.prof";
  {
    CompileService S1(snapConfig(Dir));
    FnHandle H = compileCell(S1, &Cell, Opts);
    (void)H->as<int(int)>()(1);
    EXPECT_EQ(S1.snapshot()->stats().Saves, 1u);
  }
  CompileService S2(snapConfig(Dir));
  FnHandle H = compileCell(S2, &Cell, Opts);
  ASSERT_TRUE(H->fromSnapshot());
  ASSERT_NE(H->profile(), nullptr);
  // The loaded prologue bumps a counter created by *this* service's load,
  // starting from zero — not the saving process's counter address.
  EXPECT_EQ(H->profile()->Invocations.load(), 0u);
  EXPECT_EQ(H->as<int(int)>()(1), 8);
  EXPECT_EQ(H->as<int(int)>()(2), 9);
  EXPECT_EQ(H->as<int(int)>()(3), 10);
  EXPECT_EQ(H->profile()->Invocations.load(), 3u);
  EXPECT_STREQ(H->profile()->Backend.load(), "snapshot");
}

/// `return (p[0] == 7 && p[4] > 3) || p[1] == 9`: ICODE compiles it as a
/// page-guarded branch-free body with a short-circuit VCODE twin behind it.
FnHandle compileVersioned(CompileService &S, const CompileOptions &Opts) {
  Context C;
  VSpec P = C.paramPtr(0);
  auto Field = [&](unsigned Off) {
    return C.loadMem(MemType::I32,
                     C.binary(BinOp::Add, Expr(P), C.longConst(Off)));
  };
  Expr E = (Field(0) == C.intConst(7) && Field(16) > C.intConst(3)) ||
           Field(4) == C.intConst(9);
  return S.getOrCompile(C, C.ret(E), EvalType::Int, Opts);
}

TEST(Snapshot, VersionedIcodeFunctionRoundTripsThroughAdmission) {
  TempDir Dir;
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  Opts.Profile = true;
  Opts.Name = "persist.versioned";
  // A record straddling a page boundary takes the twin; one inside a page
  // takes the guarded body. Both pages are readable.
  const std::size_t Page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<std::uint8_t> Mem(3 * Page);
  std::uint8_t *Boundary = reinterpret_cast<std::uint8_t *>(
      (reinterpret_cast<std::uintptr_t>(Mem.data()) + 2 * Page - 1) &
      ~(Page - 1));
  std::int32_t Straddle[5] = {7, 0, 0, 0, 9}, Inside[5] = {7, 0, 0, 0, 2};
  std::memcpy(Boundary - 8, Straddle, sizeof(Straddle));
  std::memcpy(Boundary - 64, Inside, sizeof(Inside));
  {
    CompileService Cold(snapConfig(Dir));
    FnHandle H = compileVersioned(Cold, Opts);
    EXPECT_EQ(H->as<int(const void *)>()(Boundary - 8), 1);
    EXPECT_EQ(Cold.snapshot()->stats().Saves, 1u);
  }
  CompileService Warm(snapConfig(Dir));
  FnHandle H = compileVersioned(Warm, Opts);
  ASSERT_TRUE(H->fromSnapshot());
  EXPECT_EQ(Warm.snapshot()->stats().Rejects, 0u);
  ASSERT_NE(H->profile(), nullptr);
  auto *Fn = H->as<int(const void *)>();
  EXPECT_EQ(Fn(Boundary - 8), 1);  // Twin.
  EXPECT_EQ(Fn(Boundary - 64), 0); // Guarded body.
  EXPECT_EQ(Fn(Boundary - 8), 1);
  // Both profile hooks were re-pointed at the loading service's counter.
  EXPECT_EQ(H->profile()->Invocations.load(), 3u);
}

// --- Rejection and recovery -------------------------------------------------

TEST(Snapshot, WrongFingerprintRejectedNotFatal) {
  static int Cell = 4;
  TempDir Dir;
  {
    CompileService S1(snapConfig(Dir));
    (void)compileCell(S1, &Cell);
  }
  // Another build's fingerprint (byte 8 of the file header): the whole file
  // is a counted reject, then reset — never an abort, never executed code.
  flipByte(Dir.file(), 8);
  CompileService S2(snapConfig(Dir));
  ASSERT_NE(S2.snapshot(), nullptr);
  EXPECT_EQ(S2.snapshot()->stats().Rejects, 1u);
  EXPECT_EQ(S2.snapshot()->recordCount(), 0u);
  FnHandle H = compileCell(S2, &Cell);
  EXPECT_FALSE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(1), 5);
  EXPECT_EQ(S2.snapshot()->stats().Saves, 1u); // Re-seeded for the next run.
}

TEST(Snapshot, CorruptedRecordDroppedByChecksum) {
  static int Cell = 4;
  TempDir Dir;
  {
    CompileService S1(snapConfig(Dir));
    (void)compileCell(S1, &Cell);
  }
  // Flip the last code byte: lengths still parse, the checksum does not.
  flipByte(Dir.file(), -1);
  CompileService S2(snapConfig(Dir));
  EXPECT_EQ(S2.snapshot()->recordCount(), 0u);
  FnHandle H = compileCell(S2, &Cell);
  EXPECT_FALSE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(1), 5);
}

TEST(Snapshot, CrashMidAppendRecoversValidPrefix) {
  static int CellA = 10, CellB = 20;
  TempDir Dir;
  {
    CompileService S1(snapConfig(Dir));
    (void)compileCell(S1, &CellA);
    CompileOptions Prof; // A different key, so a second record.
    Prof.Profile = true;
    (void)compileCell(S1, &CellA, Prof);
    EXPECT_EQ(S1.snapshot()->stats().Saves, 2u);
  }
  // A crash mid-append leaves a torn tail: chop 5 bytes off the second
  // record. The opener must keep the intact first record and truncate the
  // rest.
  off_t Full = fileSize(Dir.file());
  ASSERT_GT(Full, 5);
  ASSERT_EQ(::truncate(Dir.file().c_str(), Full - 5), 0);

  CompileService S2(snapConfig(Dir));
  EXPECT_EQ(S2.snapshot()->recordCount(), 1u);
  EXPECT_LT(fileSize(Dir.file()), Full - 5); // Torn tail gone.
  FnHandle H = compileCell(S2, &CellB); // Moved cell still loads + patches.
  EXPECT_TRUE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(1), 21);
}

TEST(Snapshot, CompactionRewritesDuplicateRecords) {
  static int Cell = 6;
  TempDir Dir;
  {
    CompileService S1(snapConfig(Dir));
    (void)compileCell(S1, &Cell);
  }
  // Simulate racing writers: duplicate the record region so the file holds
  // the same key twice.
  off_t Full = fileSize(Dir.file());
  {
    int Fd = ::open(Dir.file().c_str(), O_RDWR);
    ASSERT_GE(Fd, 0);
    std::vector<std::uint8_t> Rec(static_cast<std::size_t>(Full) - 16);
    ASSERT_EQ(::pread(Fd, Rec.data(), Rec.size(), 16),
              static_cast<ssize_t>(Rec.size()));
    ASSERT_EQ(::pwrite(Fd, Rec.data(), Rec.size(), Full),
              static_cast<ssize_t>(Rec.size()));
    ::close(Fd);
  }
  ASSERT_EQ(fileSize(Dir.file()), 2 * Full - 16);

  // Threshold 1: any dead byte triggers compaction at open.
  ServiceConfig Cfg = snapConfig(Dir);
  Cfg.SnapshotCompactBytes = 1;
  CompileService S2(Cfg);
  EXPECT_EQ(S2.snapshot()->stats().Compactions, 1u);
  EXPECT_EQ(S2.snapshot()->recordCount(), 1u);
  EXPECT_EQ(fileSize(Dir.file()), Full);
  FnHandle H = compileCell(S2, &Cell);
  EXPECT_TRUE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(1), 7);
}

TEST(Snapshot, UncacheableSpecsNeverPersist) {
  static int Cell = 50;
  TempDir Dir;
  CompileService S(snapConfig(Dir));
  Context C;
  VSpec X = C.paramInt(0);
  // rtEval over memory: the embedded immediate depends on what the cell
  // holds at instantiation time; neither the in-memory cache nor the
  // snapshot may reuse it.
  FnHandle H = S.getOrCompile(
      C, C.ret(Expr(X) + C.rtEval(C.fvInt(&Cell))), EvalType::Int);
  EXPECT_EQ(H->as<int(int)>()(1), 51);
  EXPECT_EQ(S.snapshot()->stats().Saves, 0u);
  EXPECT_EQ(S.snapshot()->stats().Hits, 0u);
  EXPECT_EQ(S.snapshot()->stats().Misses, 0u);
  EXPECT_EQ(fileSize(Dir.file()), 16); // Header only — nothing appended.
}

// --- Size budget ------------------------------------------------------------

TEST(Snapshot, BudgetEvictsOldestAtOpenAndBoundsFile) {
  TempDir Dir;
  std::vector<apps::PowerApp> Apps;
  for (int E = 2; E <= 9; ++E)
    Apps.emplace_back(E);
  {
    CompileService Seed(snapConfig(Dir)); // Unbounded: all eight persist.
    for (apps::PowerApp &A : Apps)
      (void)A.specializeCached(Seed);
    EXPECT_EQ(Seed.snapshot()->stats().Saves, Apps.size());
  }
  off_t Full = fileSize(Dir.file());
  ASSERT_GT(Full, 16);

  // Reopen under a budget of roughly half the file: the opener rewrites
  // keeping the longest *newest* suffix of records that fits (recently
  // written specs are the better warm-start bet), counting the dropped
  // prefix as evictions.
  ServiceConfig Cfg = snapConfig(Dir);
  Cfg.SnapshotBudgetBytes = static_cast<std::size_t>(Full / 2);
  CompileService S(Cfg);
  ASSERT_NE(S.snapshot(), nullptr);
  EXPECT_GT(S.snapshot()->stats().Evictions, 0u);
  EXPECT_LE(fileSize(Dir.file()), Full / 2);
  std::size_t Kept = S.snapshot()->recordCount();
  EXPECT_GT(Kept, 0u);
  EXPECT_LT(Kept, Apps.size());

  // The newest record (highest exponent, appended last) survived; the
  // oldest did not and recompiles.
  FnHandle HNew = Apps.back().specializeCached(S);
  EXPECT_TRUE(HNew->fromSnapshot());
  EXPECT_EQ(HNew->as<int(int)>()(2), 1 << 9);
  FnHandle HOld = Apps.front().specializeCached(S);
  EXPECT_FALSE(HOld->fromSnapshot());
  EXPECT_EQ(HOld->as<int(int)>()(2), 1 << 2);
  // The recompile's re-append may or may not fit the remaining slack, but
  // the file never grows past its budget either way.
  EXPECT_LE(fileSize(Dir.file()),
            static_cast<off_t>(Cfg.SnapshotBudgetBytes));

  // A third service under the same budget still serves what was kept.
  CompileService S3(Cfg);
  EXPECT_TRUE(Apps.back().specializeCached(S3)->fromSnapshot());
}

TEST(Snapshot, BudgetRefusesAppendsThatWouldOverflow) {
  TempDir Dir;
  ServiceConfig Cfg = snapConfig(Dir);
  Cfg.SnapshotBudgetBytes = 64; // Room for the header, not for any record.
  CompileService S(Cfg);
  ASSERT_NE(S.snapshot(), nullptr);
  apps::PowerApp P(13);
  FnHandle H = P.specializeCached(S);
  EXPECT_EQ(H->as<int(int)>()(2), 8192); // Compile unaffected.
  EXPECT_EQ(S.snapshot()->stats().Saves, 0u); // Refused, not saved.
  EXPECT_GT(S.snapshot()->stats().Evictions, 0u);
  EXPECT_EQ(fileSize(Dir.file()), 16); // Header only.
}

// --- Concurrency ------------------------------------------------------------

TEST(Snapshot, ConcurrentLoadAndCompileIsSafe) {
  // Half the working set is pre-seeded on disk, half must be compiled and
  // saved under contention: 8 threads race loads, compiles, single-flight
  // waits, and snapshot appends over one service. Run under TSan in CI.
  TempDir Dir;
  std::vector<apps::PowerApp> Apps;
  for (int E = 2; E <= 9; ++E)
    Apps.emplace_back(E);
  {
    CompileService Seed(snapConfig(Dir));
    for (int I = 0; I < 4; ++I)
      (void)Apps[static_cast<std::size_t>(I)].specializeCached(Seed);
    EXPECT_EQ(Seed.snapshot()->stats().Saves, 4u);
  }

  CompileService S(snapConfig(Dir));
  constexpr unsigned Threads = 8, Iters = 50;
  std::atomic<bool> Go{false};
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        ;
      for (unsigned I = 0; I < Iters; ++I) {
        std::size_t App = (T + I) % Apps.size();
        int Exp = 2 + static_cast<int>(App);
        FnHandle H = Apps[App].specializeCached(S);
        int Want = 1;
        for (int K = 0; K < Exp; ++K)
          Want *= 3;
        if (H->as<int(int)>()(3) != Want)
          Wrong.fetch_add(1);
      }
    });
  }
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Wrong.load(), 0u);
  // One entry per exponent; seeded ones loaded, the rest compiled once and
  // appended.
  EXPECT_EQ(S.cache().stats().Insertions, Apps.size());
  EXPECT_EQ(S.cache().stats().SnapshotLoads, 4u);
  EXPECT_EQ(S.snapshot()->stats().Hits, 4u);
  EXPECT_EQ(S.snapshot()->stats().Saves, 4u);

  // And the post-race snapshot serves the whole set to the next comer.
  CompileService After(snapConfig(Dir));
  for (std::size_t I = 0; I < Apps.size(); ++I)
    (void)Apps[I].specializeCached(After);
  EXPECT_EQ(After.snapshot()->stats().Hits, Apps.size());
  EXPECT_EQ(After.cache().stats().SnapshotLoads, Apps.size());
}

// --- Shared directory across test-suite runs --------------------------------

// CI points TICKC_SNAPSHOT_DIR at one directory and runs the whole suite
// twice: the first pass seeds this spec, the second revives it — a
// cross-process warm start exercised by the real test harness. With the
// variable unset the test is self-contained in a temp dir (the first
// service seeds, so the assertions below hold either way).
TEST(Snapshot, SharedDirAcrossRunsServesWithoutRecompile) {
  TempDir Fallback;
  const char *Env = std::getenv("TICKC_SNAPSHOT_DIR");
  ServiceConfig Cfg;
  Cfg.SnapshotDir = Env && *Env ? Env : Fallback.Path.c_str();

  apps::PowerApp Power(21); // Portable: pure integer math, no addresses.
  {
    CompileService First(Cfg);
    ASSERT_NE(First.snapshot(), nullptr);
    EXPECT_EQ(Power.specializeCached(First)->as<int(int)>()(2), 1 << 21);
    persist::SnapshotStats S = First.snapshot()->stats();
    // Either this run seeded the record or a previous run already had.
    EXPECT_EQ(S.Hits + S.Saves, 1u);
    EXPECT_EQ(S.Rejects, 0u);
  }

  // The directory is warm now no matter what: a fresh service must serve
  // the spec from the snapshot with zero recompiles.
  CompileService Second(Cfg);
  EXPECT_EQ(Power.specializeCached(Second)->as<int(int)>()(2), 1 << 21);
  persist::SnapshotStats S2 = Second.snapshot()->stats();
  EXPECT_EQ(S2.Hits, 1u);
  EXPECT_EQ(S2.Saves, 0u);
  EXPECT_EQ(Second.cache().stats().SnapshotLoads, 1u);
}

// --- Hostile-byte sweep -----------------------------------------------------

namespace {

std::vector<std::uint8_t> readFileBytes(const std::string &File) {
  std::vector<std::uint8_t> Buf;
  int Fd = ::open(File.c_str(), O_RDONLY);
  if (Fd < 0)
    return Buf;
  struct stat St;
  if (::fstat(Fd, &St) == 0) {
    Buf.resize(static_cast<std::size_t>(St.st_size));
    if (::pread(Fd, Buf.data(), Buf.size(), 0) !=
        static_cast<ssize_t>(Buf.size()))
      Buf.clear();
  }
  ::close(Fd);
  return Buf;
}

void writeFileBytes(const std::string &File,
                    const std::vector<std::uint8_t> &Buf) {
  int Fd = ::open(File.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::pwrite(Fd, Buf.data(), Buf.size(), 0),
            static_cast<ssize_t>(Buf.size()));
  ::close(Fd);
}

std::uint32_t rd32At(const std::uint8_t *P) {
  std::uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

/// Applies \p Edit to every record (handed the record's first byte) and
/// fixes the checksum up to match. Everything after the first 24 header
/// bytes is checksum-covered — the sweep test proves a stale checksum is
/// fatal; these rewrites forge records that are *valid* but altered.
void rewriteRecords(const std::string &File,
                    const std::function<void(std::uint8_t *)> &Edit) {
  std::vector<std::uint8_t> Buf = readFileBytes(File);
  ASSERT_GT(Buf.size(), 16u);
  std::size_t Off = 16; // File header: magic + build fingerprint.
  while (Off + 44 <= Buf.size()) { // A record header is 44 bytes.
    std::uint32_t Total = rd32At(Buf.data() + Off + 4);
    if (Total < 44 || Off + Total > Buf.size())
      break;
    Edit(Buf.data() + Off);
    std::uint64_t Sum =
        support::hashBytes(Buf.data() + Off + 24, Total - 24);
    std::memcpy(Buf.data() + Off + 16, &Sum, 8); // Checksum
    Off += Total;
  }
  writeFileBytes(File, Buf);
}

/// Rewrites every record's save timestamp to \p SavedAt (the TTL tests
/// need a record that is valid but old).
void backdateRecords(const std::string &File, std::uint32_t SavedAt) {
  rewriteRecords(File, [SavedAt](std::uint8_t *Rec) {
    std::memcpy(Rec + 40, &SavedAt, 4); // SavedAt
  });
}

} // namespace

TEST(Snapshot, EveryByteFlipRejectsOrRecompilesNeverAdopts) {
  // The deterministic corruption sweep: for every single byte of the
  // snapshot file — header, record header, key, relocs, code — a
  // flipped copy must end in reject-and-recompile or a checksum/probe miss.
  // Never a crash, never adoption of altered bytes. The layered defense
  // (fingerprint, structural bounds, checksum over everything after the
  // record header, byte-exact key compare, flow-sensitive admission) must
  // leave no window.
  static int Cell = 77;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    EXPECT_EQ(compileCell(Seed, &Cell)->as<int(int)>()(1), 78);
    EXPECT_EQ(Seed.snapshot()->stats().Saves, 1u);
  }
  std::vector<std::uint8_t> Pristine = readFileBytes(Dir.file());
  ASSERT_GT(Pristine.size(), 16u);

  unsigned Adopted = 0;
  for (std::size_t Off = 0; Off < Pristine.size(); ++Off) {
    writeFileBytes(Dir.file(), Pristine);
    flipByte(Dir.file(), static_cast<long>(Off));
    CompileService S(snapConfig(Dir));
    ASSERT_NE(S.snapshot(), nullptr) << "flip at " << Off;
    FnHandle H = compileCell(S, &Cell);
    ASSERT_NE(H, nullptr) << "flip at " << Off;
    EXPECT_EQ(H->as<int(int)>()(5), 82) << "flip at " << Off;
    if (H->fromSnapshot())
      ++Adopted;
  }
  EXPECT_EQ(Adopted, 0u) << "a flipped record was adopted";
}

TEST(Snapshot, OutOfRangeRelocKindRejected) {
  // A checksum-valid record whose first reloc kind is 0x102. Its low byte
  // reads as Callee, so narrowing the field would have trusted the slot as
  // a call target; the loader must refuse the kind before patching, count
  // a reject, and fall back to a fresh compile.
  static int Cell = 61;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    EXPECT_EQ(compileCell(Seed, &Cell)->as<int(int)>()(1), 62);
    EXPECT_EQ(Seed.snapshot()->stats().Saves, 1u);
  }
  rewriteRecords(Dir.file(), [](std::uint8_t *Rec) {
    ASSERT_GE(rd32At(Rec + 32), 1u); // NumRelocs: the free var's address.
    // Header, then key bytes; the reloc's Kind follows its Offset.
    std::uint8_t *Reloc = Rec + 44 + rd32At(Rec + 24);
    const std::uint32_t Forged = 0x102;
    std::memcpy(Reloc + 4, &Forged, 4);
  });

  CompileService S(snapConfig(Dir));
  ASSERT_EQ(S.snapshot()->recordCount(), 1u); // The forgery is well formed.
  FnHandle H = compileCell(S, &Cell);
  EXPECT_FALSE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(5), 66);
  EXPECT_EQ(S.snapshot()->stats().Rejects, 1u);
  EXPECT_EQ(S.snapshot()->stats().Hits, 0u);
}

TEST(Snapshot, RejectedRecordLeavesOnlyTrapsInItsBlock) {
  // The loader installs a record into a heap block to admit it there. When
  // admission refuses it, the block goes back to the heap, and the refused
  // bytes must not stay mapped executable until the block is reused. A
  // class's freelist is LIFO, so a probe block of the record's code length,
  // freed just before the load, is the block the load takes.
  static int Cell = 45;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    EXPECT_EQ(compileCell(Seed, &Cell)->as<int(int)>()(1), 46);
  }
  std::uint32_t CodeLen = 0;
  rewriteRecords(Dir.file(), [&](std::uint8_t *Rec) {
    CodeLen = rd32At(Rec + 28);
    // Header, key, relocs, then the code.
    std::uint8_t *Code = Rec + 44 + rd32At(Rec + 24) + 12 * rd32At(Rec + 32);
    Code[0] = 0x0F; // syscall: outside every emitter's vocabulary.
    Code[1] = 0x05;
  });
  ASSERT_GT(CodeLen, 2u);

  std::vector<std::uint8_t> Filler(CodeLen, 0x90);
  const std::uint8_t *X;
  {
    CodeBlock Probe = CodeHeap::global().install(Filler.data(), CodeLen,
                                                 CodePlacement::Sequential);
    X = Probe.exec();
  }
  std::uint64_t ReusedBefore = CodeHeap::global().stats().Reused;
  CompileService S(snapConfig(Dir));
  CompiledFn F = S.snapshot()->tryLoad(keyForCell(&Cell), {});
  EXPECT_FALSE(F.valid());
  EXPECT_EQ(S.snapshot()->stats().Rejects, 1u);
  ASSERT_EQ(CodeHeap::global().stats().Reused, ReusedBefore + 1)
      << "the load did not take the probe's block";
  // Heap chunks are never unmapped, so the exec view stays readable.
  for (std::uint32_t I = 0; I < CodeLen; ++I)
    ASSERT_EQ(X[I], 0xCC) << "byte " << I << " of a refused record survived";
}

// --- Per-entry TTL ----------------------------------------------------------

TEST(Snapshot, TtlExpiredRecordSkippedAtOpenAndReseeded) {
  static int Cell = 31;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    EXPECT_EQ(compileCell(Seed, &Cell)->as<int(int)>()(1), 32);
  }
  // Age the record far past a one-hour TTL (timestamp stays checksum-valid).
  backdateRecords(Dir.file(),
                  static_cast<std::uint32_t>(::time(nullptr)) - 100000);

  ServiceConfig Cfg = snapConfig(Dir);
  Cfg.SnapshotTtlSec = 3600;
  CompileService S(Cfg);
  ASSERT_NE(S.snapshot(), nullptr);
  // The expired record was never indexed: the probe is a plain miss, the
  // compile runs fresh and re-seeds the file with a new timestamp.
  EXPECT_EQ(S.snapshot()->recordCount(), 0u);
  FnHandle H = compileCell(S, &Cell);
  EXPECT_FALSE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(1), 32);
  EXPECT_EQ(S.snapshot()->stats().Saves, 1u);

  // The re-seeded record is fresh: the next service under the same TTL
  // serves it.
  CompileService S2(Cfg);
  FnHandle H2 = compileCell(S2, &Cell);
  EXPECT_TRUE(H2->fromSnapshot());
  EXPECT_EQ(H2->as<int(int)>()(1), 32);
}

TEST(Snapshot, TtlZeroAndUnexpiredRecordsStillServe) {
  static int Cell = 13;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    (void)compileCell(Seed, &Cell);
  }
  backdateRecords(Dir.file(),
                  static_cast<std::uint32_t>(::time(nullptr)) - 100000);

  // TTL off (the default): age is irrelevant.
  CompileService NoTtl(snapConfig(Dir));
  EXPECT_TRUE(compileCell(NoTtl, &Cell)->fromSnapshot());

  // TTL comfortably larger than the record's age: still served.
  ServiceConfig Wide = snapConfig(Dir);
  Wide.SnapshotTtlSec = 1000000;
  CompileService S(Wide);
  FnHandle H = compileCell(S, &Cell);
  EXPECT_TRUE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(2), 15);
  EXPECT_EQ(S.snapshot()->stats().Expired, 0u);
}

TEST(Snapshot, TtlAgeOutDuringProcessCountsExpiredAndRecompiles) {
  static int Cell = 91;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    (void)compileCell(Seed, &Cell);
  }
  // Fresh at open under a 1-second TTL, expired by probe time: findRecord
  // re-checks per probe so long-lived processes do not serve stale records
  // forever.
  ServiceConfig Cfg = snapConfig(Dir);
  Cfg.SnapshotTtlSec = 1;
  CompileService S(Cfg);
  EXPECT_EQ(S.snapshot()->recordCount(), 1u);
  ::sleep(2);
  FnHandle H = compileCell(S, &Cell);
  EXPECT_FALSE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(9), 100);
  // ≥: tier-0 promotion may probe the same key more than once.
  EXPECT_GE(S.snapshot()->stats().Expired, 1u);
  EXPECT_EQ(S.snapshot()->stats().Hits, 0u);
}

TEST(Snapshot, TtlCompactionDropsExpiredRecords) {
  static int Cell = 55;
  TempDir Dir;
  {
    CompileService Seed(snapConfig(Dir));
    (void)compileCell(Seed, &Cell);
    CompileOptions Prof; // A second key, so a second record.
    Prof.Profile = true;
    (void)compileCell(Seed, &Cell, Prof);
    EXPECT_EQ(Seed.snapshot()->stats().Saves, 2u);
  }
  off_t Full = fileSize(Dir.file());
  ASSERT_GT(Full, 16);
  backdateRecords(Dir.file(),
                  static_cast<std::uint32_t>(::time(nullptr)) - 100000);

  // Expired records are dead bytes: with a 1-byte compaction threshold the
  // opener rewrites the live set — which is empty — down to the header.
  ServiceConfig Cfg = snapConfig(Dir);
  Cfg.SnapshotTtlSec = 3600;
  Cfg.SnapshotCompactBytes = 1;
  CompileService S(Cfg);
  ASSERT_NE(S.snapshot(), nullptr);
  EXPECT_EQ(S.snapshot()->stats().Compactions, 1u);
  EXPECT_EQ(S.snapshot()->recordCount(), 0u);
  EXPECT_EQ(fileSize(Dir.file()), 16);
  // And the working set re-seeds cleanly.
  FnHandle H = compileCell(S, &Cell);
  EXPECT_FALSE(H->fromSnapshot());
  EXPECT_EQ(H->as<int(int)>()(1), 56);
  EXPECT_EQ(S.snapshot()->stats().Saves, 1u);
}
