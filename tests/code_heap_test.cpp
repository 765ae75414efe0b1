//===- tests/code_heap_test.cpp - The one code heap -----------------------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Every compiled or loaded function lives in a block of the process-wide
// CodeHeap. These tests pin what that buys and what it must keep:
//
//   * mappings stay O(heap chunks) however many functions a process makes;
//   * no mapping is ever writable and executable at once, on any back end,
//     for snapshot loads, or across a tier promotion;
//   * a block outlives its cache entry for as long as a handle holds its
//     function (the grace period), and is reused once the handle drops;
//   * a freed block holds only traps, and its whole pages go back to the
//     kernel;
//   * randomized placement (§4.4) still spreads entries across the
//     i-cache, and draws from its own generator, not std::rand().
//
// Each gtest runs in its own process under ctest, so the /proc/self/maps
// checks see only their own test's mappings. CI also runs the concurrent
// test under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "apps/Power.h"
#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "support/CodeBuffer.h"
#include "tier/Tier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/mman.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;

namespace {

/// `return x * K + 1`: a distinct small spec per \p K.
FnHandle compileAffine(CompileService &S, int K,
                       BackendKind Backend = BackendKind::VCode) {
  Context C;
  VSpec X = C.paramInt(0);
  CompileOptions O;
  O.Backend = Backend;
  return S.getOrCompile(C, C.ret(Expr(X) * C.rcInt(K) + C.intConst(1)),
                        EvalType::Int, O);
}

int affine(int X, int K) {
  return static_cast<int>(static_cast<unsigned>(X) * static_cast<unsigned>(K) +
                          1u);
}

std::vector<std::string> mapsLines() {
  std::ifstream In("/proc/self/maps");
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

/// The permission field ("r-xp", "rw-s", ...) of one maps line.
std::string perms(const std::string &Line) {
  std::size_t Sp = Line.find(' ');
  return Sp == std::string::npos ? std::string() : Line.substr(Sp + 1, 4);
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/tickc_heap_XXXXXX";
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
};

const std::uint8_t Ret42[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};

} // namespace

TEST(CodeHeap, InstallCopiesIntoAnAlignedExecutableBlock) {
  CodeBlock B = CodeHeap::global().install(Ret42, sizeof(Ret42),
                                           CodePlacement::Sequential);
  ASSERT_TRUE(B);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.exec()) % CodeHeap::BlockAlign,
            0u);
  EXPECT_NE(B.code(), B.exec()) << "install must go through a separate view";
  EXPECT_EQ(B.size(), sizeof(Ret42));
  EXPECT_EQ(reinterpret_cast<int (*)()>(B.exec())(), 42);
  EXPECT_GE(CodeHeap::global().stats().LiveBytes, CodeHeap::BlockAlign);
}

TEST(CodeHeap, FreedBlockHoldsOnlyTraps) {
  // A dead function's bytes do not stay mapped executable: the heap fills
  // the block with int3 before any other install can take it.
  std::vector<std::uint8_t> Code(200, 0x90);
  Code.back() = 0xC3;
  const std::uint8_t *X;
  {
    CodeBlock B = CodeHeap::global().install(Code.data(), Code.size(),
                                             CodePlacement::Sequential);
    X = B.exec();
  }
  // Chunks are never unmapped, so the exec view stays readable.
  for (std::size_t I = 0; I < 256; ++I)
    ASSERT_EQ(X[I], 0xCC) << I;
}

TEST(CodeHeap, FreedBlocksWholePagesGoBackToTheKernel) {
  // Retention is bounded by address space, not memory: a freed block keeps
  // its range for its class, but its whole pages are released.
  const std::size_t Page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<std::uint8_t> Code(16 * Page + 100, 0x90);
  auto Resident = [&](std::uintptr_t Lo, std::uintptr_t Hi) {
    std::vector<unsigned char> V((Hi - Lo) / Page);
    EXPECT_EQ(::mincore(reinterpret_cast<void *>(Lo), Hi - Lo, V.data()), 0);
    unsigned N = 0;
    for (unsigned char C : V)
      N += C & 1;
    return N;
  };
  std::uintptr_t Lo, Hi;
  const std::uint8_t *X;
  {
    CodeBlock B = CodeHeap::global().install(Code.data(), Code.size(),
                                             CodePlacement::Sequential);
    X = B.exec();
    std::uintptr_t P = reinterpret_cast<std::uintptr_t>(X);
    Lo = (P + Page - 1) & ~(Page - 1);
    Hi = (P + Code.size()) & ~(Page - 1);
    ASSERT_EQ(Resident(Lo, Hi), (Hi - Lo) / Page);
  }
  EXPECT_EQ(Resident(Lo, Hi), 0u);
  // The partial page in front of the first whole one is shared with other
  // blocks and stays mapped: it holds traps.
  for (const std::uint8_t *P = X; P < reinterpret_cast<const std::uint8_t *>(Lo);
       ++P)
    ASSERT_EQ(*P, 0xCC);
}

TEST(CodeHeap, BlockClassesRoundUpByAtMostAQuarter) {
  // The block an install takes, read off the heap's live-byte count.
  std::vector<std::uint8_t> Bytes(std::size_t(1) << 22, 0xC3);
  auto BlockBytes = [&](std::size_t Len) {
    std::uint64_t Before = CodeHeap::global().stats().LiveBytes;
    CodeBlock B = CodeHeap::global().install(Bytes.data(), Len,
                                             CodePlacement::Sequential);
    return CodeHeap::global().stats().LiveBytes - Before;
  };
  EXPECT_EQ(BlockBytes(1), 64u);
  EXPECT_EQ(BlockBytes(64), 64u);
  EXPECT_EQ(BlockBytes(65), 128u);
  EXPECT_EQ(BlockBytes(4096), 4096u);
  for (std::size_t Len = 1; Len <= Bytes.size(); Len = Len * 3 / 2 + 7) {
    std::uint64_t B = BlockBytes(Len);
    EXPECT_GE(B, Len);
    EXPECT_EQ(B % CodeHeap::BlockAlign, 0u);
    EXPECT_LE(B, std::max<std::size_t>(64, Len + Len / 4 + 64)) << Len;
  }
}

TEST(CodeHeap, RandomizedPlacementStaysAligned) {
  for (int I = 0; I < 16; ++I) {
    CodeBlock B = CodeHeap::global().install(Ret42, sizeof(Ret42),
                                             CodePlacement::Randomized);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.exec()) % 16, 0u);
    EXPECT_EQ(reinterpret_cast<int (*)()>(B.exec())(), 42);
  }
}

TEST(CodeHeap, RandomizedPlacementVariesEntryModuloICache) {
  // Sequential installs of small functions sit 64 bytes apart, so their
  // entries cover a narrow band of the i-cache; randomized ones spread over
  // all of it.
  const std::size_t ICache = hostICacheSize();
  Context C;
  VSpec X = C.paramInt(0);
  CompileOptions O;
  O.Placement = CodePlacement::Randomized;
  std::vector<CompiledFn> Live;
  std::set<std::size_t> Offsets, Eighths;
  for (int I = 0; I < 64; ++I) {
    Live.push_back(compileFn(C, C.ret(Expr(X) + C.intConst(I)),
                             EvalType::Int, O));
    ASSERT_EQ(Live.back().as<int(int)>()(1), 1 + I);
    auto E = reinterpret_cast<std::uintptr_t>(Live.back().entry());
    EXPECT_EQ(E % 16, 0u);
    Offsets.insert(E % ICache);
    Eighths.insert(E % ICache * 8 / ICache);
  }
  EXPECT_GE(Offsets.size(), 48u);
  EXPECT_GE(Eighths.size(), 5u);
}

TEST(CodeHeap, CompileLeavesTheCallersRandSequenceAlone) {
  std::srand(1);
  int Want = std::rand();
  std::srand(1);
  Context C;
  CompileOptions O;
  O.Placement = CodePlacement::Randomized;
  CompiledFn F = compileFn(C, C.ret(C.intConst(5)), EvalType::Int, O);
  ASSERT_EQ(F.as<int()>()(), 5);
  EXPECT_EQ(std::rand(), Want);
}

TEST(CodeHeap, HeldHandleOutlivesEvictionAndChurn) {
  // A one-shard cache with room for a few functions: the held function is
  // evicted almost at once, then >= 1000 compiles cycle blocks through the
  // freelists. Its block stays its own for as long as the handle lives.
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 512;
  CompileService S(Cfg);
  FnHandle Held = compileAffine(S, 7, BackendKind::ICode);
  ASSERT_TRUE(Held && Held->valid());
  CodeHeapStats Before = CodeHeap::global().stats();
  for (int K = 1000; K < 2100; ++K) {
    FnHandle F = compileAffine(S, K);
    ASSERT_EQ(F->as<int(int)>()(3), affine(3, K));
    if (K % 100 == 0) {
      ASSERT_EQ(Held->as<int(int)>()(3), affine(3, 7));
    }
  }
  CodeHeapStats After = CodeHeap::global().stats();
  EXPECT_GT(S.cache().stats().Evictions, 1000u);
  EXPECT_GT(After.Reused - Before.Reused, 900u) << "churn never reused";
  for (int X = -5; X < 5; ++X)
    EXPECT_EQ(Held->as<int(int)>()(X), affine(X, 7));
}

TEST(CodeHeap, DroppedHandlesBlockIsReused) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 64;
  CompileService S(Cfg);
  FnHandle Held = compileAffine(S, 7);
  void *Entry = Held->entry();
  (void)compileAffine(S, 8); // Evicts Held's cache entry.
  ASSERT_GT(S.cache().stats().Evictions, 0u);
  ASSERT_EQ(Held->as<int(int)>()(2), affine(2, 7));

  CodeHeapStats Before = CodeHeap::global().stats();
  Held.reset(); // The last holder: the function dies, its block is freed.
  CodeHeapStats Freed = CodeHeap::global().stats();
  EXPECT_EQ(Freed.Freed, Before.Freed + 1);

  // The same spec again needs a block of the same class and gets the one
  // just freed (freelists are LIFO).
  FnHandle Again = compileAffine(S, 7);
  EXPECT_EQ(CodeHeap::global().stats().Reused, Freed.Reused + 1);
  EXPECT_EQ(Again->entry(), Entry);
  EXPECT_EQ(Again->as<int(int)>()(2), affine(2, 7));
}

TEST(CodeHeap, EightThreadsInstallAndFreeConcurrently) {
  // Compiles through one small-cache service (evictions free blocks on
  // whichever thread drops the last handle) interleaved with raw installs
  // of assorted sizes, from 8 threads at once.
  ServiceConfig Cfg;
  Cfg.MaxCodeBytes = 4096;
  CompileService S(Cfg);
  constexpr int NumThreads = 8, PerThread = 150;
  std::vector<std::thread> Threads;
  std::vector<int> Failures(NumThreads, 0);
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      std::vector<CodeBlock> Mine;
      for (int I = 0; I < PerThread; ++I) {
        int K = T * PerThread + I;
        FnHandle F = compileAffine(S, K);
        Failures[T] += F->as<int(int)>()(5) != affine(5, K);
        std::vector<std::uint8_t> Bytes(64 + (K * 37) % 700, 0x90);
        Bytes.insert(Bytes.end(), std::begin(Ret42), std::end(Ret42));
        Mine.push_back(CodeHeap::global().install(
            Bytes.data(), Bytes.size(),
            I % 2 ? CodePlacement::Randomized : CodePlacement::Sequential));
        Failures[T] += reinterpret_cast<int (*)()>(Mine.back().exec())() != 42;
        if (Mine.size() > 8)
          Mine.erase(Mine.begin());
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;
}

TEST(CodeHeap, MappingsStayBoundedOver100kCompiles) {
  // A default-config service holds every one of these functions (they fit
  // the 32 MiB cache). One mapping per function would exhaust
  // vm.max_map_count (65530 by default); the heap needs a few chunks.
  CompileService S;
  std::size_t LinesBefore = mapsLines().size();
  CodeHeapStats Before = CodeHeap::global().stats();
  constexpr int N = 100000;
  for (int K = 0; K < N; ++K) {
    FnHandle F = compileAffine(S, K);
    if (K % 9973 == 0) {
      ASSERT_EQ(F->as<int(int)>()(3), affine(3, K));
    }
  }
  EXPECT_EQ(S.cache().stats().Evictions, 0u);
  EXPECT_GE(S.cache().stats().Insertions, static_cast<std::uint64_t>(N));
  CodeHeapStats After = CodeHeap::global().stats();
  EXPECT_LE(After.Chunks - Before.Chunks, 8u);
  // Code mappings are exactly two views per chunk. The rest of the process
  // (malloc arenas, a sanitizer runtime's allocator) may add some mappings
  // as memory grows, but nowhere near one per function.
  std::vector<std::string> Lines = mapsLines();
  std::size_t CodeMaps = 0;
  for (const std::string &L : Lines)
    CodeMaps += L.find("memfd:tickc-code") != std::string::npos;
  EXPECT_EQ(CodeMaps, 2 * After.Chunks);
  EXPECT_LE(Lines.size(), LinesBefore + 512)
      << LinesBefore << " maps lines before, " << Lines.size() << " after";
}

TEST(CodeHeap, NoMappingIsWritableAndExecutable) {
  TempDir Dir;
  ServiceConfig SnapCfg;
  SnapCfg.SnapshotDir = Dir.Path;
  std::vector<FnHandle> Live;
  {
    // Both back ends; each compile also saves a snapshot record.
    CompileService Writer(SnapCfg);
    for (BackendKind B : {BackendKind::VCode, BackendKind::ICode})
      Live.push_back(compileAffine(Writer, 11, B));
  }
  // A second service on the same directory loads them instead.
  CompileService Reader(SnapCfg);
  for (BackendKind B : {BackendKind::VCode, BackendKind::ICode}) {
    Live.push_back(compileAffine(Reader, 11, B));
    EXPECT_TRUE(Live.back()->fromSnapshot());
  }
  for (const FnHandle &F : Live)
    EXPECT_EQ(F->as<int(int)>()(4), affine(4, 11));

  // A tier promotion: baseline, then the ICODE swap.
  CompileService TierSvc;
  tier::TierConfig TC;
  TC.PromoteThreshold = 16;
  tier::TierManager TM(TC);
  apps::PowerApp P(13);
  tier::TieredFnHandle TF = P.specializeTiered(TierSvc, &TM);
  for (int I = 0; I < 4096 && !TF->promoted(); ++I)
    ASSERT_EQ(TF->call<int(int)>(2), 8192);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(2), 8192);

  for (const std::string &Line : mapsLines()) {
    std::string P = perms(Line);
    EXPECT_FALSE(P.size() == 4 && P[1] == 'w' && P[2] == 'x')
        << "writable+executable mapping: " << Line;
  }
}
