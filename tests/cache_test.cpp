//===- tests/cache_test.cpp - Code cache tests ----------------------------===//
//
// Covers the memoizing instantiation path: structural key derivation,
// hit/miss identity, LRU eviction under a byte budget, eviction safety for
// live handles, and a multi-threaded getOrCompile stress (run under
// -fsanitize=thread in CI). Code-heap blocks behind the cached functions
// are covered by code_heap_test.
//
//===----------------------------------------------------------------------===//

#include "apps/Hash.h"
#include "apps/Marshal.h"
#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/RuntimeSymbols.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;

namespace {

SpecKey keyOf(int Mul, int Add,
              const CompileOptions &Opts = CompileOptions()) {
  Context C;
  VSpec X = C.paramInt(0);
  Stmt Body = C.ret(Expr(X) * C.rcInt(Mul) + C.rcInt(Add));
  return buildSpecKey(C, Body, EvalType::Int, Opts);
}

// --- SpecKey ---------------------------------------------------------------

TEST(SpecKey, EqualAcrossIndependentlyBuiltContexts) {
  SpecKey A = keyOf(3, 7);
  SpecKey B = keyOf(3, 7);
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(A.Cacheable);
}

TEST(SpecKey, RuntimeConstantsChangeTheKey) {
  EXPECT_FALSE(keyOf(3, 7) == keyOf(3, 8));
  EXPECT_FALSE(keyOf(3, 7) == keyOf(4, 7));
}

TEST(SpecKey, CompileOptionsChangeTheKey) {
  CompileOptions VC;
  CompileOptions IC;
  IC.Backend = BackendKind::ICode;
  EXPECT_FALSE(keyOf(3, 7, VC) == keyOf(3, 7, IC));

  CompileOptions GC = IC;
  GC.RegAlloc = icode::RegAllocKind::GraphColor;
  EXPECT_FALSE(keyOf(3, 7, IC) == keyOf(3, 7, GC));
}

TEST(SpecKey, BackendsOccupyDistinctSlots) {
  // BackendKind is the first serialized option byte, so the back ends can
  // never share a cache entry. Pairwise over the exhaustive backend set,
  // keys must differ while each remains self-equal.
  const BackendKind All[] = {BackendKind::VCode, BackendKind::ICode};
  for (BackendKind A : All) {
    CompileOptions OA;
    OA.Backend = A;
    EXPECT_TRUE(keyOf(3, 7, OA) == keyOf(3, 7, OA));
    for (BackendKind B : All) {
      if (A == B)
        continue;
      CompileOptions OB;
      OB.Backend = B;
      EXPECT_FALSE(keyOf(3, 7, OA) == keyOf(3, 7, OB))
          << static_cast<int>(A) << " vs " << static_cast<int>(B);
    }
  }
}

TEST(CompileService, ThreeBackendsThreeEntries) {
  // VCODE, ICODE and the tier baseline (profiled VCODE, whose prologue
  // counts calls) are three distinct entries.
  CompileService S;
  apps::PowerApp P(13);
  CompileOptions VC, IC, Base;
  VC.Backend = BackendKind::VCode;
  IC.Backend = BackendKind::ICode;
  Base.Backend = BackendKind::VCode;
  Base.Profile = true;
  FnHandle A = P.specializeCached(S, VC);
  FnHandle B = P.specializeCached(S, IC);
  FnHandle C = P.specializeCached(S, Base);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(B.get(), C.get());
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
  EXPECT_EQ(A->as<int(int)>()(3), 1594323);
  EXPECT_EQ(B->as<int(int)>()(3), 1594323);
  EXPECT_EQ(C->as<int(int)>()(3), 1594323);
  // Re-requesting each hits its own slot — no cross-backend aliasing.
  EXPECT_EQ(P.specializeCached(S, Base).get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
}

TEST(SpecKey, CapturedAddressSpreadsTheContainerHash) {
  // Specs differing only in a captured address share their bytes (and the
  // bytes hash snapshot records store), but the hash containers and cache
  // shards use covers Refs: they must not pile onto one chain.
  static int Cells[16];
  std::vector<SpecKey> Keys;
  for (int &Cell : Cells) {
    Context C;
    VSpec X = C.paramInt(0);
    Keys.push_back(buildSpecKey(C, C.ret(Expr(X) + C.fvInt(&Cell)),
                                EvalType::Int, CompileOptions()));
  }
  std::unordered_set<std::size_t> Hashes;
  for (const SpecKey &K : Keys) {
    EXPECT_EQ(K.Bytes, Keys[0].Bytes);
    EXPECT_EQ(K.BytesHash, Keys[0].BytesHash);
    Hashes.insert(SpecKeyHash()(K));
  }
  EXPECT_EQ(Hashes.size(), Keys.size());
}

TEST(SpecKey, RtEvalOverMemoryIsUncacheable) {
  static int Cell = 41;
  Context C;
  Stmt Body = C.ret(C.rtEval(C.fvInt(&Cell)) + C.intConst(1));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_FALSE(K.Cacheable);
}

TEST(SpecKey, RtEvalOverPureConstantsIsCacheable) {
  Context C;
  Stmt Body = C.ret(C.rtEval(C.intConst(6) * C.intConst(7)));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_TRUE(K.Cacheable);
}

// --- Hit/miss identity ------------------------------------------------------

TEST(CompileService, CapturedBuffersKeepDistinctSymbolNames) {
  // The runtime symbol is named after the identity hash, which covers the
  // captured addresses: perf frames of two specializations over different
  // buffers must not share a name although their key bytes are equal.
  static int CellA = 1, CellB = 2;
  CompileService S;
  std::string Names[2];
  const int *Cells[2] = {&CellA, &CellB};
  FnHandle Fns[2];
  for (int I = 0; I < 2; ++I) {
    Context C;
    VSpec X = C.paramInt(0);
    Fns[I] = S.getOrCompile(C, C.ret(Expr(X) + C.fvInt(Cells[I])),
                            EvalType::Int);
    char Name[obs::RuntimeSymbolTable::NameBytes];
    std::uintptr_t Start = 0;
    std::size_t Size = 0;
    ASSERT_TRUE(obs::RuntimeSymbolTable::global().resolve(
        reinterpret_cast<std::uintptr_t>(Fns[I]->entry()), Name, &Start,
        &Size));
    Names[I] = Name;
    EXPECT_EQ(Names[I].rfind("spec-", 0), 0u) << Names[I];
  }
  EXPECT_NE(Names[0], Names[1]);
  EXPECT_EQ(Fns[0]->as<int(int)>()(1), 2);
  EXPECT_EQ(Fns[1]->as<int(int)>()(1), 3);
}

TEST(CompileService, EnvKnobsReachServiceConfig) {
  ASSERT_EQ(setenv("TICKC_SNAPSHOT_BUDGET", "12345", 1), 0);
  ASSERT_EQ(setenv("TICKC_CACHE_BYTES", "4096", 1), 0);
  ServiceConfig C = ServiceConfig::fromEnv();
  EXPECT_EQ(C.SnapshotBudgetBytes, 12345u);
  EXPECT_EQ(C.MaxCodeBytes, 4096u);
  unsetenv("TICKC_SNAPSHOT_BUDGET");
  unsetenv("TICKC_CACHE_BYTES");
  ServiceConfig D = ServiceConfig::fromEnv();
  EXPECT_EQ(D.SnapshotBudgetBytes, ServiceConfig().SnapshotBudgetBytes);
  EXPECT_EQ(D.MaxCodeBytes, ServiceConfig().MaxCodeBytes);
}

TEST(CompileService, SameSpecSameConstantsHitsIdenticalEntry) {
  CompileService S;
  apps::QueryApp App(64);
  FnHandle A = App.specializeCached(App.benchmarkQuery(), S);
  FnHandle B = App.specializeCached(App.benchmarkQuery(), S);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(A->entry(), B->entry());
  CacheStats St = S.cache().stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Insertions, 1u);
  EXPECT_EQ(App.countCompiled(A->as<int(const apps::Record *)>()),
            App.countStaticO2(App.benchmarkQuery()));
}

TEST(CompileService, PrebuiltKeyLookupMatchesGetOrCompile) {
  CompileService S;
  apps::PowerApp P(13);
  SpecKey K = P.cacheKey();
  EXPECT_FALSE(S.lookup(K)); // Nothing compiled yet.
  FnHandle A = P.specializeCached(S);
  FnHandle B = S.lookup(K); // Steady-state path: probe with the kept key.
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(B->as<int(int)>()(2), 8192);

  // The key matches what getOrCompile derived internally.
  apps::QueryApp Q(32);
  SpecKey QK = Q.cacheKey(Q.benchmarkQuery());
  EXPECT_FALSE(S.lookup(QK));
  FnHandle QA = Q.specializeCached(Q.benchmarkQuery(), S);
  EXPECT_EQ(S.lookup(QK).get(), QA.get());
}

TEST(CompileService, DifferentRuntimeConstantsGetDistinctEntries) {
  CompileService S;
  apps::PowerApp P3(3), P5(5);
  FnHandle A = P3.specializeCached(S);
  FnHandle B = P5.specializeCached(S);
  ASSERT_TRUE(A && B);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A->as<int(int)>()(2), 8);
  EXPECT_EQ(B->as<int(int)>()(2), 32);
  EXPECT_EQ(S.cache().stats().Insertions, 2u);
}

TEST(CompileService, BackendAndRegAllocDistinguishEntries) {
  CompileService S;
  apps::PowerApp P(13);
  CompileOptions VC;
  CompileOptions LS;
  LS.Backend = BackendKind::ICode;
  CompileOptions GC = LS;
  GC.RegAlloc = icode::RegAllocKind::GraphColor;
  FnHandle A = P.specializeCached(S, VC);
  FnHandle B = P.specializeCached(S, LS);
  FnHandle C = P.specializeCached(S, GC);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(B.get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
  EXPECT_EQ(A->as<int(int)>()(3), 1594323);
  EXPECT_EQ(B->as<int(int)>()(3), 1594323);
  EXPECT_EQ(C->as<int(int)>()(3), 1594323);
}

TEST(CompileService, DistinctHashTablesDoNotCollide) {
  CompileService S;
  apps::HashApp T1(256, 100, 1), T2(256, 100, 2);
  FnHandle A = T1.specializeCached(S);
  FnHandle B = T2.specializeCached(S);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A->as<int(int)>()(T1.presentKey()), T1.presentKey() * 2 + 1);
  EXPECT_EQ(B->as<int(int)>()(T2.presentKey()), T2.presentKey() * 2 + 1);
}

TEST(CompileService, MarshalRoundTripThroughCache) {
  CompileService S;
  apps::MarshalApp M("iiiii");
  FnHandle Mar = M.buildMarshalerCached(S);
  auto Sum5 = +[](int A, int B, int C, int D, int E) {
    return A + B * 10 + C * 100 + D * 1000 + E * 10000;
  };
  FnHandle Unm =
      M.buildUnmarshalerCached(reinterpret_cast<const void *>(Sum5), S);
  std::uint8_t Buf[20];
  Mar->as<void(int, int, int, int, int, std::uint8_t *)>()(1, 2, 3, 4, 5,
                                                           Buf);
  EXPECT_EQ(Unm->as<int(const std::uint8_t *)>()(Buf), 54321);
  // Same format + same target → both hits.
  FnHandle Mar2 = M.buildMarshalerCached(S);
  FnHandle Unm2 =
      M.buildUnmarshalerCached(reinterpret_cast<const void *>(Sum5), S);
  EXPECT_EQ(Mar.get(), Mar2.get());
  EXPECT_EQ(Unm.get(), Unm2.get());
}

TEST(CompileService, UncacheableSpecsRecompileAndTrackMemory) {
  CompileService S;
  static int Cell;
  Cell = 10;
  auto Build = [&] {
    Context C;
    Stmt Body = C.ret(C.rtEval(C.fvInt(&Cell)) + C.intConst(1));
    return S.getOrCompile(C, Body, EvalType::Int);
  };
  FnHandle A = Build();
  EXPECT_EQ(A->as<int()>()(), 11);
  Cell = 20; // The $-captured immediate must be re-read, not cached.
  FnHandle B = Build();
  EXPECT_EQ(B->as<int()>()(), 21);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(S.cache().stats().Insertions, 0u);
}

// --- Eviction ----------------------------------------------------------------

TEST(CompileService, LruEvictionUnderByteBudget) {
  ServiceConfig Cfg;
  Cfg.Shards = 1; // Deterministic LRU order.
  Cfg.MaxCodeBytes = 256;
  CompileService S(Cfg);

  apps::PowerApp P2(2);
  FnHandle First = P2.specializeCached(S);
  std::size_t OneFn = S.cache().stats().CodeBytes;
  ASSERT_GT(OneFn, 0u);

  // Insert enough distinct specs to overflow 256 bytes many times over.
  for (unsigned E = 3; E < 40; ++E) {
    apps::PowerApp P(E);
    FnHandle H = P.specializeCached(S);
    EXPECT_EQ(H->as<int(int)>()(1), 1);
  }
  CacheStats St = S.cache().stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_LE(St.CodeBytes, 256u + OneFn); // Budget, modulo the newest entry.

  // The cold-start entry was least recently used: re-requesting it misses
  // and recompiles into a fresh entry.
  FnHandle Again = P2.specializeCached(S);
  EXPECT_NE(Again.get(), First.get());
  // The evicted function is still alive and executable through our handle.
  EXPECT_EQ(First->as<int(int)>()(5), 25);
  EXPECT_EQ(Again->as<int(int)>()(5), 25);
}

TEST(CompileService, EvictedEntriesSurviveWhileHandleHeld) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 64;
  CompileService S(Cfg);
  apps::QueryApp App(128);
  FnHandle Live = App.specializeCached(App.benchmarkQuery(), S);
  int Expected = App.countStaticO2(App.benchmarkQuery());
  for (unsigned E = 2; E < 34; ++E) {
    apps::PowerApp P(E);
    (void)P.specializeCached(S);
    // The held handle stays valid across every eviction wave.
    EXPECT_EQ(App.countCompiled(Live->as<int(const apps::Record *)>()),
              Expected);
  }
  EXPECT_GT(S.cache().stats().Evictions, 0u);
}

// --- Concurrency -------------------------------------------------------------

TEST(CompileService, ConcurrentGetOrCompileStress) {
  CompileService S;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iters = 200;
  const unsigned Exponents[4] = {3, 7, 10, 13};
  const int Expected[4] = {8, 128, 1024, 8192}; // 2^e.

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < Iters; ++I) {
        unsigned Which = (T + I) % 4;
        apps::PowerApp P(Exponents[Which]);
        FnHandle H = P.specializeCached(S);
        if (!H || H->as<int(int)>()(2) != Expected[Which])
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  CacheStats St = S.cache().stats();
  // 4 distinct specs; racing threads may double-compile but the cache keeps
  // one entry per key.
  EXPECT_EQ(St.Entries, 4u);
  EXPECT_GE(St.Hits, NumThreads * Iters - 4u * NumThreads);
}

TEST(CompileService, SingleFlightCollapsesConcurrentColdMisses) {
  // All threads rush one cold key; exactly one compile may happen — the
  // rest must block on the leader's in-flight result.
  obs::Counter &Compiles =
      obs::MetricsRegistry::global().counter(obs::names::CompileCountVCode);
  for (unsigned Round = 0; Round < 20; ++Round) {
    CompileService S;
    apps::PowerApp P(13);
    constexpr unsigned NumThreads = 8;
    std::uint64_t Before = Compiles.value();

    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::atomic<unsigned> Failures{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T) {
      Threads.emplace_back([&] {
        Ready.fetch_add(1);
        while (!Go.load(std::memory_order_acquire))
          ;
        FnHandle H = P.specializeCached(S);
        if (!H || H->as<int(int)>()(2) != 8192)
          Failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
    while (Ready.load() != NumThreads)
      ;
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Failures.load(), 0u);
    EXPECT_EQ(S.cache().stats().Insertions, 1u) << "round " << Round;
    EXPECT_EQ(Compiles.value() - Before, 1u) << "round " << Round;
  }
}

TEST(CompileService, ConcurrentEvictionChurnIsSafe) {
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.MaxCodeBytes = 512; // Constant eviction pressure.
  CompileService S(Cfg);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 100; ++I) {
        unsigned E = 2 + (T * 31 + I) % 24;
        apps::PowerApp P(E);
        FnHandle H = P.specializeCached(S);
        // Execute while other threads evict: the handle must pin the code.
        if (H->as<int(int)>()(1) != 1)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(S.cache().stats().Evictions, 0u);
}

} // namespace
