//===- tests/runtime_obs_test.cpp - Runtime observability tests -----------===//
//
// Covers the execution-side observability stack: the runtime symbol table
// (register/resolve/retire, perf-map export format), the SIGPROF sampling
// profiler (attribution of samples to a known-hot specialization, folded
// stacks), the crash-time flight recorder
// (ring semantics and the fatal-signal dump, via a death test faulting
// inside a deliberately corrupted registered region, with and without
// trace spans in the shared event ring), the shared metrics
// JSON writer, and symbol-table churn under multi-threaded tier promotion
// and cache eviction (run under -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "apps/Hash.h"
#include "apps/Power.h"
#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Report.h"
#include "observability/RuntimeSymbols.h"
#include "observability/Sampler.h"
#include "support/Timing.h"
#include "tier/Tier.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::obs;

namespace {

/// Compiles `f(n) = sum_{i<n} i*i` with the bound as a runtime parameter,
/// so the loop cannot unroll and the generated code runs a real hot loop.
CompiledFn compileHotLoop(Context &C, const char *Name,
                          BackendKind BK = BackendKind::VCode) {
  VSpec N = C.paramInt(0);
  VSpec I = C.localInt(), Acc = C.localInt();
  CompileOptions O;
  O.Backend = BK;
  O.Profile = true;
  O.ProfileName = Name;
  return compileFn(C,
                   C.block({
                       C.assign(Acc, C.intConst(0)),
                       C.forStmt(I, C.intConst(0), CmpKind::LtS, Expr(N),
                                 C.intConst(1),
                                 C.assign(Acc, Expr(Acc) + Expr(I) * Expr(I))),
                       C.ret(Acc),
                   }),
                   EvalType::Int, O);
}

// --- RuntimeSymbolTable ------------------------------------------------------

TEST(RuntimeSymbols, RegisterResolveRetire) {
  RuntimeSymbolTable &T = RuntimeSymbolTable::global();
  std::size_t Before = T.liveCount();
  std::uint64_t Epoch = T.registrationEpoch();

  alignas(16) static char Region[128];
  ProfileEntry Prof;
  Prof.Invocations.store(7);
  SymbolHandle H =
      T.registerRegion(Region, sizeof(Region), "unit_region", &Prof);
  ASSERT_TRUE(H.valid());
  EXPECT_EQ(T.liveCount(), Before + 1);
  EXPECT_GT(T.registrationEpoch(), Epoch);

  char Name[RuntimeSymbolTable::NameBytes];
  std::uintptr_t Start = 0;
  std::size_t Size = 0;
  // Interior PC resolves; one-past-the-end and outside do not.
  EXPECT_TRUE(T.resolve(reinterpret_cast<std::uintptr_t>(Region) + 64, Name,
                        &Start, &Size));
  EXPECT_STREQ(Name, "unit_region");
  EXPECT_EQ(Start, reinterpret_cast<std::uintptr_t>(Region));
  EXPECT_EQ(Size, sizeof(Region));
  EXPECT_FALSE(T.resolve(reinterpret_cast<std::uintptr_t>(Region) +
                             sizeof(Region),
                         Name, &Start, &Size));

  // Signal-path sampling counts into the slot; the live listing carries
  // that count next to the profile entry's.
  EXPECT_GE(T.sampleHit(reinterpret_cast<std::uintptr_t>(Region) + 4), 0);
  bool Listed = false;
  for (const SymbolInfo &Sym : T.liveSymbols())
    if (Sym.Start == reinterpret_cast<std::uintptr_t>(Region)) {
      Listed = true;
      EXPECT_EQ(Sym.Name, "unit_region");
      EXPECT_EQ(Sym.Samples, 1u);
      EXPECT_EQ(Sym.Invocations, 7u);
    }
  EXPECT_TRUE(Listed);

  H.reset();
  EXPECT_FALSE(H.valid());
  EXPECT_EQ(T.liveCount(), Before);
  EXPECT_FALSE(T.resolve(reinterpret_cast<std::uintptr_t>(Region) + 64, Name,
                         &Start, &Size));
  H.reset(); // Idempotent.
}

TEST(RuntimeSymbols, EveryCompiledRegionIsRegisteredAndNamed) {
  RuntimeSymbolTable &T = RuntimeSymbolTable::global();
  Context C;
  CompiledFn F = compileHotLoop(C, "named_loop");
  ASSERT_NE(F.entry(), nullptr);
  EXPECT_EQ(F.as<int(int)>()(10), 285);

  char Name[RuntimeSymbolTable::NameBytes];
  std::uintptr_t Start = 0;
  std::size_t Size = 0;
  ASSERT_TRUE(T.resolve(reinterpret_cast<std::uintptr_t>(F.entry()), Name,
                        &Start, &Size));
  EXPECT_STREQ(Name, "named_loop");
  EXPECT_EQ(Start, reinterpret_cast<std::uintptr_t>(F.entry()));
  EXPECT_GE(Size, F.stats().CodeBytes);
}

TEST(RuntimeSymbols, PerfMapCoversLiveRegionsAndRewritesOnRetire) {
  RuntimeSymbolTable &T = RuntimeSymbolTable::global();
  std::string Path = ::testing::TempDir() + "tickc_perf_map_test.map";
  T.enablePerfExport(PerfExport::Map, Path.c_str());
  EXPECT_EQ(T.perfExport(), PerfExport::Map);
  EXPECT_EQ(T.perfMapPath(), Path);

  Context C1, C2;
  CompiledFn F1 = compileHotLoop(C1, "pm_loop_one");
  CompiledFn F2 = compileHotLoop(C2, "pm_loop_two");

  // Every live region appears as a parseable "START SIZE name" line with
  // the address and size the symbol table holds.
  auto parseMap = [&] {
    std::ifstream In(Path);
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::string>> Rows;
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream LS(Line);
      std::uint64_t Start = 0, Size = 0;
      std::string Name;
      LS >> std::hex >> Start >> Size >> Name;
      EXPECT_FALSE(LS.fail()) << "unparseable perf-map line: " << Line;
      Rows.emplace_back(Start, Size, Name);
    }
    return Rows;
  };
  auto covers = [&](const void *Entry, const char *Name) {
    for (const auto &R : parseMap())
      if (std::get<0>(R) == reinterpret_cast<std::uint64_t>(Entry) &&
          std::get<1>(R) > 0 && std::get<2>(R) == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(covers(F1.entry(), "pm_loop_one"));
  EXPECT_TRUE(covers(F2.entry(), "pm_loop_two"));

  // Retiring a region rewrites the file without it — a stale line cannot
  // shadow whatever gets the address next.
  const void *Gone = F1.entry();
  F1 = CompiledFn();
  EXPECT_FALSE(covers(Gone, "pm_loop_one"));
  EXPECT_TRUE(covers(F2.entry(), "pm_loop_two"));

  T.enablePerfExport(PerfExport::Off);
  std::remove(Path.c_str());
}

TEST(RuntimeSymbols, JitdumpHeaderAndLoadRecords) {
  RuntimeSymbolTable &T = RuntimeSymbolTable::global();
  std::string Dir = ::testing::TempDir();
  T.enablePerfExport(PerfExport::Jitdump, nullptr, Dir.c_str());
  std::string Path = T.jitdumpPath();
  ASSERT_FALSE(Path.empty());
  // perf inject only picks up files named jit-<pid>.dump.
  char Expect[64];
  std::snprintf(Expect, sizeof(Expect), "jit-%d.dump", (int)getpid());
  EXPECT_NE(Path.find(Expect), std::string::npos) << Path;

  Context C;
  CompiledFn F = compileHotLoop(C, "jd_loop");
  ASSERT_NE(F.entry(), nullptr);
  T.enablePerfExport(PerfExport::Off);

  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::uint32_t Magic = 0, Version = 0;
  In.read(reinterpret_cast<char *>(&Magic), 4);
  In.read(reinterpret_cast<char *>(&Version), 4);
  EXPECT_EQ(Magic, 0x4A695444u); // "JiTD"
  EXPECT_EQ(Version, 1u);

  // The dump must contain a JIT_CODE_LOAD record for our region: the name,
  // followed by the exact code bytes at the entry.
  std::ostringstream All;
  In.seekg(0);
  All << In.rdbuf();
  std::string Bytes = All.str();
  std::string Needle = std::string("jd_loop") + '\0';
  Needle.append(reinterpret_cast<const char *>(F.entry()),
                std::min<std::size_t>(F.stats().CodeBytes, 16));
  EXPECT_NE(Bytes.find(Needle), std::string::npos);
  std::remove(Path.c_str());
}

// --- Sampler -----------------------------------------------------------------

TEST(Sampler, AttributesHotLoopSamplesToItsSymbol) {
  Sampler &S = Sampler::global();
  S.resetForTesting();

  Context C;
  CompiledFn F = compileHotLoop(C, "hot_attrib_loop");
  auto *Fn = F.as<int(int)>();
  ASSERT_EQ(Fn(100), 328350);

  ASSERT_TRUE(S.start(1997));
  EXPECT_TRUE(S.running());
  EXPECT_EQ(S.hz(), 1997u);

  // Spend ~0.4 s of CPU almost entirely inside the generated loop.
  auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(4);
  volatile int Sink = 0;
  while (S.totalSamples() < 200 && std::chrono::steady_clock::now() < Until)
    Sink = int(unsigned(Sink) + unsigned(Fn(1 << 16))); // Wraps, no UB.
  S.stop();
  EXPECT_FALSE(S.running());

  std::uint64_t Total = S.totalSamples();
  ASSERT_GE(Total, 50u) << "sampler delivered too few ticks to judge";
  // >=90% of samples must resolve to a registered specialization.
  EXPECT_GE(S.hitSamples() * 10, Total * 9)
      << "hits=" << S.hitSamples() << " misses=" << S.missSamples()
      << " total=" << Total;
  EXPECT_EQ(S.hitSamples() + S.missSamples(), Total);

  // The hot specialization dominates the table's heat ranking.
  std::vector<SymbolInfo> Hot = RuntimeSymbolTable::global().hotSymbols();
  ASSERT_FALSE(Hot.empty());
  EXPECT_EQ(Hot.front().Name, "hot_attrib_loop");
  EXPECT_GT(Hot.front().Samples, 0u);

  // Folded stacks are flamegraph-ready and lead with the hot symbol.
  std::string Folded = S.foldedStacks();
  EXPECT_EQ(Folded.compare(0, 6, "tickc;"), 0) << Folded;
  EXPECT_NE(Folded.find("tickc;hot_attrib_loop "), std::string::npos)
      << Folded;

  std::string Path = ::testing::TempDir() + "tickc_folded_test.txt";
  EXPECT_TRUE(S.writeFolded(Path.c_str()));
  std::ifstream In(Path);
  std::string OnDisk((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(OnDisk, Folded);
  std::remove(Path.c_str());
}

TEST(Sampler, StartIsIdempotentAndReArms) {
  Sampler &S = Sampler::global();
  ASSERT_TRUE(S.start(500));
  ASSERT_TRUE(S.start(997)); // Re-arm at a new rate, not an error.
  EXPECT_EQ(S.hz(), 997u);
  S.stop();
  S.stop(); // Idempotent.
  EXPECT_FALSE(S.running());
}

// --- Flight recorder ---------------------------------------------------------

TEST(Flight, RecordSnapshotAndWrap) {
  EventRing &FR = EventRing::global();
  FR.resetForTesting();

  recordEvent(EventKind::CompileBegin, 1, 0, "flt_first");
  recordEvent(EventKind::CompileEnd, 2, 3, "flt_first");
  recordEvent(EventKind::TierSwapped, 4, 5, "flt_swap");
  EXPECT_EQ(FR.eventCount(), 3u);

  std::vector<EventRing::Record> Snap = FR.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap[0].Kind, EventKind::CompileBegin);
  EXPECT_STREQ(Snap[0].Name, "flt_first");
  EXPECT_EQ(Snap[1].A, 2u);
  EXPECT_EQ(Snap[1].B, 3u);
  EXPECT_EQ(Snap[2].Kind, EventKind::TierSwapped);
  EXPECT_STREQ(Snap[2].Name, "flt_swap");

  // Overfill the ring: only the newest Capacity records survive, in order.
  for (unsigned I = 0; I < EventRing::Capacity + 40; ++I)
    recordEvent(EventKind::CacheEvict, I, 0, "flt_wrap");
  Snap = FR.snapshot();
  ASSERT_EQ(Snap.size(), (std::size_t)EventRing::Capacity);
  EXPECT_EQ(Snap.back().A, EventRing::Capacity + 39u);
  EXPECT_EQ(Snap.front().A + EventRing::Capacity - 1, Snap.back().A);

  EXPECT_STREQ(eventName(EventKind::VerifyFail), "verify.fail");
  EXPECT_STREQ(eventName(EventKind::RegionRetire), "region.retire");
}

TEST(Flight, CompilePipelineFeedsTheRing) {
  EventRing &FR = EventRing::global();
  FR.resetForTesting();
  Context C;
  CompiledFn F = compileHotLoop(C, "flt_compiled");
  ASSERT_NE(F.entry(), nullptr);

  bool SawBegin = false, SawEnd = false;
  for (const EventRing::Record &R : FR.snapshot()) {
    if (R.Kind == EventKind::CompileBegin &&
        !std::strcmp(R.Name, "flt_compiled"))
      SawBegin = true;
    if (R.Kind == EventKind::CompileEnd &&
        !std::strcmp(R.Name, "flt_compiled")) {
      SawEnd = true;
      EXPECT_EQ(R.A, F.stats().CodeBytes);
    }
  }
  EXPECT_TRUE(SawBegin);
  EXPECT_TRUE(SawEnd);

  // Destroying the function retires its region into the ring.
  F = CompiledFn();
  bool SawRetire = false;
  for (const EventRing::Record &R : FR.snapshot())
    SawRetire |= R.Kind == EventKind::RegionRetire &&
                 !std::strcmp(R.Name, "flt_compiled");
  EXPECT_TRUE(SawRetire);
}

/// Maps a page, fills it with ud2, registers it as a symbol, and jumps in —
/// the fatal-signal handler must dump the ring and name the faulting
/// specialization on stderr before the process dies of SIGILL. \p Traced
/// first records a traced compile, whose spans share the ring with the
/// instants and so must show up in the dump too.
[[noreturn]] void crashInsideCorruptedRegion(bool Traced) {
  EventRing::global().installFatalHandler();
  if (Traced) {
    traceStart(nullptr);
    Context C;
    CompiledFn F = compileHotLoop(C, "traced_before_crash");
  }
  void *P = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    _exit(97);
  std::memset(P, 0x0B, 4096); // ud2 = 0F 0B; 0B 0B also faults.
  static_cast<unsigned char *>(P)[0] = 0x0F;
  static_cast<unsigned char *>(P)[1] = 0x0B;
  if (mprotect(P, 4096, PROT_READ | PROT_EXEC) != 0)
    _exit(98);
  SymbolHandle H = RuntimeSymbolTable::global().registerRegion(
      P, 4096, "corrupted_region", nullptr);
  recordEvent(EventKind::CompileEnd, 4096, 0, "corrupted_region");
  reinterpret_cast<void (*)()>(P)();
  _exit(99); // Unreachable.
}

TEST(Flight, FatalSignalDumpNamesTheFaultingRegion) {
  EXPECT_DEATH(crashInsideCorruptedRegion(false),
               "flight recorder(.|\n)*corrupted_region");
  EXPECT_DEATH(crashInsideCorruptedRegion(true),
               "flight recorder(.|\n)* span cgf-walk tid=(.|\n)*"
               "corrupted_region");
}

// --- Metrics JSON ------------------------------------------------------------

TEST(Metrics, SnapshotJsonShape) {
  MetricsRegistry &R = MetricsRegistry::global();
  R.counter("test.json.counter").inc(7);
  R.histogram("test.json.hist").record(5);
  R.histogram("test.json.hist").record(11);

  std::string J = R.snapshotJson(2);
  // Balanced braces/brackets — the block nests inside a larger document.
  int Depth = 0;
  bool InStr = false;
  for (std::size_t I = 0; I < J.size(); ++I) {
    char Ch = J[I];
    if (Ch == '"' && (I == 0 || J[I - 1] != '\\'))
      InStr = !InStr;
    if (InStr)
      continue;
    if (Ch == '{' || Ch == '[')
      ++Depth;
    if (Ch == '}' || Ch == ']') {
      --Depth;
      EXPECT_GE(Depth, 0);
    }
  }
  EXPECT_FALSE(InStr);
  EXPECT_EQ(Depth, 0);

  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"histograms\""), std::string::npos);
  EXPECT_NE(J.find("\"test.json.counter\": 7"), std::string::npos) << J;
  EXPECT_NE(J.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(J.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(J.find("\"sum\": 16"), std::string::npos);
  EXPECT_NE(J.find("\"buckets\""), std::string::npos);
}

// --- Phase coverage drift guard ---------------------------------------------

TEST(Report, PhaseCoverageHoldsAfterRealCompiles) {
  // Serial compiles on a clean registry: every timed region runs under its
  // obs::Phase, so the drift guard must hold (concurrent suites can land
  // sampler ticks between scopes and legitimately dip below the bar). The
  // bodies are deliberately large — the guard exists to catch a lost
  // obs::Phase, not the fixed rdtsc epsilon of the scopes themselves,
  // which only shows above 5% on near-empty compiles. One warm-up compile
  // first: cold-start page faults land between scopes and skew the ratio.
  {
    Context C;
    CompileOptions O;
    O.Backend = BackendKind::ICode;
    (void)compileFn(C, C.ret(C.read(C.paramInt(0))), EvalType::Int, O);
  }
  MetricsRegistry::global().resetAll();
  for (unsigned Rep = 0; Rep < 10; ++Rep) {
    Context C;
    VSpec N = C.paramInt(0);
    Expr Acc = C.intConst(1);
    for (int K = 2; K < 120; ++K)
      Acc = Acc + Expr(N) * C.intConst(K);
    CompileOptions O;
    O.Backend = BackendKind::ICode;
    CompiledFn F = compileFn(C, C.ret(Acc), EvalType::Int, O);
    ASSERT_NE(F.entry(), nullptr);
  }
  MetricsSnapshot S = MetricsRegistry::global().snapshot();
  ASSERT_GT(S.counter(names::CompileCyclesTotal), 0u);
  EXPECT_TRUE(phaseCoverageOk(S));
  EXPECT_GE(phaseCycleSum(S) * 100, S.counter(names::CompileCyclesTotal) * 95);
  std::string Rep = renderReport(S);
  EXPECT_EQ(Rep.find("WARNING: phases cover only"), std::string::npos) << Rep;
}

TEST(Report, PhaseCoverageDriftTriggersWarning) {
  // A snapshot claiming compiles happened but carrying no phase counters
  // models a timed region that lost its obs::Phase.
  MetricsSnapshot S;
  S.Counters.push_back({std::string(names::CompileCyclesTotal), 1000000});
  EXPECT_FALSE(phaseCoverageOk(S));
  std::string Rep = renderReport(S);
  EXPECT_NE(Rep.find("WARNING: phases cover only"), std::string::npos);

  MetricsSnapshot Empty; // Nothing compiled -> nothing to drift.
  EXPECT_TRUE(phaseCoverageOk(Empty));
}

// --- Concurrency: symbol churn under tier promotion + eviction --------------

TEST(RuntimeSymbols, ChurnUnderEightThreadPromotionAndEviction) {
  // Small single-shard cache: constant eviction, so regions (and their
  // symbols) register and retire continuously while the sampler fires and
  // readers walk the table. Run under TSan in CI.
  cache::ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 512;
  cache::CompileService Svc(Cfg);
  tier::TierConfig TC;
  TC.Workers = 2;
  TC.PromoteThreshold = 64;
  tier::TierManager TM(TC);

  Sampler &S = Sampler::global();
  ASSERT_TRUE(S.start(2000));

  apps::HashApp H(256, 100, 5);
  int Key = H.presentKey();
  int Want = Key * 2 + 1;
  tier::TieredFnHandle TF = H.specializeTiered(Svc, &TM);

  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      if (T % 4 == 0) {
        // Readers: resolve and rank while slots churn underneath.
        RuntimeSymbolTable &Tab = RuntimeSymbolTable::global();
        char Name[RuntimeSymbolTable::NameBytes];
        std::uintptr_t Start = 0;
        std::size_t Size = 0;
        for (unsigned I = 0; I < 400; ++I) {
          (void)Tab.resolve(reinterpret_cast<std::uintptr_t>(&Failures) + I,
                            Name, &Start, &Size);
          (void)Tab.hotSymbols();
          if (Tab.liveCount() > RuntimeSymbolTable::Capacity)
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (T % 2) {
        // Churners: flood the cache so baselines and promotions evict,
        // registering and retiring symbols the whole time.
        for (unsigned I = 0; I < 150; ++I) {
          apps::PowerApp P(2 + (T * 31 + I) % 24);
          cache::FnHandle F = P.specializeCached(Svc);
          if (F->as<int(int)>()(1) != 1)
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // Callers: keep the tiered slot hot through swaps and evictions.
        for (unsigned I = 0; I < 3000; ++I)
          if (TF->call<int(int)>(Key) != Want)
            Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  S.stop();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(Svc.cache().stats().Evictions, 0u);
  // The slot still answers correctly and its live region still resolves.
  EXPECT_EQ(TF->call<int(int)>(Key), Want);
  char Name[RuntimeSymbolTable::NameBytes];
  std::uintptr_t Start = 0;
  std::size_t Size = 0;
  EXPECT_TRUE(RuntimeSymbolTable::global().resolve(
      reinterpret_cast<std::uintptr_t>(TF->handle()->entry()), Name, &Start,
      &Size));
}

} // namespace
