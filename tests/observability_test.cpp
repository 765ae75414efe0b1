//===- tests/observability_test.cpp - Tracing/metrics/profiling tests -----===//
//
// Covers the observability subsystem end to end: the trace exporter (valid
// JSON, balanced begin/end pairs, multi-thread interleaving, span durations
// equal to the phase stats they were charged to), histogram bucketing
// edges, the phase-sum-vs-total report invariant, cache metric mirroring,
// generated-code invocation profiling under concurrent load on both back
// ends, and the report's profiled-function rows.
//
//===----------------------------------------------------------------------===//

#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Profile.h"
#include "observability/Report.h"
#include "observability/Events.h"

#include "apps/Power.h"
#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON parser — enough to validate the exported trace without
// pulling in a dependency. Throws std::runtime_error on malformed input.
//===----------------------------------------------------------------------===//

struct JValue {
  enum Kind { Obj, Arr, Str, Num, Bool, Null } K = Null;
  std::map<std::string, JValue> O;
  std::vector<JValue> A;
  std::string S;
  double N = 0;
  bool B = false;

  const JValue &at(const std::string &Key) const {
    auto It = O.find(Key);
    if (It == O.end())
      throw std::runtime_error("missing key: " + Key);
    return It->second;
  }
};

class JParser {
public:
  explicit JParser(const std::string &Text) : T(Text) {}

  JValue parseDocument() {
    JValue V = parseValue();
    ws();
    if (P != T.size())
      throw std::runtime_error("trailing garbage after JSON document");
    return V;
  }

private:
  const std::string &T;
  std::size_t P = 0;

  [[noreturn]] void fail(const char *Msg) {
    throw std::runtime_error(std::string(Msg) + " at offset " +
                             std::to_string(P));
  }
  void ws() {
    while (P < T.size() &&
           (T[P] == ' ' || T[P] == '\n' || T[P] == '\t' || T[P] == '\r'))
      ++P;
  }
  char peek() {
    if (P >= T.size())
      fail("unexpected end");
    return T[P];
  }
  void expect(char C) {
    if (P >= T.size() || T[P] != C)
      fail("unexpected character");
    ++P;
  }

  JValue parseValue() {
    ws();
    char C = peek();
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return parseString();
    if (C == 't' || C == 'f')
      return parseBool();
    if (C == 'n')
      return parseNull();
    return parseNumber();
  }

  JValue parseObject() {
    JValue V;
    V.K = JValue::Obj;
    expect('{');
    ws();
    if (peek() == '}') {
      ++P;
      return V;
    }
    for (;;) {
      ws();
      JValue Key = parseString();
      ws();
      expect(':');
      V.O[Key.S] = parseValue();
      ws();
      if (peek() == ',') {
        ++P;
        continue;
      }
      expect('}');
      return V;
    }
  }

  JValue parseArray() {
    JValue V;
    V.K = JValue::Arr;
    expect('[');
    ws();
    if (peek() == ']') {
      ++P;
      return V;
    }
    for (;;) {
      V.A.push_back(parseValue());
      ws();
      if (peek() == ',') {
        ++P;
        continue;
      }
      expect(']');
      return V;
    }
  }

  JValue parseString() {
    JValue V;
    V.K = JValue::Str;
    expect('"');
    while (peek() != '"') {
      char C = T[P++];
      if (C == '\\') {
        char E = peek();
        ++P;
        switch (E) {
        case 'n': V.S += '\n'; break;
        case 't': V.S += '\t'; break;
        case '"': V.S += '"'; break;
        case '\\': V.S += '\\'; break;
        case '/': V.S += '/'; break;
        case 'u': // Skip 4 hex digits; content is irrelevant here.
          for (int I = 0; I < 4; ++I)
            ++P;
          break;
        default: fail("bad escape");
        }
      } else {
        V.S += C;
      }
    }
    ++P;
    return V;
  }

  JValue parseNumber() {
    std::size_t Start = P;
    if (peek() == '-')
      ++P;
    while (P < T.size() && (std::isdigit(static_cast<unsigned char>(T[P])) ||
                            T[P] == '.' || T[P] == 'e' || T[P] == 'E' ||
                            T[P] == '+' || T[P] == '-'))
      ++P;
    if (P == Start)
      fail("expected number");
    JValue V;
    V.K = JValue::Num;
    V.N = std::stod(T.substr(Start, P - Start));
    return V;
  }

  JValue parseBool() {
    JValue V;
    V.K = JValue::Bool;
    if (T.compare(P, 4, "true") == 0) {
      V.B = true;
      P += 4;
    } else if (T.compare(P, 5, "false") == 0) {
      P += 5;
    } else {
      fail("expected bool");
    }
    return V;
  }

  JValue parseNull() {
    if (T.compare(P, 4, "null") != 0)
      fail("expected null");
    P += 4;
    return JValue{};
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string tracePath(const char *Name) {
  return ::testing::TempDir() + Name;
}

/// Parses \p Path as a Chrome trace and returns the traceEvents array after
/// structural validation (required keys, B/E phases, per-tid balance).
JValue loadAndValidateTrace(const std::string &Path) {
  JValue Doc = JParser(slurp(Path)).parseDocument();
  EXPECT_EQ(Doc.K, JValue::Obj);
  const JValue &Events = Doc.at("traceEvents");
  EXPECT_EQ(Events.K, JValue::Arr);

  // Per-thread begin/end balance, name-matched, ts-ordered.
  std::map<double, std::vector<std::string>> Stacks;
  std::map<double, double> LastTs;
  for (const JValue &E : Events.A) {
    EXPECT_EQ(E.K, JValue::Obj);
    const std::string &Ph = E.at("ph").S;
    const std::string &Name = E.at("name").S;
    double Tid = E.at("tid").N;
    double Ts = E.at("ts").N;
    (void)E.at("pid");
    EXPECT_FALSE(Name.empty());
    EXPECT_GE(Ts, 0.0);
    auto It = LastTs.find(Tid);
    if (It != LastTs.end()) {
      EXPECT_GE(Ts, It->second) << "timestamps regress within tid";
    }
    LastTs[Tid] = Ts;
    if (Ph == "B") {
      Stacks[Tid].push_back(Name);
    } else if (Ph == "E") {
      if (Stacks[Tid].empty()) {
        ADD_FAILURE() << "E without matching B";
      } else {
        EXPECT_EQ(Stacks[Tid].back(), Name) << "mismatched begin/end nesting";
        Stacks[Tid].pop_back();
      }
    } else {
      ADD_FAILURE() << "unexpected phase " << Ph;
    }
  }
  for (auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  return Events;
}

//===----------------------------------------------------------------------===//
// Trace exporter
//===----------------------------------------------------------------------===//

TEST(Trace, ExportsValidBalancedJson) {
  obs::traceStart(nullptr);
  {
    obs::Phase Outer(obs::EventKind::CompileTotal);
    {
      obs::Phase Walk(obs::EventKind::CGFWalk);
    }
    {
      obs::Phase EmitS(obs::EventKind::Emit);
    }
  }
  std::string Path = tracePath("obs_trace_basic.json");
  ASSERT_TRUE(obs::traceStopTo(Path.c_str()));

  JValue Events = loadAndValidateTrace(Path);
  unsigned Begins = 0, Ends = 0, Compiles = 0;
  for (const JValue &E : Events.A) {
    if (E.at("ph").S == "B") {
      ++Begins;
      if (E.at("name").S == "compile")
        ++Compiles;
    } else {
      ++Ends;
    }
  }
  EXPECT_EQ(Begins, 3u);
  EXPECT_EQ(Ends, 3u);
  EXPECT_EQ(Compiles, 1u);
  std::remove(Path.c_str());
}

TEST(Trace, RealCompilePipelineProducesSpans) {
  obs::traceStart(nullptr);
  Context C;
  VSpec X = C.paramInt(0);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  CompiledFn F = compileFn(C, C.ret(C.read(X) * C.intConst(3)),
                           EvalType::Int, O);
  EXPECT_EQ(F.as<int(int)>()(5), 15);
  std::string Path = tracePath("obs_trace_compile.json");
  ASSERT_TRUE(obs::traceStopTo(Path.c_str()));

  JValue Events = loadAndValidateTrace(Path);
  std::map<std::string, unsigned> ByName;
  for (const JValue &E : Events.A)
    if (E.at("ph").S == "B")
      ++ByName[E.at("name").S];
  EXPECT_GE(ByName["compile"], 1u);
  EXPECT_GE(ByName["cgf-walk"], 1u);
  EXPECT_GE(ByName["linear-scan"], 1u);
  EXPECT_GE(ByName["emit"], 1u);
  EXPECT_GE(ByName["code-install"], 1u);
  std::remove(Path.c_str());
}

TEST(Trace, AdmissionStagesAreSpansInTheReport) {
  // A verified compile runs admission; each of its three stages is a span,
  // and the report breaks admission time down by them.
  obs::traceStart(nullptr);
  Context C;
  VSpec X = C.paramInt(0);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  O.Verify = true;
  CompiledFn F = compileFn(C, C.ret(C.read(X) * C.intConst(3)),
                           EvalType::Int, O);
  EXPECT_EQ(F.as<int(int)>()(5), 15);
  std::string Path = tracePath("obs_trace_admit.json");
  ASSERT_TRUE(obs::traceStopTo(Path.c_str()));

  JValue Events = loadAndValidateTrace(Path);
  std::map<std::string, unsigned> ByName;
  for (const JValue &E : Events.A)
    if (E.at("ph").S == "B")
      ++ByName[E.at("name").S];
  EXPECT_GE(ByName["admit-decode"], 1u);
  EXPECT_GE(ByName["admit-cfg"], 1u);
  EXPECT_GE(ByName["admit-fixpoint"], 1u);
  std::string Report = obs::renderReport();
  EXPECT_NE(Report.find("admission stages"), std::string::npos) << Report;
  EXPECT_NE(Report.find("admit-fixpoint"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Trace, MultiThreadInterleaving) {
  constexpr unsigned Threads = 4, PerThread = 50;
  obs::traceStart(nullptr);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([] {
      for (unsigned I = 0; I < PerThread; ++I) {
        obs::Phase Outer(obs::EventKind::CacheProbe);
        obs::Phase Inner(obs::EventKind::Emit);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  std::string Path = tracePath("obs_trace_mt.json");
  ASSERT_TRUE(obs::traceStopTo(Path.c_str()));

  // loadAndValidateTrace asserts per-tid balance; on top of that, every
  // thread's events must all have made it out.
  JValue Events = loadAndValidateTrace(Path);
  std::map<double, unsigned> BeginsPerTid;
  unsigned Probes = 0, Emits = 0;
  for (const JValue &E : Events.A) {
    if (E.at("ph").S != "B")
      continue;
    ++BeginsPerTid[E.at("tid").N];
    if (E.at("name").S == "cache-probe")
      ++Probes;
    else if (E.at("name").S == "emit")
      ++Emits;
  }
  EXPECT_EQ(Probes, Threads * PerThread);
  EXPECT_EQ(Emits, Threads * PerThread);
  EXPECT_EQ(BeginsPerTid.size(), Threads);
  for (auto &[Tid, N] : BeginsPerTid)
    EXPECT_EQ(N, 2 * PerThread) << "tid " << Tid;
  std::remove(Path.c_str());
}

TEST(Trace, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::traceEnabled());
  {
    obs::Phase S(obs::EventKind::CompileTotal); // Must not arm.
  }
  obs::traceStart(nullptr);
  std::string Path = tracePath("obs_trace_empty.json");
  ASSERT_TRUE(obs::traceStopTo(Path.c_str()));
  JValue Events = loadAndValidateTrace(Path);
  EXPECT_TRUE(Events.A.empty());
  std::remove(Path.c_str());
}

TEST(Trace, SpanDurationsEqualPhaseStats) {
  // One clock pair per phase: the span a traced compile leaves in the ring
  // and the stat the compile reports are the same measurement.
  obs::EventRing &Ring = obs::EventRing::global();
  std::uint64_t From = Ring.eventCount();
  obs::traceStart(nullptr);
  Context C;
  VSpec X = C.paramInt(0);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  O.RegAlloc = icode::RegAllocKind::LinearScan;
  CompiledFn F = compileFn(C, C.ret(C.read(X) * C.intConst(3) + C.intConst(1)),
                           EvalType::Int, O);
  ASSERT_TRUE(obs::traceStopTo(nullptr));
  ASSERT_EQ(F.as<int(int)>()(5), 16);

  std::map<obs::EventKind, std::vector<std::uint64_t>> Spans;
  for (const obs::EventRing::Record &R : Ring.snapshot(From))
    if (obs::isSpan(R.Kind))
      Spans[R.Kind].push_back(R.A - R.Tsc);
  const DynStats &S = F.stats();
  const std::pair<obs::EventKind, std::uint64_t> Expected[] = {
      {obs::EventKind::CGFWalk, S.CyclesWalk},
      {obs::EventKind::Peephole, S.ICode.CyclesPeephole},
      {obs::EventKind::FlowGraph, S.ICode.CyclesFlowGraph},
      {obs::EventKind::Liveness, S.ICode.CyclesLiveness},
      {obs::EventKind::LiveIntervals, S.ICode.CyclesIntervals},
      {obs::EventKind::LinearScan, S.ICode.CyclesRegAlloc},
      {obs::EventKind::Emit, S.ICode.CyclesEmit},
  };
  for (const auto &[Kind, Cycles] : Expected) {
    ASSERT_EQ(Spans[Kind].size(), 1u) << obs::eventName(Kind);
    EXPECT_GT(Cycles, 0u) << obs::eventName(Kind);
    EXPECT_EQ(Spans[Kind][0], Cycles) << obs::eventName(Kind);
  }
}

//===----------------------------------------------------------------------===//
// Histogram bucketing
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketEdges) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucketFor(0), 0u);
  EXPECT_EQ(H::bucketFor(1), 1u);
  EXPECT_EQ(H::bucketFor(2), 2u);
  EXPECT_EQ(H::bucketFor(3), 2u);
  EXPECT_EQ(H::bucketFor(4), 3u);
  // The last normal bucket holds [2^45, 2^46).
  EXPECT_EQ(H::bucketFor((1ull << 45)), H::NumBuckets - 2);
  EXPECT_EQ(H::bucketFor((1ull << 46) - 1), H::NumBuckets - 2);
  // At 2^46 and beyond everything collapses into the overflow bucket.
  EXPECT_EQ(H::bucketFor(1ull << 46), H::NumBuckets - 1);
  EXPECT_EQ(H::bucketFor(UINT64_MAX), H::NumBuckets - 1);
  // Bucket lower bounds are consistent with bucketFor.
  EXPECT_EQ(H::bucketLo(0), 0u);
  EXPECT_EQ(H::bucketLo(1), 1u);
  EXPECT_EQ(H::bucketLo(2), 2u);
  EXPECT_EQ(H::bucketLo(H::NumBuckets - 1), 1ull << 46);
  for (unsigned B = 0; B < H::NumBuckets; ++B)
    EXPECT_EQ(H::bucketFor(H::bucketLo(B)), B);
}

TEST(Histogram, RecordAndReset) {
  obs::Histogram H;
  H.record(0);
  H.record(1);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), UINT64_MAX + 1ull); // Wraps mod 2^64 by design.
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), UINT64_MAX);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(obs::Histogram::NumBuckets - 1), 1u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.max(), 0u);
}

TEST(Metrics, SnapshotLookupAndEmptyHistogramMin) {
  obs::MetricsRegistry R;
  R.counter("test.counter").inc(7);
  R.histogram("test.empty"); // Registered, never recorded.
  obs::MetricsSnapshot S = R.snapshot();
  EXPECT_EQ(S.counter("test.counter"), 7u);
  EXPECT_EQ(S.counter("never.registered"), 0u);
  ASSERT_NE(S.histogram("test.empty"), nullptr);
  EXPECT_EQ(S.histogram("test.empty")->Min, 0u) << "empty min reads as 0";
  EXPECT_EQ(S.histogram("nope"), nullptr);
}

//===----------------------------------------------------------------------===//
// Pipeline metrics: phase sum vs total, cache mirroring
//===----------------------------------------------------------------------===//

TEST(PipelineMetrics, PhaseSumTracksCompileTotal) {
  obs::MetricsRegistry::global().resetAll();
  for (unsigned Rep = 0; Rep < 40; ++Rep) {
    for (BackendKind BK : {BackendKind::VCode, BackendKind::ICode}) {
      Context C;
      VSpec X = C.paramInt(0);
      Expr E = C.read(X);
      for (int I = 1; I <= 24; ++I)
        E = E * C.intConst(3) + C.read(X) + C.intConst(I);
      CompileOptions O;
      O.Backend = BK;
      CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, O);
      ASSERT_TRUE(F.valid());
    }
  }
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
  std::uint64_t Total = S.counter(obs::names::CompileCyclesTotal);
  std::uint64_t Phases = obs::phaseCycleSum(S);
  ASSERT_GT(Total, 0u);
  // The per-phase scopes live inside the total scope, so their sum can
  // never meaningfully exceed it, and together the instrumented phases
  // must account for the bulk of it (the tickc-report invariant).
  EXPECT_LE(Phases, Total + Total / 10);
  EXPECT_GE(Phases, Total - Total / 2)
      << "phases cover only " << (100.0 * Phases / Total) << "% of total";
}

TEST(PipelineMetrics, CacheCountersMirrorIntoRegistry) {
  obs::MetricsSnapshot Before = obs::MetricsRegistry::global().snapshot();
  apps::PowerApp Power(9);
  cache::CompileService Service;
  cache::FnHandle A = Power.specializeCached(Service);
  cache::FnHandle B = Power.specializeCached(Service);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());

  // Per-instance stats stay exact on the instance...
  cache::CacheStats Inst = Service.cache().stats();
  EXPECT_EQ(Inst.Insertions, 1u);
  EXPECT_GE(Inst.Hits, 1u);

  // ...and the cumulative registry mirrors move by at least as much.
  obs::MetricsSnapshot After = obs::MetricsRegistry::global().snapshot();
  EXPECT_GE(After.counter(obs::names::CacheInsertions),
            Before.counter(obs::names::CacheInsertions) + 1);
  EXPECT_GE(After.counter(obs::names::CacheHits),
            Before.counter(obs::names::CacheHits) + 1);
  EXPECT_GE(After.counter(obs::names::CacheMisses),
            Before.counter(obs::names::CacheMisses) + 1);
  EXPECT_GT(After.counter(obs::names::CacheBytesInserted),
            Before.counter(obs::names::CacheBytesInserted));
}

TEST(PipelineMetrics, ReportRendersNonTrivially) {
  Context C;
  VSpec X = C.paramInt(0);
  CompiledFn F =
      compileFn(C, C.ret(C.read(X) + C.intConst(1)), EvalType::Int);
  ASSERT_TRUE(F.valid());
  std::string R = obs::renderReport();
  EXPECT_NE(R.find("compile phases (cycles, all compiles)"),
            std::string::npos);
  EXPECT_NE(R.find("cgf walk"), std::string::npos);
  EXPECT_NE(R.find("phase sum"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Generated-code profiling
//===----------------------------------------------------------------------===//

class ProfileBothBackends : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, ProfileBothBackends,
                         ::testing::Values(BackendKind::VCode,
                                           BackendKind::ICode),
                         [](const auto &Info) {
                           return Info.param == BackendKind::VCode ? "VCode"
                                                                   : "ICode";
                         });

TEST_P(ProfileBothBackends, CountsInvocationsUnderEightThreads) {
  Context C;
  VSpec X = C.paramInt(0);
  Expr E = C.read(X) * C.intConst(3) + C.intConst(1);
  CompileOptions O;
  O.Backend = GetParam();
  O.Profile = true;
  O.ProfileName = "stress-fn";
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, O);
  ASSERT_TRUE(F.valid());
  ASSERT_NE(F.profile(), nullptr);
  EXPECT_GT(F.profile()->CompileCycles.load(), 0u);

  auto *Fn = F.as<int(int)>();
  constexpr unsigned Threads = 8, PerThread = 10000;
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I < PerThread; ++I)
        if (Fn(static_cast<int>(I)) != static_cast<int>(I) * 3 + 1)
          Wrong.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(F.profile()->Invocations.load(),
            static_cast<std::uint64_t>(Threads) * PerThread);
}

TEST(Profiling, UnprofiledFunctionHasNoEntryAndNoCounterBump) {
  Context C;
  VSpec X = C.paramInt(0);
  CompiledFn F =
      compileFn(C, C.ret(C.read(X) + C.intConst(2)), EvalType::Int);
  EXPECT_EQ(F.profile(), nullptr);
  EXPECT_EQ(F.as<int(int)>()(40), 42);
}

TEST(Profiling, ProfileFlagChangesSpecKey) {
  apps::PowerApp Power(7);
  CompileOptions Plain;
  CompileOptions Prof;
  Prof.Profile = true;
  EXPECT_NE(Power.cacheKey(Plain).Hash, Power.cacheKey(Prof).Hash);
  EXPECT_NE(Power.cacheKey(Plain).Bytes, Power.cacheKey(Prof).Bytes);
}

TEST(Profiling, ReportListsLiveProfiledFunctionsFromTheirSymbols) {
  // The "hot dynamic functions" rows come from the runtime symbol table:
  // the symbol's name and size next to its profile entry's counts. A row
  // leaves the report when its function dies.
  const char *Label = "report-row-fn";
  auto findRow = [&](const std::string &Rep) -> std::string {
    std::istringstream In(Rep);
    std::string Line;
    bool InSection = false;
    while (std::getline(In, Line)) {
      if (!InSection) {
        InSection = Line.rfind("hot dynamic functions", 0) == 0;
        continue;
      }
      if (Line.rfind("  ", 0) != 0)
        break; // The next section.
      std::string Name;
      std::istringstream(Line) >> Name;
      if (Name == Label)
        return Line;
    }
    return "";
  };

  constexpr unsigned Calls = 1u << 20; // Outranks every other live row.
  {
    Context C;
    VSpec X = C.paramInt(0);
    CompileOptions O;
    O.Backend = BackendKind::ICode;
    O.Profile = true;
    O.ProfileName = Label;
    CompiledFn F = compileFn(C, C.ret(C.read(X) + C.intConst(5)),
                             EvalType::Int, O);
    ASSERT_NE(F.profile(), nullptr);
    auto *Fn = F.as<int(int)>();
    for (unsigned I = 0; I < Calls; ++I)
      ASSERT_EQ(Fn(1), 6);

    std::string Row = findRow(obs::renderReport());
    ASSERT_FALSE(Row.empty()) << obs::renderReport();
    char Name[64] = {};
    unsigned long long N = 0, Cycles = 0, Bytes = 0;
    char Backend[16] = {};
    ASSERT_EQ(std::sscanf(Row.c_str(),
                          " %63s %llu calls %llu compile cycles %llu bytes "
                          "(%15[^)])",
                          Name, &N, &Cycles, &Bytes, Backend),
              5)
        << Row;
    EXPECT_STREQ(Name, Label);
    EXPECT_EQ(N, Calls);
    EXPECT_EQ(Cycles, F.profile()->CompileCycles.load());
    EXPECT_GT(Cycles, 0u);
    EXPECT_EQ(Bytes, F.stats().CodeBytes);
    EXPECT_STREQ(Backend, "icode");
  }
  EXPECT_EQ(findRow(obs::renderReport()), "");
}

} // namespace
