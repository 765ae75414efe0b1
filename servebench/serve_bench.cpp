//===- servebench/serve_bench.cpp - Request-stream serving benchmark ------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// One closed-loop client sends requests to an in-process specialization
// server for a fixed number of seconds; four request streams (hot, churn,
// restart, tier_ramp) stress different layers. README.md describes the
// streams, where their parameters come from, and every metric. A request
// names a query (Queries.h) and scans the database with it; its latency
// runs from spec construction to the match count. Each run draws thousands
// of queries, so a seed's particular queries barely move the figures.
//
// Usage: serve_bench --workload W --seed N --seconds S --trace 0|1 --dir D
//   D is a scratch directory for snapshot files. The last stdout line is a
//   JSON object: end-to-end metrics with --trace 0, per-layer with 1.
//
//===----------------------------------------------------------------------===//

#include "Queries.h"

#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Timing.h"
#include "tier/Tier.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

using namespace tcc;
using namespace servebench;
using apps::QueryApp;
using apps::Record;

namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string Workload;
  std::string Dir;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Boot repetitions whose median is reported as setup_s.
constexpr unsigned SetupReps = 5;

/// Queries a server knows when its window starts: hot's working set,
/// churn's warm cache, restart's snapshot. An unverified assumption; see
/// README.md.
constexpr unsigned Catalog = 1024;

/// Per-request accounting over the measurement window.
///
/// Right after each request, outside its timing, QueryApp's static
/// interpreter (the paper's static version of the query) scans the same
/// records twice. The first scan checks the request's match count. The
/// second, timed, is the request's static reference. It runs on the caches
/// and TLB the first scan warmed, so what the request left behind does not
/// slow it, and it runs right after the request, so both see the same host
/// speed. End-to-end latencies are reported as multiples of it, which keeps
/// them steady on a host whose speed drifts.
///
/// The window is cut into half-second slices, and each end-to-end metric
/// is read from the calmest quarter of them: the first quartile of its
/// per-slice values (the third for throughput). Interference from other
/// tenants of a shared host only ever slows a slice, and it comes and goes
/// over seconds, so the calm slices repeat from run to run where the
/// disturbed ones do not.
struct Window {
  static constexpr std::uint64_t SliceNs = 500000000;

  explicit Window(const QueryApp &App) : App(App) {}

  const QueryApp &App;
  bool Trace = false;
  std::uint64_t Deadline = 0, SliceEnd = 0;
  /// Current slice: latency / static per request, and the summed times.
  std::vector<float> Slowdown;
  double SliceLatencyNs = 0, SliceStaticNs = 0;
  /// Closed slices' end-to-end values.
  std::vector<double> P50, P99, Throughput;
  double StaticNs = 0; ///< Reference time summed over the window.
  /// Summed self time per layer (traced runs only), ns.
  double BuildNs = 0, KeyNs = 0, ProbeNs = 0, MissNs = 0, CallNs = 0;
  std::uint64_t Attempted = 0, Failed = 0, Misses = 0;

  void start(double Seconds) {
    std::uint64_t Now = nowNs();
    Deadline = Now + static_cast<std::uint64_t>(Seconds * 1e9);
    SliceEnd = Now + SliceNs;
  }

  /// Called after every request. A run shorter than one slice still
  /// reports its single partial slice.
  bool expired(std::uint64_t Now) {
    bool Done = Now >= Deadline;
    if (Now >= SliceEnd || (Done && P50.empty())) {
      closeSlice();
      SliceEnd += SliceNs;
    }
    return Done;
  }

  void finish(const QueryPlan &Q, int Count, bool Ok, bool Miss,
              std::uint64_t LatNs) {
    int Want = App.countStaticO2(Q.root());
    std::uint64_t T0 = nowNs();
    int Again = App.countStaticO2(Q.root());
    auto RefNs =
        static_cast<double>(std::max<std::uint64_t>(1, nowNs() - T0));
    ++Attempted;
    Failed += Ok && Count == Want && Again == Want ? 0 : 1;
    Misses += Miss ? 1 : 0;
    Slowdown.push_back(static_cast<float>(static_cast<double>(LatNs) / RefNs));
    StaticNs += RefNs;
    SliceLatencyNs += static_cast<double>(LatNs);
    SliceStaticNs += RefNs;
  }

private:
  void closeSlice();
};

/// Lap timer along one request's layers; untraced runs read no clock.
class Laps {
public:
  explicit Laps(bool On, std::uint64_t Start) : On(On), T(Start) {}
  double lap() {
    if (!On)
      return 0;
    std::uint64_t N = nowNs();
    double D = static_cast<double>(N - T);
    T = N;
    return D;
  }

private:
  bool On;
  std::uint64_t T;
};

/// The synchronous streams compile with ICODE.
const core::CompileOptions &syncOptions() {
  static const core::CompileOptions Opts = [] {
    core::CompileOptions O;
    O.Backend = core::BackendKind::ICode;
    return O;
  }();
  return Opts;
}

/// A cache for streams of fresh queries. Every cached function holds its
/// own code mapping, and the cache bounds code bytes, not mappings: at the
/// default 32 MiB a stream of fresh queries exhausts the process's mapping
/// limit long before eviction starts.
cache::ServiceConfig freshConfig() {
  cache::ServiceConfig Cfg;
  Cfg.MaxCodeBytes = 1u << 20;
  return Cfg;
}

/// Boot-time instantiation: readies \p Q the way the window's requests
/// will ask for it, without running it.
void warm(cache::CompileService &Svc, const QueryPlan &Q) {
  core::Context C;
  core::Stmt Body = buildQuery(C, Q.root());
  cache::FnHandle F =
      Svc.getOrCompile(C, Body, core::EvalType::Int, syncOptions());
  if (!F || !F->valid()) {
    std::fprintf(stderr, "serve_bench: boot compile failed\n");
    std::exit(1);
  }
}

/// The synchronous front door: build, key, probe, compile-or-load on a
/// miss, scan. \p ExtraNs is charged to the request's miss (a restarted
/// server's open time, paid by its first request). With \p MustLoad, a
/// request not served from the snapshot counts as failed: it bypassed the
/// path its stream exists to measure.
void serveSync(cache::CompileService &Svc, const QueryPlan &Q, Window &W,
               std::uint64_t ExtraNs = 0, bool MustLoad = false) {
  const core::CompileOptions &Opts = syncOptions();
  std::uint64_t T0 = nowNs();
  Laps L(W.Trace, T0);
  core::Context C;
  core::Stmt Body = buildQuery(C, Q.root());
  W.BuildNs += L.lap();
  cache::SpecKey K = cache::buildSpecKey(C, Body, core::EvalType::Int, Opts);
  W.KeyNs += L.lap();
  cache::FnHandle F = Svc.lookup(K);
  W.ProbeNs += L.lap();
  bool Miss = !F;
  if (Miss)
    F = Svc.getOrCompileKeyed(C, Body, core::EvalType::Int, Opts, K);
  W.MissNs += L.lap() + static_cast<double>(ExtraNs);
  bool Ok = F && F->valid();
  int Count = Ok ? W.App.countCompiled(F->as<int(const Record *)>()) : 0;
  std::uint64_t T1 = nowNs();
  W.CallNs += L.lap();
  if (MustLoad)
    Ok = Ok && F->fromSnapshot();
  W.finish(Q, Count, Ok, Miss, T1 - T0 + ExtraNs);
}

std::vector<QueryPlan> drawQueries(Rng &R, const QueryApp &App, unsigned N) {
  std::vector<QueryPlan> V;
  V.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    V.push_back(randomQuery(R, App.records()));
  return V;
}

/// A serving stream: boot() brings a fresh server to the state the window
/// starts in (timed, repeated for setup_s); run() drives the window.
class Stream {
public:
  virtual ~Stream() = default;
  virtual void boot(unsigned Rep) = 0;
  virtual void run(Window &W) = 0;
};

//===----------------------------------------------------------------------===//
// hot: repeated keys, in-memory cache hits.
//===----------------------------------------------------------------------===//

class HotStream : public Stream {
public:
  HotStream(Rng &R, const QueryApp &App)
      : R(R), Queries(drawQueries(R, App, Catalog)) {}

  void boot(unsigned) override {
    Svc.reset();
    Svc = std::make_unique<cache::CompileService>(cache::ServiceConfig());
    for (const QueryPlan &Q : Queries)
      warm(*Svc, Q);
  }

  void run(Window &W) override {
    do
      serveSync(*Svc, Queries[R.next() % Catalog], W);
    while (!W.expired(nowNs()));
  }

private:
  Rng &R;
  std::vector<QueryPlan> Queries;
  std::unique_ptr<cache::CompileService> Svc;
};

//===----------------------------------------------------------------------===//
// churn: distinct keys, every request compiles.
//===----------------------------------------------------------------------===//

class ChurnStream : public Stream {
public:
  ChurnStream(Rng &R, const QueryApp &App)
      : R(R), App(App), Queries(drawQueries(R, App, Catalog)) {}

  void boot(unsigned) override {
    Svc.reset();
    Svc = std::make_unique<cache::CompileService>(freshConfig());
    for (const QueryPlan &Q : Queries)
      warm(*Svc, Q);
  }

  void run(Window &W) override {
    do
      serveSync(*Svc, randomQuery(R, App.records()), W);
    while (!W.expired(nowNs()));
  }

private:
  Rng &R;
  const QueryApp &App;
  std::vector<QueryPlan> Queries;
  std::unique_ptr<cache::CompileService> Svc;
};

//===----------------------------------------------------------------------===//
// restart: every request is the first after a server restart.
//===----------------------------------------------------------------------===//

class RestartStream : public Stream {
public:
  RestartStream(Rng &R, const QueryApp &App, std::string Dir)
      : R(R), Dir(std::move(Dir)), Queries(drawQueries(R, App, Catalog)) {}

  /// Fresh snapshot per boot: a previous server lifetime that compiled the
  /// catalog and persisted it.
  void boot(unsigned Rep) override {
    Cfg.SnapshotDir = Dir + "/snapshot-" + std::to_string(Rep);
    std::filesystem::remove_all(Cfg.SnapshotDir);
    std::filesystem::create_directories(Cfg.SnapshotDir);
    cache::CompileService Svc(Cfg);
    for (const QueryPlan &Q : Queries)
      warm(Svc, Q);
  }

  /// The server restarts after serving each saved query once, so every
  /// request is a snapshot load.
  void run(Window &W) override {
    std::vector<unsigned> Order(Catalog);
    for (unsigned I = 0; I < Catalog; ++I)
      Order[I] = I;
    for (;;) {
      for (unsigned I = Catalog - 1; I > 0; --I)
        std::swap(Order[I], Order[R.next() % (I + 1)]);
      std::uint64_t T0 = nowNs();
      auto Svc = std::make_unique<cache::CompileService>(Cfg);
      std::uint64_t OpenNs = nowNs() - T0;
      for (unsigned S : Order) {
        serveSync(*Svc, Queries[S], W, OpenNs, /*MustLoad=*/true);
        OpenNs = 0;
        if (W.expired(nowNs()))
          return;
      }
    }
  }

private:
  Rng &R;
  std::string Dir;
  std::vector<QueryPlan> Queries;
  cache::ServiceConfig Cfg;
};

//===----------------------------------------------------------------------===//
// tier_ramp: fresh queries climbing interpreter -> PCODE -> ICODE.
//===----------------------------------------------------------------------===//

/// Caller-thread time spent inside SpecBuild closures; workers rebuilding a
/// spec for promotion leave it untouched.
thread_local double *ClientBuildNs = nullptr;

class TierRampStream : public Stream {
public:
  /// A new query arrives every RequestsPerQuery / Live requests. Its first
  /// request runs on the interpreter; that and the requests served while
  /// its ICODE body compiles make up the p99. Both values are unverified
  /// assumptions.
  static constexpr unsigned Live = 4, RequestsPerQuery = 256;

  TierRampStream(Rng &R, const QueryApp &App) : R(R), App(App) {}
  ~TierRampStream() override { shutdown(); }

  /// The tier manager runs with its defaults: one worker, promotion after
  /// 1000 calls, which the first scan of a query crosses.
  void boot(unsigned) override {
    shutdown();
    Svc = std::make_unique<cache::CompileService>(freshConfig());
    Mgr = std::make_unique<tier::TierManager>(tier::TierConfig());
    // Boot serves one generation of queries through every tier, then the
    // window starts on fresh ones.
    Window Scratch(App);
    for (Slot &S : Slots)
      refill(S);
    for (unsigned I = 0; I < Live * RequestsPerQuery; ++I)
      next(Scratch);
    for (Slot &S : Slots)
      refill(S);
  }

  void run(Window &W) override {
    do
      next(W);
    while (!W.expired(nowNs()));
  }

private:
  struct Slot {
    std::shared_ptr<const QueryPlan> Query;
    tier::TieredFnHandle Handle;
    unsigned Served = 0;
  };

  void refill(Slot &S) {
    S = Slot();
    S.Query = std::make_shared<const QueryPlan>(randomQuery(R, App.records()));
  }

  void next(Window &W) {
    Slot &S = Slots[R.next() % Live];
    if (S.Served == RequestsPerQuery)
      refill(S);
    serve(S, W);
  }

  void serve(Slot &S, Window &W) {
    auto Build = [Query = S.Query](core::Context &C) {
      if (!ClientBuildNs)
        return buildQuery(C, Query->root());
      std::uint64_t T = nowNs();
      core::Stmt Body = buildQuery(C, Query->root());
      *ClientBuildNs += static_cast<double>(nowNs() - T);
      return Body;
    };

    std::uint64_t T0 = nowNs();
    Laps L(W.Trace, T0);
    double BuildNs = 0;
    ClientBuildNs = W.Trace ? &BuildNs : nullptr;
    tier::TieredFnHandle TF =
        Svc->getOrCompileTiered(Build, core::EvalType::Int, {}, Mgr.get());
    ClientBuildNs = nullptr;
    bool Miss = !S.Handle;
    // Key derivation and the slot probe both run inside the tiered front
    // door and cannot be timed apart from here; both count as key time.
    double Front = L.lap() - BuildNs;
    W.BuildNs += BuildNs;
    (Miss ? W.MissNs : W.KeyNs) += Front;
    bool Ok = TF != nullptr;
    int Count = 0;
    if (Ok)
      for (const Record &Rec : App.records())
        Count += TF->call<int(const Record *)>(&Rec);
    std::uint64_t T1 = nowNs();
    W.CallNs += L.lap();
    S.Handle = TF;
    ++S.Served;
    W.finish(*S.Query, Count, Ok, Miss, T1 - T0);
  }

  /// Slots and the manager go before the service they compile through.
  void shutdown() {
    for (Slot &S : Slots)
      S = Slot();
    Mgr.reset();
    Svc.reset();
  }

  Rng &R;
  const QueryApp &App;
  std::unique_ptr<cache::CompileService> Svc;
  std::unique_ptr<tier::TierManager> Mgr;
  Slot Slots[Live];
};

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

template <typename T> double quantile(std::vector<T> V, double Q) {
  if (V.empty())
    return 0;
  auto K = static_cast<std::size_t>(Q * static_cast<double>(V.size() - 1));
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(K),
                   V.end());
  return V[K];
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void Window::closeSlice() {
  if (Slowdown.empty())
    return;
  P50.push_back(quantile(Slowdown, 0.50));
  P99.push_back(quantile(Slowdown, 0.99));
  Throughput.push_back(SliceStaticNs / SliceLatencyNs);
  Slowdown.clear();
  SliceLatencyNs = SliceStaticNs = 0;
}

class Json {
public:
  void metric(const char *Name, double Value, const char *Unit) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  Body.empty() ? "" : ", ", Name, Value, Unit);
    Body += Buf;
  }
  std::string str() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

/// Program-side counters over the window: what each layer did, read from
/// the pipeline's own metrics registry.
struct Counters {
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();

  std::uint64_t counter(const char *Name) const { return S.counter(Name); }
  std::uint64_t histSum(const char *Name) const {
    const obs::HistogramSnapshot *H = S.histogram(Name);
    return H ? H->Sum : 0;
  }
};

void perLayer(Json &J, const Window &W, const Counters &Before,
              const Counters &After) {
  double N = static_cast<double>(W.Attempted);
  J.metric("build_ns", W.BuildNs / N, "ns");
  J.metric("key_ns", W.KeyNs / N, "ns");
  J.metric("probe_ns", W.ProbeNs / N, "ns");
  J.metric("miss_ns", W.MissNs / N, "ns");
  J.metric("call_ns", W.CallNs / N, "ns");
  J.metric("static_ns", W.StaticNs / N, "ns");
  J.metric("hit_pct", 100.0 * (N - static_cast<double>(W.Misses)) / N, "%");

  auto Delta = [&](const char *Name) {
    return static_cast<double>(After.counter(Name) - Before.counter(Name));
  };
  auto HistDelta = [&](const char *Name) {
    return static_cast<double>(After.histSum(Name) - Before.histSum(Name));
  };
  namespace nm = obs::names;
  J.metric("compiles_per_req",
           (Delta(nm::CompileCountVCode) + Delta(nm::CompileCountPCode) +
            Delta(nm::CompileCountICode)) /
               N,
           "count/req");
  J.metric("snapshot_loads_per_req", Delta(nm::SnapshotHits) / N, "count/req");
  J.metric("evictions_per_req", Delta(nm::CacheEvictions) / N, "count/req");
  J.metric("tier0_calls_per_req", Delta(nm::Tier0Invocations) / N,
           "count/req");
  J.metric("promotions_per_req", Delta(nm::TierPromotions) / N, "count/req");

  // Cycle totals as shares of the client's summed request time. Compile
  // time includes background tier compiles, which run off the request path.
  double RequestCycles = std::max(
      1.0, (W.BuildNs + W.KeyNs + W.ProbeNs + W.MissNs + W.CallNs) *
               cyclesPerNano());
  double Compile = Delta(nm::CompileCyclesTotal);
  J.metric("compile_pct", 100.0 * Compile / RequestCycles, "%");
  J.metric("snapshot_load_pct",
           100.0 * HistDelta(nm::HistSnapshotLoad) / RequestCycles, "%");
  J.metric("admit_pct", 100.0 * Delta(nm::VerifyAdmitCycles) / RequestCycles,
           "%");

  // Where compile time goes, phase by phase (shares of compile cycles).
  const std::pair<const char *, const char *> Phases[] = {
      {"phase_setup_pct", nm::PhaseSetup},
      {"phase_cgf_walk_pct", nm::PhaseCgfWalk},
      {"phase_flow_graph_pct", nm::PhaseFlowGraph},
      {"phase_liveness_pct", nm::PhaseLiveness},
      {"phase_live_intervals_pct", nm::PhaseLiveIntervals},
      {"phase_regalloc_pct", nm::PhaseRegAlloc},
      {"phase_peephole_pct", nm::PhasePeephole},
      {"phase_emit_pct", nm::PhaseEmit},
      {"phase_finalize_pct", nm::PhaseFinalize},
  };
  for (const auto &[Name, Metric] : Phases)
    J.metric(Name, Compile > 0 ? 100.0 * Delta(Metric) / Compile : 0, "%");
}

/// Latencies as multiples of the static reference (see Window): a request
/// at latency_p50_x = 2 took twice as long as the static interpreter's scan
/// of the same records. throughput_x is static time over served time, the
/// request rate relative to static evaluation.
void endToEnd(Json &J, const Window &W, double SetupS) {
  J.metric("latency_p50_x", quantile(W.P50, 0.25), "x");
  J.metric("latency_p99_x", quantile(W.P99, 0.25), "x");
  J.metric("throughput_x", quantile(W.Throughput, 0.75), "x");
  J.metric("setup_s", SetupS, "s");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--dir")
      O.Dir = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && !O.Dir.empty() &&
         O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr, "usage: serve_bench --workload hot|churn|restart|"
                         "tier_ramp --seed N --seconds S --trace 0|1 "
                         "--dir SCRATCH\n");
    return 2;
  }

  Rng R(O.Seed * 0x2545F4914F6CDD1Dull + 1);
  const QueryApp App(Records, static_cast<unsigned>(R.next()));
  std::unique_ptr<Stream> S;
  if (O.Workload == "hot")
    S = std::make_unique<HotStream>(R, App);
  else if (O.Workload == "churn")
    S = std::make_unique<ChurnStream>(R, App);
  else if (O.Workload == "restart")
    S = std::make_unique<RestartStream>(R, App, O.Dir);
  else if (O.Workload == "tier_ramp")
    S = std::make_unique<TierRampStream>(R, App);
  else {
    std::fprintf(stderr, "serve_bench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    std::uint64_t T0 = nowNs();
    S->boot(Rep);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  Window W(App);
  W.Trace = O.Trace;
  Counters Before;
  W.start(O.Seconds);
  S->run(W);
  Counters After;
  S.reset();

  Json J;
  if (O.Trace)
    perLayer(J, W, Before, After);
  else
    endToEnd(J, W, median(SetupS));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              W.Failed == 0 && W.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(W.Attempted),
              static_cast<unsigned long long>(W.Failed), J.str().c_str());
  return 0;
}
