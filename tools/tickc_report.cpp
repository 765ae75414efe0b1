//===- tools/tickc_report.cpp - Observability report CLI ------------------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Drives a representative instantiation workload through both back ends and
// both register allocators, then renders the metrics registry as the
// per-phase stacked breakdown (the repo's text answer to Figures 6/7).
//
//   tickc-report [reps]          # default 50 compiles per configuration
//   TICKC_TRACE=out.json tickc-report   # also writes a Perfetto trace
//   TICKC_PERF_MAP=1 tickc-report       # also exports /tmp/perf-<pid>.map
//                                       # and snapshots it (while the code
//                                       # is live) to perf-map-live.snapshot
//
//===----------------------------------------------------------------------===//

#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "observability/Report.h"
#include "observability/RuntimeSymbols.h"
#include "observability/Sampler.h"
#include "tier/Tier.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace tcc;
using namespace tcc::core;

int main(int argc, char **argv) {
  unsigned Reps = 50;
  if (argc > 1) {
    long V = std::strtol(argv[1], nullptr, 10);
    if (V <= 0) {
      std::fprintf(stderr, "usage: %s [reps]\n", argv[0]);
      return 2;
    }
    Reps = static_cast<unsigned>(V);
  }

  apps::PowerApp Power(13);
  apps::QueryApp Query(512);

  struct Config {
    const char *Name;
    CompileOptions Opts;
  };
  Config Configs[4];
  Configs[0].Name = "vcode";
  Configs[1].Name = "icode/ls";
  Configs[1].Opts.Backend = BackendKind::ICode;
  Configs[2].Name = "icode/gc";
  Configs[2].Opts.Backend = BackendKind::ICode;
  Configs[2].Opts.RegAlloc = icode::RegAllocKind::GraphColor;
  // Verified compiles populate the report's verify section (all four layers
  // plus the verify-time share of compile cycles).
  Configs[3].Name = "icode/verify";
  Configs[3].Opts.Backend = BackendKind::ICode;
  Configs[3].Opts.Verify = true;

  for (const Config &C : Configs) {
    for (unsigned I = 0; I < Reps; ++I) {
      (void)Power.specialize(C.Opts);
      (void)Query.specialize(Query.benchmarkQuery(), C.Opts);
    }
  }

  // Exercise the memoized path so the cache/pool sections are populated.
  // fromEnv() means a TICKC_SNAPSHOT_DIR run also populates the snapshot
  // section (run twice: the second report shows warm-start loads).
  cache::CompileService Service(cache::ServiceConfig::fromEnv());
  for (unsigned I = 0; I < Reps; ++I)
    (void)Power.specializeCached(Service);

  // Drive one spec through the tiered path — baseline calls, a background
  // promotion, and the swap — so the tiers section has data.
  {
    tier::TierConfig TC;
    TC.PromoteThreshold = 64;
    tier::TierManager TM(TC);
    tier::TieredFnHandle TF = Power.specializeTiered(Service, &TM);
    int TAcc = 0;
    for (unsigned I = 0; I < 128; ++I)
      TAcc += TF->call<int(int)>(2);
    (void)TF->waitPromoted();
    TAcc += TF->call<int(int)>(2);
    if (TAcc == 42)
      std::printf("unreachable\n");
  }

  // One profiled function, driven through a short sampled hot phase so the
  // invocation-count table and the execution-hotspot table both have data.
  // TICKC_SAMPLE_HZ keeps whatever rate the user asked for; otherwise the
  // sampler runs at 997 Hz just for this phase.
  CompileOptions ProfOpts;
  ProfOpts.Profile = true;
  ProfOpts.Name = "pow13";
  CompiledFn Prof = Power.specialize(ProfOpts);
  obs::Sampler &S = obs::Sampler::global();
  bool OwnSampler = !S.running() && S.start(997);
  int Acc = 0;
  auto HotEnd = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(150);
  while (std::chrono::steady_clock::now() < HotEnd)
    for (unsigned I = 0; I < 1000; ++I)
      Acc += Prof.as<int(int)>()(3);
  if (Acc == 42)
    std::printf("unreachable\n"); // Keep the calls observable.

  // When perf export is on, snapshot the map while this process's compiled
  // regions are still live: retirement rewrites the file, so by process
  // exit the map is (correctly) empty and CI could not check coverage.
  obs::RuntimeSymbolTable &T = obs::RuntimeSymbolTable::global();
  if (T.perfExport() == obs::PerfExport::Map ||
      T.perfExport() == obs::PerfExport::Both) {
    std::ifstream In(T.perfMapPath(), std::ios::binary);
    std::ofstream Snap("perf-map-live.snapshot", std::ios::binary);
    Snap << In.rdbuf();
    std::printf("perf map: %s (live snapshot: perf-map-live.snapshot)\n",
                T.perfMapPath().c_str());
  }

  std::printf("%s", obs::renderReport().c_str());
  if (OwnSampler)
    S.stop();
  return 0;
}
