//===- bench/compile_overhead.cpp - Zero-allocation compile fast path --------==//
//
// The CI gate for compile-path overhead: measures steady-state ICODE
// (linear scan) and VCODE instantiation cost for the paper's fig7
// workloads, compiling through the thread's warmed CompileContext into the
// code heap.
// Writes BENCH_overhead.json and fails when
//
//   * any steady-state compile grows the context arena (compile.allocs
//     must stay zero once the context is warm), or
//   * a workload's ICODE/VCODE ratio (median ICODE compile cycles per
//     function over median VCODE compile cycles per function, both
//     measured back to back in this run) exceeds 1.5x the ratio embedded
//     below, or 1.5x the one recorded in the baseline file (named by
//     TICKC_OVERHEAD_BASELINE, default BENCH_overhead.json from a previous
//     run; on first run the current ratios become the baseline).
//
// A ratio within one run cancels the host's speed, which absolute cycles
// do not: the same build reads twice the cycles per instruction on a slow
// VM. Cycles per function, not per instruction: a change that emits fewer
// instructions for the same function raises cycles per instruction
// without making any compile slower.
//
//===----------------------------------------------------------------------===//

#include "bench/AppAdapters.h"
#include "bench/Harness.h"
#include "core/CompileContext.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Report.h"
#include "support/CodeBuffer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace tcc;
using namespace tcc::bench;
using namespace tcc::core;

namespace {

/// Seed ratios (median ICODE compile cycles per function over median VCODE
/// compile cycles per function), measured with this protocol on the
/// commit before call-free ICODE bodies got the caller-saved register pool
/// (median of five runs, RelWithDebInfo build, 4-vCPU 2.0 GHz Xeon VM).
struct SeedEntry {
  const char *Name;
  double Ratio;
};
constexpr SeedEntry Seed[] = {
    {"hash", 2.54}, {"ms", 2.48},    {"heap", 2.39}, {"ntn", 2.86},
    {"cmp", 2.34},  {"query", 3.93}, {"mshl", 2.41}, {"umshl", 2.59},
    {"pow", 2.40},  {"binary", 2.59}, {"dp", 1.50},
};

double seedRatio(const std::string &Name) {
  for (const SeedEntry &E : Seed)
    if (Name == E.Name)
      return E.Ratio;
  return 0;
}

/// Head room over the seed and baseline ratios. Run to run, the ratio
/// moves a few percent; the regressions this gate exists for (losing the
/// arena fast path or the syscall-free code install on the ICODE path)
/// are 2-3x effects.
constexpr double HeadRoom = 1.5;

struct Row {
  std::string Name;
  double Cycles = 0;       ///< ICODE median compile cycles per function.
  double VcodeCycles = 0;  ///< VCODE, same protocol, right after.
  double Ratio = 0;        ///< Cycles / VcodeCycles: the gated number.
  double SeedRatio = 0;    ///< Embedded, see Seed.
  double BaselineRatio = 0; ///< Carried from the baseline file (or == Ratio).
  unsigned MachineInstrs = 0;
  unsigned VcodeInstrs = 0;
  std::uint64_t SteadyAllocs = 0; ///< Arena mallocs during measured reps.
  std::size_t ArenaHighWater = 0;
};

/// Pulls "name": "<X>" ... "baseline_ratio": <V> pairs out of a previous
/// BENCH_overhead.json. Deliberately dumb string scanning — the file is
/// machine-written by this benchmark.
bool loadBaseline(const char *Path, std::vector<Row> &Rows) {
  std::FILE *F = std::fopen(Path, "r");
  if (!F)
    return false;
  std::string Text;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  static constexpr char Key[] = "\"baseline_ratio\":";
  for (Row &R : Rows) {
    std::string Needle = "\"name\": \"" + R.Name + "\"";
    std::size_t At = Text.find(Needle);
    if (At == std::string::npos)
      continue;
    std::size_t K = Text.find(Key, At);
    if (K == std::string::npos)
      continue;
    R.BaselineRatio = std::strtod(Text.c_str() + K + sizeof(Key) - 1, nullptr);
  }
  return true;
}

} // namespace

int main() {
  std::printf("Compile overhead: steady-state compile cycles per function, "
              "ICODE over VCODE\n");
  std::printf("(thread's CompileContext; median of 100 reps after warmup; "
              "icode/vcode ratio gated)\n");
  printRule();

  // Every compile below runs on this thread, so all of them reuse its
  // context.
  const CompileContext &CC = CompileContext::forCurrentThread();
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;

  obs::Counter &AllocsCtr =
      obs::MetricsRegistry::global().counter(obs::names::CompileAllocs);

  constexpr unsigned Warmup = 2, Reps = 100;
  // Same protocol (warmup, median of Reps, the thread's context) for both
  // backends. Returns the median compile cycles, or -1 if a compile failed.
  auto measure = [&](const AppCase &App, CompileOptions &O, unsigned &InstrsOut,
                     std::uint64_t *AllocsOut = nullptr) -> double {
    for (unsigned W = 0; W < Warmup; ++W) {
      CompiledFn F = App.Specialize(O);
      if (!F.valid())
        return -1;
    }
    std::uint64_t AllocsBefore = AllocsCtr.value();
    std::vector<std::uint64_t> PerRep;
    PerRep.reserve(Reps);
    for (unsigned R = 0; R < Reps; ++R) {
      CompiledFn F = App.Specialize(O);
      PerRep.push_back(F.stats().CyclesTotal);
      InstrsOut = F.stats().MachineInstrs;
    } // Each F dies before the next compile: its heap block is reused and
      // the steady state allocates nothing.
    // Median, not mean: a single descheduling or TLB stall mid-run inflates
    // one rep by three orders of magnitude and would dominate an average.
    std::sort(PerRep.begin(), PerRep.end());
    if (AllocsOut)
      *AllocsOut = AllocsCtr.value() - AllocsBefore;
    return static_cast<double>(PerRep[PerRep.size() / 2]);
  };

  CompileOptions VOpts = Opts;
  VOpts.Backend = BackendKind::VCode;

  AppSet Set;
  std::vector<Row> Rows;
  // Each workload's two backends are measured back to back, so a host
  // slowdown lands on both halves of its ratio.
  for (const AppCase &App : Set.cases()) {
    Row R;
    R.Name = App.Name;
    R.Cycles = measure(App, Opts, R.MachineInstrs, &R.SteadyAllocs);
    R.ArenaHighWater = CC.arenaHighWater();
    R.VcodeCycles = measure(App, VOpts, R.VcodeInstrs);
    if (R.Cycles < 0 || R.VcodeCycles <= 0) {
      std::fprintf(stderr, "FAIL: %s did not compile\n", App.Name.c_str());
      return 1;
    }
    R.Ratio = R.Cycles / R.VcodeCycles;
    R.SeedRatio = seedRatio(App.Name);
    Rows.push_back(R);
  }

  const char *BaselinePath = std::getenv("TICKC_OVERHEAD_BASELINE");
  if (!BaselinePath)
    BaselinePath = "BENCH_overhead.json";
  bool HadBaseline = loadBaseline(BaselinePath, Rows);
  for (Row &R : Rows)
    if (R.BaselineRatio <= 0)
      R.BaselineRatio = R.Ratio; // First run: record, don't gate.

  std::printf("%-8s %7s %9s %9s %7s %7s %7s %7s %7s\n", "bench", "instrs",
              "icode", "vcode", "i/v", "seed", "base", "i-cpi", "allocs");
  printRule();
  bool Ok = true;
  for (const Row &R : Rows) {
    std::printf("%-8s %7u %9.0f %9.0f %7.2f %7.2f %7.2f %7.1f %7llu\n",
                R.Name.c_str(), R.MachineInstrs, R.Cycles, R.VcodeCycles,
                R.Ratio, R.SeedRatio, R.BaselineRatio,
                R.MachineInstrs ? R.Cycles / R.MachineInstrs : 0.0,
                static_cast<unsigned long long>(R.SteadyAllocs));
    if (R.SteadyAllocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %s performed %llu arena allocations in steady "
                   "state (want 0)\n",
                   R.Name.c_str(),
                   static_cast<unsigned long long>(R.SteadyAllocs));
      Ok = false;
    }
    if (HadBaseline && R.Ratio > R.BaselineRatio * HeadRoom) {
      std::fprintf(stderr,
                   "FAIL: %s icode/vcode %.2f regressed past baseline %.2f\n",
                   R.Name.c_str(), R.Ratio, R.BaselineRatio);
      Ok = false;
    }
    if (R.SeedRatio > 0 && R.Ratio > R.SeedRatio * HeadRoom) {
      std::fprintf(stderr,
                   "FAIL: %s icode/vcode %.2f exceeds %.1fx the seed %.2f\n",
                   R.Name.c_str(), R.Ratio, HeadRoom, R.SeedRatio);
      Ok = false;
    }
  }
  printRule();
  std::printf("context arena high water: %zu bytes\n", CC.arenaHighWater());

  std::FILE *F = std::fopen("BENCH_overhead.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_overhead.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"benchmark\": \"compile_overhead\",\n"
               "  \"units\": \"median steady-state compile cycles per "
               "function (ICODE linear scan, VCODE) and their ratio\",\n"
               "  \"reps\": %u,\n  \"workloads\": [\n",
               Reps);
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"machine_instrs\": %u, "
                 "\"vcode_machine_instrs\": %u, "
                 "\"icode_cycles\": %.0f, \"vcode_cycles\": %.0f, "
                 "\"ratio\": %.3f, \"seed_ratio\": %.3f, "
                 "\"baseline_ratio\": %.3f, "
                 "\"steady_state_allocs\": %llu, "
                 "\"arena_high_water_bytes\": %zu}%s\n",
                 R.Name.c_str(), R.MachineInstrs, R.VcodeInstrs, R.Cycles,
                 R.VcodeCycles, R.Ratio, R.SeedRatio, R.BaselineRatio,
                 static_cast<unsigned long long>(R.SteadyAllocs),
                 R.ArenaHighWater, I + 1 == Rows.size() ? "" : ",");
  }
  // The metrics block rides after the workloads array; loadBaseline's
  // scanner keys on `"name": "<workload>"` pairs, which snapshotJson never
  // emits, so old and new files stay mutually parseable.
  std::fprintf(F, "  ],\n  \"metrics\": %s\n}\n",
               obs::MetricsRegistry::global().snapshotJson(2).c_str());
  std::fclose(F);
  std::printf("wrote BENCH_overhead.json%s\n",
              HadBaseline ? "" : " (first run: recorded as baseline)");

  std::printf("%s", obs::renderReport().c_str());
  return Ok ? 0 : 1;
}
