//===- bench/compile_overhead.cpp - Zero-allocation compile fast path --------==//
//
// The CI gate for compile-path overhead: measures steady-state ICODE
// (linear scan) instantiation cost in cycles per generated instruction for
// the paper's fig7 workloads, compiling through a warmed CompileContext
// into the code heap. Writes BENCH_overhead.json and fails when
//
//   * any steady-state compile grows the context arena (compile.allocs
//     must stay zero once the context is warm), or
//   * cycles/instruction regresses past the recorded baseline (the file
//     named by TICKC_OVERHEAD_BASELINE, default BENCH_overhead.json from a
//     previous run; on first run the current numbers become the baseline),
//     or
//   * cycles/instruction exceeds the pre-arena seed measurement embedded
//     below — the hard "never slower than before the zero-allocation
//     rework" line.
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

/// Pre-PR seed: the same workloads measured with the identical protocol
/// (pooled regions, ICODE + linear scan, instantiate-only cycles, median
/// of 100 reps after 2 warmup rounds) on the commit before the
/// arena-backed compile path and dual-mapped pool regions landed. The
/// speedup column reports current CPI against these.
struct SeedEntry {
  const char *Name;
  double Cpi;
};
constexpr SeedEntry Seed[] = {
    {"hash", 153.2}, {"ms", 244.7},    {"heap", 136.2}, {"ntn", 190.0},
    {"cmp", 174.6},  {"query", 235.2}, {"mshl", 164.4}, {"umshl", 138.0},
    {"pow", 160.1},  {"binary", 102.8}, {"dp", 169.2},
};

double seedCpi(const std::string &Name) {
  for (const SeedEntry &E : Seed)
    if (Name == E.Name)
      return E.Cpi;
  return 0;
}

struct Row {
  std::string Name;
  double Cpi = 0;          ///< Measured this run (ICODE, the gated column).
  double VcodeCpi = 0;     ///< Same protocol, VCODE backend (context only).
  double PcodeCpi = 0;     ///< Same protocol, PCODE copy-and-patch backend.
  double SeedCpi = 0;      ///< Embedded pre-PR measurement.
  double BaselineCpi = 0;  ///< Carried from the baseline file (or == Cpi).
  unsigned MachineInstrs = 0;
  std::uint64_t SteadyAllocs = 0; ///< Arena mallocs during measured reps.
  std::size_t ArenaHighWater = 0;
};

/// Pulls "name": "<X>" ... "baseline_cpi": <V> pairs out of a previous
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
  for (Row &R : Rows) {
    std::string Needle = "\"name\": \"" + R.Name + "\"";
    std::size_t At = Text.find(Needle);
    if (At == std::string::npos)
      continue;
    std::size_t Key = Text.find("\"baseline_cpi\":", At);
    if (Key == std::string::npos)
      continue;
    R.BaselineCpi = std::strtod(Text.c_str() + Key + 15, nullptr);
  }
  return true;
}

} // namespace

int main() {
  std::printf("Compile overhead: steady-state cycles per generated "
              "instruction, per backend\n");
  std::printf("(pooled CompileContext; median of 100 reps after warmup; "
              "icode column gated)\n");
  printRule();

  CompileContext CC;
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  Opts.Ctx = &CC;

  obs::Counter &AllocsCtr =
      obs::MetricsRegistry::global().counter(obs::names::CompileAllocs);

  constexpr unsigned Warmup = 2, Reps = 100;
  // Same protocol (warmup, median of Reps, pooled context) for every
  // backend. Only the ICODE column is gated; the VCODE and PCODE columns
  // put all three instantiation strategies side by side.
  auto measureCpi = [&](const AppCase &App, CompileOptions &O,
                        unsigned &InstrsOut,
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
    std::uint64_t Median = PerRep[PerRep.size() / 2];
    if (AllocsOut)
      *AllocsOut = AllocsCtr.value() - AllocsBefore;
    return InstrsOut ? static_cast<double>(Median) / InstrsOut : 0;
  };

  CompileOptions VOpts = Opts, POpts = Opts;
  VOpts.Backend = BackendKind::VCode;
  POpts.Backend = BackendKind::PCode;

  AppSet Set;
  std::vector<Row> Rows;
  // The gated ICODE loop runs alone first, identical to the protocol the
  // recorded baselines used. Interleaving the informational backends here
  // triples the sustained load, drops the core clock, and inflates the
  // constant-rate TSC numbers past the baseline headroom.
  for (const AppCase &App : Set.cases()) {
    Row R;
    R.Name = App.Name;
    R.Cpi = measureCpi(App, Opts, R.MachineInstrs, &R.SteadyAllocs);
    if (R.Cpi < 0) {
      std::fprintf(stderr, "FAIL: %s did not compile\n", App.Name.c_str());
      return 1;
    }
    R.SeedCpi = seedCpi(App.Name);
    R.ArenaHighWater = CC.arenaHighWater();
    Rows.push_back(R);
  }
  // Informational columns: the same workloads through VCODE and the PCODE
  // copy-and-patch backend, measured after the gated loop so they cannot
  // perturb it. Any frequency drift lands here, where nothing gates.
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const AppCase &App = Set.cases()[I];
    unsigned Scratch = 0;
    Rows[I].VcodeCpi = measureCpi(App, VOpts, Scratch);
    Rows[I].PcodeCpi = measureCpi(App, POpts, Scratch);
    if (Rows[I].VcodeCpi < 0 || Rows[I].PcodeCpi < 0) {
      std::fprintf(stderr, "FAIL: %s did not compile\n", App.Name.c_str());
      return 1;
    }
  }

  const char *BaselinePath = std::getenv("TICKC_OVERHEAD_BASELINE");
  if (!BaselinePath)
    BaselinePath = "BENCH_overhead.json";
  bool HadBaseline = loadBaseline(BaselinePath, Rows);
  for (Row &R : Rows)
    if (R.BaselineCpi <= 0)
      R.BaselineCpi = R.Cpi; // First run: record, don't gate.

  std::printf("%-8s %7s %7s %7s %8s %8s %9s %9s %7s\n", "bench", "instrs",
              "vcode", "pcode", "icode", "seed", "speedup", "baseline",
              "allocs");
  printRule();
  unsigned NumFaster = 0;
  bool Ok = true;
  for (const Row &R : Rows) {
    double Speedup = R.Cpi > 0 ? R.SeedCpi / R.Cpi : 0;
    NumFaster += Speedup >= 1.5;
    std::printf("%-8s %7u %7.1f %7.1f %8.1f %8.1f %8.2fx %9.1f %7llu\n",
                R.Name.c_str(), R.MachineInstrs, R.VcodeCpi, R.PcodeCpi,
                R.Cpi, R.SeedCpi, Speedup, R.BaselineCpi,
                static_cast<unsigned long long>(R.SteadyAllocs));
    if (R.SteadyAllocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %s performed %llu arena allocations in steady "
                   "state (want 0)\n",
                   R.Name.c_str(),
                   static_cast<unsigned long long>(R.SteadyAllocs));
      Ok = false;
    }
    // Gate against the recorded machine-local baseline and against the
    // embedded pre-PR seed. The baseline head room is wide (1.5x) on
    // purpose: the TSC is constant-rate, so CPU frequency scaling on a
    // shared runner swings measured cycles ~25-30% run to run, while the
    // regressions this gate exists for (losing the arena fast path or the
    // syscall-free code install) are 2-3x effects.
    if (HadBaseline && R.Cpi > R.BaselineCpi * 1.50) {
      std::fprintf(stderr,
                   "FAIL: %s cycles/insn %.1f regressed past baseline %.1f\n",
                   R.Name.c_str(), R.Cpi, R.BaselineCpi);
      Ok = false;
    }
    if (R.SeedCpi > 0 && R.Cpi > R.SeedCpi * 1.50) {
      std::fprintf(stderr,
                   "FAIL: %s cycles/insn %.1f exceeds pre-arena seed %.1f\n",
                   R.Name.c_str(), R.Cpi, R.SeedCpi);
      Ok = false;
    }
  }
  printRule();
  std::printf("workloads at >= 1.5x vs pre-arena seed: %u of %zu\n",
              NumFaster, Rows.size());
  std::printf("context arena high water: %zu bytes; context pool n/a "
              "(single context)\n",
              CC.arenaHighWater());

  std::FILE *F = std::fopen("BENCH_overhead.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_overhead.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"benchmark\": \"compile_overhead\",\n"
               "  \"units\": \"cycles per generated instruction (ICODE, "
               "linear scan, steady state)\",\n"
               "  \"reps\": %u,\n  \"workloads\": [\n",
               Reps);
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"machine_instrs\": %u, "
                 "\"cpi\": %.2f, \"vcode_cpi\": %.2f, \"pcode_cpi\": %.2f, "
                 "\"seed_cpi\": %.2f, "
                 "\"speedup_vs_seed\": %.3f, \"baseline_cpi\": %.2f, "
                 "\"steady_state_allocs\": %llu, "
                 "\"arena_high_water_bytes\": %zu}%s\n",
                 R.Name.c_str(), R.MachineInstrs, R.Cpi, R.VcodeCpi,
                 R.PcodeCpi, R.SeedCpi,
                 R.Cpi > 0 ? R.SeedCpi / R.Cpi : 0, R.BaselineCpi,
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
