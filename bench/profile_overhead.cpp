//===- bench/profile_overhead.cpp - Sampling profiler overhead gate ----------==//
//
// The CI gate for runtime-observability cost. The point of a sampling
// profiler is that it is cheap enough to leave on in production; this pins
// that claim to a number every run.
//
// The gate: the cost of one sample times the 997 Hz rate must stay under 1%
// of a CPU. A sample's cost is timed directly, in bursts of synchronous
// raise(SIGPROF) with the sampler's real handler installed and its timer
// disarmed: each raise is a full delivery (kernel entry, the handler,
// sigreturn), plus raise()'s own mask syscalls, so the figure is an upper
// bound on what a timer tick costs the interrupted thread. The raising PC
// lies in libc, so every sample is a miss that scans every used slot of the
// symbol table (the handler's worst case; the fig7 workloads below are live
// and registered). The per-sample figure is the median of the bursts.
//
// Reported, not gated: steady-state generated-code throughput for the
// paper's fig7 workloads with the sampler off and armed at 997 Hz. Per
// workload, each round times one off window and one on window of a fixed
// calibrated iteration count back-to-back (alternating which side goes
// first), and the pair yields one on/off ratio; the per-workload overhead
// is the median ratio across rounds, and the summary is the median of those
// across the 11 workloads. That end-to-end ratio moves by about ±1.5% from
// run to run on a shared VM, wider than the 0.1% it is meant to resolve, so
// it cannot carry a < 1% gate; the per-sample cost can.
//
// Writes BENCH_profile.json and BENCH_profile.folded (flamegraph-ready
// folded stacks from the sampled half, uploaded as a CI artifact).
//
//===----------------------------------------------------------------------===//

#include "bench/AppAdapters.h"
#include "bench/Harness.h"
#include "observability/Metrics.h"
#include "observability/RuntimeSymbols.h"
#include "observability/Sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <signal.h>

using namespace tcc;
using namespace tcc::bench;
using namespace tcc::core;

namespace {

constexpr unsigned SampleHz = 997;
constexpr unsigned Rounds = 9;
constexpr double MeasureMs = 20;
constexpr unsigned Bursts = 9;
constexpr unsigned RaisesPerBurst = 2000;
/// Gate: per-sample cost x SampleHz, as a share of one CPU.
constexpr double MaxCpuPct = 1.0;

struct Row {
  std::string Name;
  double BaseNs = 0;     ///< Best-of-rounds ns/op, sampler disarmed.
  double SampledNs = 0;  ///< Best-of-rounds ns/op, sampler at 997 Hz.
  double OverheadPct = 0; ///< Median of per-round paired on/off ratios.
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// Wall time of \p Iters repetitions of \p Op, in ns.
double timeOps(const std::function<void(void *)> &Op, void *Entry,
               std::uint64_t Iters) {
  std::uint64_t T0 = readMonotonicNanos();
  for (std::uint64_t I = 0; I < Iters; ++I)
    Op(Entry);
  return static_cast<double>(readMonotonicNanos() - T0);
}

/// Median ns per synchronous SIGPROF delivered to the installed handler.
double nsPerSample() {
  std::vector<double> PerBurst;
  for (unsigned B = 0; B < Bursts; ++B) {
    std::uint64_t T0 = readMonotonicNanos();
    for (unsigned I = 0; I < RaisesPerBurst; ++I)
      raise(SIGPROF);
    PerBurst.push_back(static_cast<double>(readMonotonicNanos() - T0) /
                       RaisesPerBurst);
  }
  return median(PerBurst);
}

} // namespace

int main() {
  std::printf("Profile overhead: fig7 steady-state throughput, sampler off "
              "vs %u Hz\n",
              SampleHz);
  std::printf("(median of %u paired on/off ratios per workload, reported; "
              "gate: per-sample cost x %u Hz < %.0f%% of a CPU)\n",
              Rounds, SampleHz, MaxCpuPct);
  printRule();

  obs::Sampler &S = obs::Sampler::global();
  AppSet Set;

  // Specialize everything up front with symbol names, so the sampled half
  // also produces an attributed folded-stack profile worth uploading.
  std::vector<CompiledFn> Fns;
  for (const AppCase &App : Set.cases()) {
    CompileOptions O;
    O.Backend = BackendKind::ICode;
    O.Profile = true;
    O.ProfileName = App.Name.c_str();
    CompiledFn F = App.Specialize(O);
    if (!F.valid()) {
      std::fprintf(stderr, "FAIL: %s did not compile\n", App.Name.c_str());
      return 1;
    }
    Fns.push_back(std::move(F));
  }

  std::vector<Row> Rows(Set.cases().size());
  // Calibrate a fixed per-workload iteration count (~MeasureMs of work) so
  // every timed window below does identical work — the ramp-up heuristic in
  // nsPerOp would otherwise vary the footprint between the compared sides.
  std::vector<std::uint64_t> Iters(Set.cases().size(), 1);
  for (std::size_t I = 0; I < Set.cases().size(); ++I) {
    const AppCase &App = Set.cases()[I];
    double Ns = nsPerOp([&] { App.RunDynamic(Fns[I].entry()); }, MeasureMs);
    Iters[I] = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(MeasureMs * 1e6 / Ns));
  }

  // Each round produces one paired on/off ratio per workload: the two
  // windows run back-to-back (alternating which side goes first) so clock
  // drift cancels within the pair, and a descheduling spike corrupts a
  // single round's ratio, which the median across rounds discards.
  // Best-of-rounds ns/op per side is also kept for the report.
  std::vector<double> BestOff(Set.cases().size(), 1e300),
      BestOn(Set.cases().size(), 1e300);
  std::vector<std::vector<double>> Ratios(Set.cases().size());
  for (unsigned R = 0; R < Rounds; ++R) {
    for (std::size_t I = 0; I < Set.cases().size(); ++I) {
      const AppCase &App = Set.cases()[I];
      double Off = 0, On = 0;
      auto measureOff = [&] {
        S.stop();
        Off = timeOps(App.RunDynamic, Fns[I].entry(), Iters[I]);
      };
      auto measureOn = [&] {
        if (!S.start(SampleHz)) {
          std::fprintf(stderr, "FAIL: could not arm the %u Hz sampler\n",
                       SampleHz);
          std::exit(1);
        }
        On = timeOps(App.RunDynamic, Fns[I].entry(), Iters[I]);
      };
      if (R % 2 == 0) {
        measureOff();
        measureOn();
      } else {
        measureOn();
        measureOff();
      }
      Ratios[I].push_back(On / Off);
      BestOff[I] = std::min(BestOff[I], Off / Iters[I]);
      BestOn[I] = std::min(BestOn[I], On / Iters[I]);
    }
  }
  S.stop();

  std::printf("%-8s %12s %12s %10s\n", "bench", "off ns/op", "on ns/op",
              "overhead");
  printRule();
  double LogSum = 0;
  std::vector<double> Overheads;
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    Rows[I].Name = Set.cases()[I].Name;
    Rows[I].BaseNs = BestOff[I];
    Rows[I].SampledNs = BestOn[I];
    Rows[I].OverheadPct = (median(Ratios[I]) - 1.0) * 100.0;
    LogSum += std::log(1.0 + Rows[I].OverheadPct / 100.0);
    Overheads.push_back(Rows[I].OverheadPct);
    std::printf("%-8s %12.1f %12.1f %9.2f%%\n", Rows[I].Name.c_str(),
                Rows[I].BaseNs, Rows[I].SampledNs, Rows[I].OverheadPct);
  }
  double GeomeanPct = (std::exp(LogSum / Rows.size()) - 1.0) * 100.0;
  double MedianPct = median(Overheads);
  printRule();

  std::uint64_t Total = S.totalSamples(), Hits = S.hitSamples();
  double AttribPct = Total ? 100.0 * Hits / Total : 0;
  std::printf("median throughput overhead at %u Hz: %.3f%% (reported); "
              "geomean %.3f%%\n",
              SampleHz, MedianPct, GeomeanPct);
  std::printf("samples: %llu total, %llu in generated code (%.1f%% "
              "attributed)\n",
              static_cast<unsigned long long>(Total),
              static_cast<unsigned long long>(Hits), AttribPct);

  if (!S.writeFolded("BENCH_profile.folded"))
    std::fprintf(stderr, "warning: could not write BENCH_profile.folded\n");
  else
    std::printf("wrote BENCH_profile.folded (flamegraph-ready)\n");

  // The gated quantity. The timer is disarmed (S.stop() above) and the
  // handler stays installed, so every SIGPROF below runs the real handler
  // once; the miss counter proves it did.
  std::uint64_t MissesBefore = S.missSamples();
  double SampleNs = nsPerSample();
  std::uint64_t Raised = S.missSamples() - MissesBefore;
  double CpuPct = SampleNs * SampleHz / 1e7;
  std::printf("per-sample cost: %.0f ns (median of %u bursts of %u raises; "
              "miss path, %zu live symbols) -> %.3f%% of a CPU at %u Hz "
              "(gate: < %.0f%%)\n",
              SampleNs, Bursts, RaisesPerBurst,
              obs::RuntimeSymbolTable::global().liveCount(), CpuPct, SampleHz,
              MaxCpuPct);
  if (Raised != std::uint64_t(Bursts) * RaisesPerBurst) {
    std::fprintf(stderr,
                 "FAIL: %llu of %u raised samples reached the handler\n",
                 static_cast<unsigned long long>(Raised),
                 Bursts * RaisesPerBurst);
    return 1;
  }

  std::FILE *F = std::fopen("BENCH_profile.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_profile.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"benchmark\": \"profile_overhead\",\n"
               "  \"units\": \"ns per operation (best of %u rounds); "
               "overhead_pct is the median paired on/off ratio; sample_ns "
               "is the median cost of one raised sample, and sample_cpu_pct "
               "(the gated figure) is that cost at sample_hz\",\n"
               "  \"sample_hz\": %u,\n  \"workloads\": [\n",
               Rounds, SampleHz);
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"base_ns_per_op\": %.2f, "
                 "\"sampled_ns_per_op\": %.2f, \"overhead_pct\": %.3f}%s\n",
                 R.Name.c_str(), R.BaseNs, R.SampledNs, R.OverheadPct,
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(F,
               "  ],\n  \"median_overhead_pct\": %.3f,\n"
               "  \"geomean_overhead_pct\": %.3f,\n"
               "  \"sample_ns\": %.1f,\n  \"sample_cpu_pct\": %.4f,\n"
               "  \"sample_cpu_pct_gate\": %.1f,\n"
               "  \"samples_total\": %llu,\n  \"samples_attributed\": %llu,\n"
               "  \"attribution_pct\": %.2f,\n  \"metrics\": %s\n}\n",
               MedianPct, GeomeanPct, SampleNs, CpuPct, MaxCpuPct,
               static_cast<unsigned long long>(Total),
               static_cast<unsigned long long>(Hits), AttribPct,
               obs::MetricsRegistry::global().snapshotJson(2).c_str());
  std::fclose(F);
  std::printf("wrote BENCH_profile.json\n");

  if (CpuPct >= MaxCpuPct) {
    std::fprintf(stderr,
                 "FAIL: a sample costs %.0f ns, %.3f%% of a CPU at %u Hz "
                 "(gate: < %.0f%%)\n",
                 SampleNs, CpuPct, SampleHz, MaxCpuPct);
    return 1;
  }
  return 0;
}
