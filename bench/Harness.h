//===- bench/Harness.h - Shared measurement utilities ----------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing helpers for the paper-reproduction benchmarks. Following the
/// paper's methodology (§6.1): run enough trials to get stable numbers,
/// divide by iteration count for the per-run cost; report dynamic
/// compilation in cycles per generated instruction and run times as ratios.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_BENCH_HARNESS_H
#define TICKC_BENCH_HARNESS_H

#include "core/Compile.h"
#include "support/Timing.h"

#include <cstdint>
#include <cstdio>
#include <functional>

namespace tcc {
namespace bench {

/// Average wall-clock nanoseconds of one call to \p Op, growing the
/// iteration count until at least \p MinMs of work is measured.
inline double nsPerOp(const std::function<void()> &Op, double MinMs = 10) {
  Op(); // Warm caches and branch predictors.
  std::uint64_t Iters = 1;
  while (true) {
    std::uint64_t T0 = readMonotonicNanos();
    for (std::uint64_t I = 0; I < Iters; ++I)
      Op();
    auto Elapsed = static_cast<double>(readMonotonicNanos() - T0);
    if (Elapsed > MinMs * 1e6 || Iters >= (1ull << 30))
      return Elapsed / static_cast<double>(Iters);
    Iters *= Elapsed < 1e5 ? 10 : 2;
  }
}

/// One dynamic-compilation cost sample, averaged over \p Reps fresh
/// instantiations. SpecNs is specification time (closure construction);
/// InstantiateNs is the compile() call itself.
struct CompileCost {
  double TotalNs = 0;
  double InstantiateNs = 0;
  double SpecNs = 0;
  unsigned MachineInstrs = 0;
  core::DynStats Stats; ///< From the last instantiation.
  /// Each phase's cycles averaged over the same instantiations as
  /// InstantiateNs, so the non-verify phases sum to InstantiateNs (in
  /// cycles) exactly.
  double PhaseCycles[obs::NumCompilePhases] = {};

  double phaseCycles(obs::CompilePhase P) const {
    return PhaseCycles[static_cast<unsigned>(P)];
  }

  double cyclesPerInstr() const {
    if (!MachineInstrs)
      return 0;
    return InstantiateNs * cyclesPerNano() / MachineInstrs;
  }
};

inline CompileCost measureCompile(
    const std::function<core::CompiledFn(const core::CompileOptions &)>
        &Specialize,
    const core::CompileOptions &Opts, unsigned Reps = 30) {
  CompileCost Cost;
  double TotalNs = 0, InstNs = 0;
  core::CompiledFn Last;
  for (unsigned R = 0; R < Reps; ++R) {
    std::uint64_t T0 = readMonotonicNanos();
    core::CompiledFn F = Specialize(Opts);
    TotalNs += static_cast<double>(readMonotonicNanos() - T0);
    InstNs += static_cast<double>(F.stats().CyclesTotal) / cyclesPerNano();
    for (unsigned P = 0; P < obs::NumCompilePhases; ++P)
      Cost.PhaseCycles[P] +=
          static_cast<double>(F.stats().Cycles.Cycles[P]) / Reps;
    if (R + 1 == Reps)
      Last = std::move(F);
  }
  Cost.TotalNs = TotalNs / Reps;
  Cost.InstantiateNs = InstNs / Reps;
  Cost.SpecNs = Cost.TotalNs - Cost.InstantiateNs;
  if (Cost.SpecNs < 0)
    Cost.SpecNs = 0;
  Cost.Stats = Last.stats();
  Cost.MachineInstrs = Last.stats().MachineInstrs;
  return Cost;
}

/// Prints a rule line matching the paper's terse table style.
inline void printRule(unsigned Width = 78) {
  for (unsigned I = 0; I < Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

} // namespace bench
} // namespace tcc

#endif // TICKC_BENCH_HARNESS_H
