//===- observability/Sampler.h - SIGPROF sampling profiler -----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process sampling profiler for dynamically generated code. A POSIX
/// CPU-time timer (timer_create on CLOCK_PROCESS_CPUTIME_ID) delivers
/// SIGPROF at `TICKC_SAMPLE_HZ`; the handler reads the interrupted PC from
/// the ucontext and resolves it against the RuntimeSymbolTable with one
/// async-signal-safe lock-free scan. Each sample is counted once: the
/// handler bumps the sample.total counter, sample.hits or sample.misses,
/// and, on a hit, the owning symbol's sample count. Those per-symbol counts
/// feed the report's hotspot table and the folded stacks; no tier decision
/// reads them (promotion is driven by the invocation counter, Tier.h).
///
/// Everything the handler touches is resolved on a normal thread inside
/// start() before the timer is armed: the metric counters (relaxed
/// fetch_add, signal-safe) and the symbol table singleton. The handler
/// performs no allocation, locking, or syscalls.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_SAMPLER_H
#define TICKC_OBSERVABILITY_SAMPLER_H

#include <cstdint>
#include <string>

namespace tcc {
namespace obs {

class Sampler {
public:
  /// The process-wide sampler (never destroyed; the SIGPROF handler may
  /// outlive any scope).
  static Sampler &global();

  /// Installs the SIGPROF handler and arms a CPU-time timer at \p Hz
  /// (clamped to [1, 10000]). Idempotent: restarting at a new rate re-arms
  /// the timer. Returns false if the timer could not be created.
  bool start(unsigned Hz);

  /// Disarms and deletes the timer. The handler stays installed (a
  /// straggler tick after stop() is harmless) but no new ticks arrive.
  void stop();

  bool running() const;
  unsigned hz() const;

  /// The sample.* counters in the metrics registry.
  std::uint64_t totalSamples() const;
  std::uint64_t hitSamples() const;  ///< Resolved to a registered region.
  std::uint64_t missSamples() const; ///< Landed outside generated code.

  /// Flamegraph-ready folded-stack lines, one per symbol with samples:
  /// `tickc;<name> <count>\n`, hottest first, with unresolved samples
  /// folded as `tickc;[native] <count>`. Feed directly to flamegraph.pl.
  std::string foldedStacks();
  bool writeFolded(const char *Path);

  /// Testing hook: zeroes the sample.* counters (does not touch the table).
  void resetForTesting();

private:
  Sampler() = default;
};

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_SAMPLER_H
