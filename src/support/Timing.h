//===- support/Timing.h - Cycle and wall-clock measurement -----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement helpers. The paper reports dynamic-compilation costs in
/// processor cycles per generated instruction (its SparcStation 5 ran at
/// 70 MHz); we report TSC ticks on x86-64, plus wall-clock nanoseconds.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SUPPORT_TIMING_H
#define TICKC_SUPPORT_TIMING_H

#include <cstdint>
#include <x86intrin.h>

namespace tcc {

/// Reads the time-stamp counter. rdtscp waits for all prior instructions to
/// execute (though later ones may begin), which is serialized enough for
/// coarse phase timing; use the Begin/End pair below for short spans.
inline std::uint64_t readCycleCounter() {
  unsigned Aux;
  return __rdtscp(&Aux);
}

/// Fenced TSC read opening a short measured span: the lfence keeps rdtsc
/// from executing before earlier instructions retire, so sub-microsecond
/// phases stop under-reporting (work drifting ahead of the start stamp).
inline std::uint64_t readCycleCounterBegin() {
  _mm_lfence();
  return __rdtsc();
}

/// Fenced TSC read closing a short measured span: rdtscp orders the read
/// after the span's instructions, and the trailing lfence keeps whatever
/// follows from starting before the stamp is taken.
inline std::uint64_t readCycleCounterEnd() {
  unsigned Aux;
  std::uint64_t T = __rdtscp(&Aux);
  _mm_lfence();
  return T;
}

/// Monotonic wall-clock time in nanoseconds.
std::uint64_t readMonotonicNanos();

/// Estimated TSC ticks per nanosecond, measured once at first use. Used to
/// convert between the two reporting units in the benchmark harnesses.
double cyclesPerNano();

} // namespace tcc

#endif // TICKC_SUPPORT_TIMING_H
