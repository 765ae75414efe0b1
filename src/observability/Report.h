//===- observability/Report.h - tickc-report text renderer -----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the metrics registry and the generated-code profile as a text
/// report: a per-phase stacked compile-cost breakdown (this repo's answer
/// to the paper's Figures 6 and 7), cache and code-heap traffic, the §4.4 partial
/// evaluation decisions, compile-latency distributions, the hottest
/// profiled dynamic functions (read from the runtime symbol table: a
/// function whose symbol was dropped on a full table is not listed), the
/// sampler's hotspots and the flight recorder's tail. Benches print it
/// after a run; tests assert on its invariants (phase sum ≈ total).
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_REPORT_H
#define TICKC_OBSERVABILITY_REPORT_H

#include "observability/Metrics.h"

#include <string>

namespace tcc {
namespace obs {

/// Renders \p S (plus the runtime symbol table's live profiled functions
/// and hotspots) as a multi-line report.
std::string renderReport(const MetricsSnapshot &S);

/// Convenience: snapshot the global registry and render it.
std::string renderReport();

/// Sum of the per-phase cycle counters in \p S — the stacked total the
/// breakdown is built from; compare against names::CompileCyclesTotal.
std::uint64_t phaseCycleSum(const MetricsSnapshot &S);

/// Drift guard for the phase accounting: true when the per-phase cycle sum
/// covers at least 95% of names::CompileCyclesTotal (or nothing was
/// compiled). A false return means a timed region lost its obs::Phase —
/// renderReport() prints a WARNING instead of silently showing stale
/// percentages, and tests assert this stays true.
bool phaseCoverageOk(const MetricsSnapshot &S);

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_REPORT_H
