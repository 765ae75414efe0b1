//===- apps/MatScale.h - Matrix scaling by a run-time constant -*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `ms` benchmark: "repeatedly scale a 100x100 matrix of
/// integers by a run-time constant" (§6.2). The dynamic version hardwires
/// the scale factor (strength-reducing the multiply) and the matrix extent.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_APPS_MATSCALE_H
#define TICKC_APPS_MATSCALE_H

#include "cache/CompileService.h"
#include "core/Compile.h"

#include <vector>

namespace tcc {
namespace apps {

class MatScaleApp {
public:
  explicit MatScaleApp(unsigned Dim = 100, int Factor = 3, unsigned Seed = 2);

  void scaleStaticO0(int *M) const;
  void scaleStaticO2(int *M) const;

  /// Instantiates `void scale(int *m)` with factor and extent hardwired.
  core::CompiledFn specialize(const core::CompileOptions &Opts) const;

  /// Tiered instantiation: the PCODE baseline now, ICODE once hot. Call
  /// as `TF->call<void(int *)>(M)`.
  tier::TieredFnHandle specializeTiered(
      cache::CompileService &Service, tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  /// A fresh working copy of the matrix.
  std::vector<int> matrix() const { return Data; }
  unsigned elems() const { return Dim * Dim; }
  int factor() const { return Factor; }

private:
  unsigned Dim;
  int Factor;
  std::vector<int> Data;
};

} // namespace apps
} // namespace tcc

#endif // TICKC_APPS_MATSCALE_H
