//===- apps/Newton.h - Parameterized root finding ---------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `ntn` benchmark (§6.2, "Parameterized functions"): a
/// Newton-Raphson solver whose function and derivative are supplied as code
/// fragments. The static version calls f and f' through function pointers
/// every iteration; the `C version splices the cspecs for f(x) = (x+1)^3
/// and f'(x) = 3(x+1)^2 directly into the iteration loop.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_APPS_NEWTON_H
#define TICKC_APPS_NEWTON_H

#include "cache/CompileService.h"
#include "core/Compile.h"

namespace tcc {
namespace apps {

class NewtonApp {
public:
  explicit NewtonApp(double Tolerance = 1e-9, unsigned MaxIter = 100)
      : Tol(Tolerance), MaxIter(MaxIter) {}

  double solveStaticO0(double X0) const;
  double solveStaticO2(double X0) const;

  /// Instantiates `double solve(double x0)` with f and f' inlined.
  core::CompiledFn specialize(const core::CompileOptions &Opts) const;

  /// Tiered instantiation: the PCODE baseline now, ICODE once hot. Call
  /// as `TF->call<double(double)>(X0)`.
  tier::TieredFnHandle specializeTiered(
      cache::CompileService &Service, tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  double tolerance() const { return Tol; }

private:
  double Tol;
  unsigned MaxIter;
};

} // namespace apps
} // namespace tcc

#endif // TICKC_APPS_NEWTON_H
