//===- apps/Power.cpp ------------------------------------------------------==//

#include "apps/Power.h"

#include "apps/StaticOpt.h"

using namespace tcc;
using namespace tcc::apps;
using namespace tcc::core;

// Wrapping unsigned arithmetic, like the generated imul: a signed product
// that overflows would be undefined behaviour in the reference.
#define TICKC_POW_BODY                                                         \
  {                                                                            \
    unsigned R = 1;                                                            \
    unsigned B = static_cast<unsigned>(X);                                     \
    unsigned E = N;                                                            \
    while (E) {                                                                \
      if (E & 1)                                                               \
        R = R * B;                                                             \
      B = B * B;                                                               \
      E >>= 1;                                                                 \
    }                                                                          \
    return static_cast<int>(R);                                                \
  }

TICKC_STATIC_O0 static int powO0(int X, unsigned N) TICKC_POW_BODY

TICKC_STATIC_O2 static int powO2(int X, unsigned N) TICKC_POW_BODY

int PowerApp::powStaticO0(int X) const { return powO0(X, Exponent); }
int PowerApp::powStaticO2(int X) const { return powO2(X, Exponent); }

namespace {

/// Builds the square-and-multiply chain into \p C and returns the body.
Stmt buildPowerSpec(Context &C, unsigned Exponent) {
  VSpec X = C.paramInt(0);
  VSpec Base = C.localInt();
  VSpec Acc = C.localInt();
  // The exponent loop runs at specification time; each iteration composes
  // one multiply *statement*, so the squarings interleave correctly with
  // the accumulating multiplies.
  std::vector<Stmt> Steps;
  Steps.push_back(C.assign(Base, Expr(X)));
  bool HaveAcc = false;
  unsigned E = Exponent;
  while (E) {
    if (E & 1) {
      Steps.push_back(C.assign(
          Acc, HaveAcc ? Expr(Acc) * Expr(Base) : Expr(Base)));
      HaveAcc = true;
    }
    E >>= 1;
    if (E)
      Steps.push_back(C.assign(Base, Expr(Base) * Expr(Base)));
  }
  if (!HaveAcc)
    Steps.push_back(C.assign(Acc, C.intConst(1))); // x^0
  Steps.push_back(C.ret(Acc));
  return C.block(Steps);
}

} // namespace

CompiledFn PowerApp::specialize(const CompileOptions &Opts) const {
  // Square-and-multiply composed at specification time: the exponent loop
  // runs *now*, leaving only multiplies in the dynamic code — exactly the
  // `C cspec-composition formulation of partial evaluation.
  Context C;
  return compileFn(C, buildPowerSpec(C, Exponent), EvalType::Int, Opts);
}

cache::FnHandle PowerApp::specializeCached(cache::CompileService &Service,
                                           const CompileOptions &Opts) const {
  Context C;
  return Service.getOrCompile(C, buildPowerSpec(C, Exponent), EvalType::Int,
                              Opts);
}

cache::SpecKey PowerApp::cacheKey(const CompileOptions &Opts) const {
  Context C;
  return cache::buildSpecKey(C, buildPowerSpec(C, Exponent), EvalType::Int,
                             Opts);
}

tier::TieredFnHandle
PowerApp::specializeTiered(cache::CompileService &Service,
                           tier::TierManager *Manager,
                           const CompileOptions &Opts) const {
  unsigned E = Exponent;
  return Service.getOrCompileTiered(
      [E](Context &C) { return buildPowerSpec(C, E); }, EvalType::Int, Opts,
      Manager);
}
