//===- tests/integration_test.cpp - Cross-module integration tests --------===//
//
// End-to-end flows that span modules: the shipped .tc example programs,
// BitVector (the liveness substrate), unchecked-getreg mode, the public
// ternary, and interactions that only appear when everything is wired
// together.
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"
#include "frontend/Interp.h"
#include "frontend/Parser.h"
#include "support/BitVector.h"
#include "support/CodeBuffer.h"
#include "vcode/VCode.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace tcc;
using namespace tcc::core;

namespace {

// --- BitVector (liveness substrate) ------------------------------------------

TEST(BitVectorTest, SetTestClear) {
  BitVector B(130);
  B.set(0);
  B.set(63);
  B.set(64);
  B.set(129);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(63));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(129));
  EXPECT_FALSE(B.test(1));
  EXPECT_EQ(B.count(), 4u);
  B.clear(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 3u);
}

TEST(BitVectorTest, UnionReportsChange) {
  BitVector A(100), B(100);
  B.set(42);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)) << "second union changes nothing";
  EXPECT_TRUE(A.test(42));
}

TEST(BitVectorTest, UnionWithMinusIsDataflowStep) {
  // LiveIn |= LiveOut - Def.
  BitVector LiveIn(10), LiveOut(10), Def(10);
  LiveOut.set(1);
  LiveOut.set(2);
  Def.set(2);
  EXPECT_TRUE(LiveIn.unionWithMinus(LiveOut, Def));
  EXPECT_TRUE(LiveIn.test(1));
  EXPECT_FALSE(LiveIn.test(2)) << "defined values are not live-in";
}

TEST(BitVectorTest, ForEachVisitsInOrder) {
  BitVector B(200);
  std::set<unsigned> Want = {3, 64, 65, 127, 128, 199};
  for (unsigned I : Want)
    B.set(I);
  std::vector<unsigned> Got;
  B.forEach([&](unsigned I) { Got.push_back(I); });
  EXPECT_TRUE(std::is_sorted(Got.begin(), Got.end()));
  EXPECT_EQ(std::set<unsigned>(Got.begin(), Got.end()), Want);
}

TEST(BitVectorTest, RandomizedAgainstSet) {
  std::mt19937 Rng(3);
  BitVector B(512);
  std::set<unsigned> Ref;
  for (int I = 0; I < 2000; ++I) {
    unsigned Bit = Rng() % 512;
    if (Rng() % 3 == 0) {
      B.clear(Bit);
      Ref.erase(Bit);
    } else {
      B.set(Bit);
      Ref.insert(Bit);
    }
  }
  EXPECT_EQ(B.count(), Ref.size());
  for (unsigned I = 0; I < 512; ++I)
    EXPECT_EQ(B.test(I), Ref.count(I) > 0) << "bit " << I;
}

// --- VCode unchecked-getreg mode (paper §5.1 fast path) --------------------------

TEST(VCodeModes, UncheckedModeWorksWithinPool) {
  CodeRegion Region(1 << 14);
  vcode::VCode V(Region.base(), Region.capacity());
  V.setSpillingEnabled(false);
  V.enter();
  vcode::Reg A = V.getreg(), B = V.getreg();
  V.bindArgI(0, A);
  V.bindArgI(1, B);
  V.mulI(A, A, B);
  V.retI(A);
  V.finish();
  Region.makeExecutable();
  EXPECT_EQ(reinterpret_cast<int (*)(int, int)>(Region.base())(6, 7), 42);
}

TEST(VCodeModes, UncheckedModeAbortsOnExhaustion) {
  EXPECT_DEATH(
      {
        CodeRegion Region(1 << 14);
        vcode::VCode V(Region.base(), Region.capacity());
        V.setSpillingEnabled(false);
        for (int I = 0; I <= vcode::VCode::NumIntPool; ++I)
          (void)V.getreg();
      },
      "register pool exhausted");
}

TEST(VCodeModes, MagicConstantsMatchDivision) {
  std::mt19937 Rng(17);
  for (int T = 0; T < 500; ++T) {
    auto D = static_cast<std::int32_t>(Rng());
    if (D == 0 || D == INT32_MIN || D == 1 || D == -1)
      continue;
    auto [Magic, Shift] = vcode::VCode::signedDivisionMagic(D);
    // Validate on random dividends via the reference recipe.
    for (int K = 0; K < 20; ++K) {
      auto N = static_cast<std::int32_t>(Rng());
      std::int64_t Prod = static_cast<std::int64_t>(Magic) * N;
      auto Q = static_cast<std::int32_t>(Prod >> 32);
      if (Magic < 0 && D > 0)
        Q += N;
      if (Magic > 0 && D < 0)
        Q -= N;
      Q >>= Shift;
      Q += static_cast<std::uint32_t>(Q) >> 31;
      EXPECT_EQ(Q, N / D) << N << " / " << D;
    }
  }
}

// --- Public ternary -------------------------------------------------------------

class CondBothBackends : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, CondBothBackends,
                         ::testing::Values(BackendKind::VCode,
                                           BackendKind::ICode));

TEST_P(CondBothBackends, TernaryExpression) {
  Context C;
  VSpec A = C.paramInt(0), B = C.paramInt(1);
  // max(a, b) via ?:.
  Expr M = C.cond(Expr(A) > Expr(B), Expr(A), Expr(B));
  CompileOptions O;
  O.Backend = GetParam();
  CompiledFn F = compileFn(C, C.ret(M), EvalType::Int, O);
  auto *Fn = F.as<int(int, int)>();
  EXPECT_EQ(Fn(3, 9), 9);
  EXPECT_EQ(Fn(9, 3), 9);
  EXPECT_EQ(Fn(-5, -7), -5);
}

TEST_P(CondBothBackends, TernaryDouble) {
  Context C;
  VSpec X = C.paramDouble(0);
  Expr Abs = C.cond(Expr(X) < C.doubleConst(0.0), C.neg(Expr(X)), Expr(X));
  CompileOptions O;
  O.Backend = GetParam();
  CompiledFn F = compileFn(C, C.ret(Abs), EvalType::Double, O);
  auto *Fn = F.as<double(double)>();
  EXPECT_DOUBLE_EQ(Fn(-2.5), 2.5);
  EXPECT_DOUBLE_EQ(Fn(2.5), 2.5);
}

// --- The shipped .tc examples run end to end ---------------------------------------

std::string exampleSource(const char *Name) {
  std::string Path = std::string(TICKC_EXAMPLES_DIR) + "/" + Name;
  FILE *F = fopen(Path.c_str(), "rb");
  if (!F)
    return {};
  std::string S;
  char Buf[4096];
  std::size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    S.append(Buf, N);
  fclose(F);
  return S;
}

TEST(TcExamples, Hello) {
  std::string Src = exampleSource("hello.tc");
  ASSERT_FALSE(Src.empty());
  auto [Code, Out] = frontend::runTickC(Src);
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "hello world\n");
}

TEST(TcExamples, DotProd) {
  std::string Src = exampleSource("dotprod.tc");
  ASSERT_FALSE(Src.empty());
  auto [Code, Out] = frontend::runTickC(Src);
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out, "dot = 57\n");
}

TEST(TcExamples, Power) {
  std::string Src = exampleSource("power.tc");
  ASSERT_FALSE(Src.empty());
  for (BackendKind B :
       {BackendKind::VCode, BackendKind::PCode, BackendKind::ICode}) {
    auto [Code, Out] = frontend::runTickC(Src, B);
    EXPECT_EQ(Code, 0);
    EXPECT_EQ(Out, "2^13 = 8192, 3^13 = 1594323\n");
  }
}

// --- Failure injection ----------------------------------------------------------------

TEST(FailureModes, UnboundLabelAsserts) {
#ifndef NDEBUG
  EXPECT_DEATH(
      {
        CodeRegion Region(1 << 14);
        vcode::VCode V(Region.base(), Region.capacity());
        V.enter();
        vcode::Label L = V.newLabel();
        V.jump(L); // never bound
        V.finish();
      },
      "unbound label");
#endif
}

TEST(FailureModes, RtEvalOfNonConstantAborts) {
  EXPECT_DEATH(
      {
        Context C;
        VSpec P = C.paramInt(0);
        // $ of a parameter cannot be evaluated at instantiation time.
        Expr Bad = C.rtEval(Expr(P) + C.intConst(1));
        compileFn(C, C.ret(Bad), EvalType::Int);
      },
      "not a run-time constant");
}

} // namespace
