//===- tests/core_test.cpp - `C core semantics tests ----------------------===//
//
// Exercises the specification/instantiation pipeline on both back ends,
// including the examples from the paper itself: composition (`4+5`), the
// `$x` binding-time demonstration (§3), and dot-product unrolling (§4.4).
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"
#include "core/Context.h"

#include <gtest/gtest.h>

#include <bit>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

using namespace tcc;
using namespace tcc::core;

namespace {

class CoreBothBackends : public ::testing::TestWithParam<BackendKind> {
protected:
  CompileOptions opts() const {
    CompileOptions O;
    O.Backend = GetParam();
    return O;
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, CoreBothBackends,
                         ::testing::Values(BackendKind::VCode,
                                           BackendKind::ICode),
                         [](const auto &Info) {
                           return Info.param == BackendKind::VCode ? "VCode"
                                                                   : "ICode";
                         });

// --- Paper examples -----------------------------------------------------------

TEST_P(CoreBothBackends, ComposeFourPlusFive) {
  // int cspec c1 = `4, c2 = `5; int cspec c = `(c1 + c2);
  Context C;
  Expr C1 = C.intConst(4);
  Expr C2 = C.intConst(5);
  Expr Sum = C1 + C2;
  CompiledFn F = compileFn(C, C.ret(Sum), EvalType::Int, opts());
  EXPECT_EQ(F.as<int()>()(), 9);
}

static std::string HelloOut;
static void recordString(const char *S) { HelloOut += S; }

TEST_P(CoreBothBackends, HelloWorld) {
  // void cspec hello = `{ printf("hello world"); };
  Context C;
  static const char Msg[] = "hello world";
  Stmt Hello = C.exprStmt(
      C.callC(reinterpret_cast<const void *>(&recordString), EvalType::Void,
              {C.rcPtr(Msg)}));
  CompiledFn F = compileFn(C, Hello, EvalType::Void, opts());
  HelloOut.clear();
  F.as<void()>()();
  EXPECT_EQ(HelloOut, "hello world");
}

TEST_P(CoreBothBackends, DollarBindingTime) {
  // int x = 1; fp = compile(`{ out($x, x); }, void); x = 14; (*fp)();
  // must report $x = 1 and x = 14.
  static int X;
  X = 1;
  Context C;
  static int SeenRc, SeenFv;
  auto Out = +[](int Rc, int Fv) {
    SeenRc = Rc;
    SeenFv = Fv;
  };
  Stmt Body = C.exprStmt(C.callC(reinterpret_cast<const void *>(Out),
                                 EvalType::Void,
                                 {C.rcInt(X), C.fvInt(&X)}));
  CompiledFn F = compileFn(C, Body, EvalType::Void, opts());
  X = 14;
  F.as<void()>()();
  EXPECT_EQ(SeenRc, 1) << "$x captured at specification time";
  EXPECT_EQ(SeenFv, 14) << "free variable read at run time";
}

TEST_P(CoreBothBackends, DotProductSpecTimeComposition) {
  // The paper's first dot-product variant: spec-time loop composing
  //   sum = `(sum + col[$k] * $row[k])  for nonzero row[k].
  int Row[8] = {2, 0, 3, 0, 0, 1, 0, 5};
  Context C;
  VSpec Col = C.paramPtr(0);
  Expr Sum = C.intConst(0);
  for (int K = 0; K < 8; ++K) {
    if (!Row[K])
      continue; // Dead code never even specified.
    Expr Elem = C.index(Col, C.rcInt(K), MemType::I32);
    Sum = Sum + Elem * C.rcInt(Row[K]);
  }
  CompiledFn F = compileFn(C, C.ret(Sum), EvalType::Int, opts());
  int ColV[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  int Want = 0;
  for (int K = 0; K < 8; ++K)
    Want += ColV[K] * Row[K];
  EXPECT_EQ(F.as<int(const int *)>()(ColV), Want);
}

TEST_P(CoreBothBackends, DotProductDynamicUnrolling) {
  // The paper's second variant: `{ for (k = 0; k < $n; k++)
  //     if ($row[k]) sum += col[k] * $row[k]; return sum; }
  // k becomes a derived run-time constant; the loop unrolls; zero entries
  // vanish via dead-branch elimination.
  static int Row[8] = {2, 0, 3, 0, 0, 1, 0, 5};
  int N = 8;
  Context C;
  VSpec Col = C.paramPtr(0);
  VSpec K = C.localInt();
  VSpec Sum = C.localInt();
  Expr RowK = C.rtEval(C.index(C.rcPtr(Row), K, MemType::I32)); // $row[k]
  Stmt Body = C.ifStmt(
      RowK != C.intConst(0),
      C.assign(Sum, Expr(Sum) + C.index(Col, K, MemType::I32) * RowK));
  Stmt Fn = C.block({
      C.assign(Sum, C.intConst(0)),
      C.forStmt(K, C.intConst(0), CmpKind::LtS, C.rcInt(N), C.intConst(1),
                Body),
      C.ret(Sum),
  });
  CompiledFn F = compileFn(C, Fn, EvalType::Int, opts());
  int ColV[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  int Want = 0;
  for (int I = 0; I < 8; ++I)
    Want += ColV[I] * Row[I];
  EXPECT_EQ(F.as<int(const int *)>()(ColV), Want);
  // Unrolled + strength-reduced code has no loop: must be much smaller than
  // 8 iterations' worth of general code, and contain no backward branches.
  // Cheap proxy: fewer machine instructions than a conservative bound.
  EXPECT_LT(F.stats().MachineInstrs, 80u);
}

// --- Language building blocks ---------------------------------------------------

TEST_P(CoreBothBackends, ParamsAndArith) {
  Context C;
  VSpec A = C.paramInt(0), B = C.paramInt(1);
  CompiledFn F = compileFn(
      C, C.ret((Expr(A) + Expr(B)) * (Expr(A) - Expr(B))), EvalType::Int,
      opts());
  auto *Fn = F.as<int(int, int)>();
  for (int X : {0, 3, -5, 1000})
    for (int Y : {1, -2, 77})
      EXPECT_EQ(Fn(X, Y), (X + Y) * (X - Y));
}

TEST_P(CoreBothBackends, AllIntOperators) {
  Context C;
  VSpec A = C.paramInt(0), B = C.paramInt(1);
  Expr EA = A, EB = B;
  // ((a+b)*3 - a/b + a%b) ^ (a&b) | (a<<2) ... exercise every operator once.
  Expr E = (EA + EB) * C.intConst(3) - EA / EB + EA % EB;
  E = E ^ (EA & EB);
  E = E | (EA << C.intConst(2));
  E = E + (EB >> C.intConst(1));
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, opts());
  auto *Fn = F.as<int(int, int)>();
  auto Ref = [](int A, int B) {
    int E = (A + B) * 3 - A / B + A % B;
    E = E ^ (A & B);
    E = E | (A << 2);
    E = E + (B >> 1);
    return E;
  };
  for (int X : {7, -13, 1024, 99999})
    for (int Y : {2, -3, 17})
      EXPECT_EQ(Fn(X, Y), Ref(X, Y)) << X << "," << Y;
}

TEST_P(CoreBothBackends, WhileLoopAndComparisons) {
  // Collatz step count (bounded).
  Context C;
  VSpec N = C.paramInt(0);
  VSpec Steps = C.localInt();
  Stmt Body = C.ifStmt(
      (Expr(N) % C.intConst(2)) == C.intConst(0),
      C.assign(N, Expr(N) / C.intConst(2)),
      C.assign(N, Expr(N) * C.intConst(3) + C.intConst(1)));
  CompiledFn F = compileFn(
      C,
      C.block({
          C.assign(Steps, C.intConst(0)),
          C.whileStmt(Expr(N) != C.intConst(1),
                      C.block({Body, C.assign(Steps, Expr(Steps) +
                                                         C.intConst(1))})),
          C.ret(Steps),
      }),
      EvalType::Int, opts());
  auto *Fn = F.as<int(int)>();
  auto Ref = [](int N) {
    int S = 0;
    while (N != 1) {
      N = N % 2 == 0 ? N / 2 : 3 * N + 1;
      ++S;
    }
    return S;
  };
  for (int X : {1, 2, 7, 27, 97})
    EXPECT_EQ(Fn(X), Ref(X)) << X;
}

TEST_P(CoreBothBackends, RuntimeForLoop) {
  // Bound is a parameter -> cannot unroll; must run as a real loop.
  Context C;
  VSpec N = C.paramInt(0);
  VSpec I = C.localInt(), Acc = C.localInt();
  CompiledFn F = compileFn(
      C,
      C.block({
          C.assign(Acc, C.intConst(0)),
          C.forStmt(I, C.intConst(0), CmpKind::LtS, Expr(N), C.intConst(1),
                    C.assign(Acc, Expr(Acc) + Expr(I) * Expr(I))),
          C.ret(Acc),
      }),
      EvalType::Int, opts());
  auto *Fn = F.as<int(int)>();
  int Want = 0;
  for (int K = 0; K < 50; ++K)
    Want += K * K;
  EXPECT_EQ(Fn(50), Want);
  EXPECT_EQ(Fn(0), 0);
}

TEST_P(CoreBothBackends, BreakAndContinue) {
  // sum of odd i < n, stopping at i == 100.
  Context C;
  VSpec N = C.paramInt(0);
  VSpec I = C.localInt(), Acc = C.localInt();
  Stmt Body = C.block({
      C.ifStmt(Expr(I) == C.intConst(100), C.breakStmt()),
      C.ifStmt((Expr(I) % C.intConst(2)) == C.intConst(0), C.continueStmt()),
      C.assign(Acc, Expr(Acc) + Expr(I)),
  });
  CompiledFn F = compileFn(
      C,
      C.block({
          C.assign(Acc, C.intConst(0)),
          C.forStmt(I, C.intConst(0), CmpKind::LtS, Expr(N), C.intConst(1),
                    Body),
          C.ret(Acc),
      }),
      EvalType::Int, opts());
  auto Ref = [](int N) {
    int Acc = 0;
    for (int I = 0; I < N; ++I) {
      if (I == 100)
        break;
      if (I % 2 == 0)
        continue;
      Acc += I;
    }
    return Acc;
  };
  auto *Fn = F.as<int(int)>();
  EXPECT_EQ(Fn(50), Ref(50));
  EXPECT_EQ(Fn(500), Ref(500));
}

TEST_P(CoreBothBackends, DynamicLabelsAndGoto) {
  // Paper §3: `C can create labels and jumps dynamically.
  Context C;
  VSpec A = C.paramInt(0);
  DynLabel Skip = C.newLabel();
  VSpec R = C.localInt();
  CompiledFn F = compileFn(
      C,
      C.block({
          C.assign(R, C.intConst(1)),
          C.ifStmt(Expr(A) > C.intConst(0), C.gotoLabel(Skip)),
          C.assign(R, C.intConst(2)),
          C.labelHere(Skip),
          C.ret(R),
      }),
      EvalType::Int, opts());
  auto *Fn = F.as<int(int)>();
  EXPECT_EQ(Fn(5), 1);
  EXPECT_EQ(Fn(-5), 2);
}

TEST_P(CoreBothBackends, DoubleArithmeticAndConversion) {
  Context C;
  VSpec X = C.paramDouble(0);
  VSpec N = C.paramInt(0); // int args numbered separately from fp args
  Expr E = (Expr(X) * Expr(X) + C.toDouble(Expr(N))) / C.doubleConst(2.0);
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Double, opts());
  auto *Fn = F.as<double(int, double)>(); // SysV: int in rdi, double in xmm0
  EXPECT_DOUBLE_EQ(Fn(4, 3.0), (3.0 * 3.0 + 4.0) / 2.0);
}

TEST_P(CoreBothBackends, TernaryAndLogical) {
  Context C;
  VSpec A = C.paramInt(0), B = C.paramInt(1);
  // max3-ish with logical ops: (a>0 && b>0) ? a+b : (a>0 || b>0 ? 1 : -1)
  Expr Cond1 = (Expr(A) > C.intConst(0)) && (Expr(B) > C.intConst(0));
  Expr Cond2 = (Expr(A) > C.intConst(0)) || (Expr(B) > C.intConst(0));
  // Build ?: via if/else into a local (also test logNot).
  VSpec R = C.localInt();
  CompiledFn F = compileFn(
      C,
      C.block({
          C.ifStmt(Cond1, C.assign(R, Expr(A) + Expr(B)),
                   C.ifStmt(Cond2, C.assign(R, C.intConst(1)),
                            C.assign(R, C.intConst(-1)))),
          C.ret(R),
      }),
      EvalType::Int, opts());
  auto *Fn = F.as<int(int, int)>();
  EXPECT_EQ(Fn(2, 3), 5);
  EXPECT_EQ(Fn(2, -3), 1);
  EXPECT_EQ(Fn(-2, 3), 1);
  EXPECT_EQ(Fn(-2, -3), -1);
}

TEST_P(CoreBothBackends, MemoryStoreAndWidths) {
  // Write a mixed struct through dynamic code.
  struct Out {
    std::int8_t B;
    std::int16_t H;
    std::int32_t W;
    std::int64_t L;
    double D;
  };
  Context C;
  VSpec P = C.paramPtr(0);
  VSpec V = C.paramInt(1);
  auto At = [&](unsigned Off) {
    return C.binary(BinOp::Add, Expr(P), C.longConst(Off));
  };
  CompiledFn F = compileFn(
      C,
      C.block({
          C.storeMem(MemType::I8, At(offsetof(Out, B)), Expr(V)),
          C.storeMem(MemType::I16, At(offsetof(Out, H)), Expr(V)),
          C.storeMem(MemType::I32, At(offsetof(Out, W)), Expr(V)),
          C.storeMem(MemType::I64, At(offsetof(Out, L)), C.toLong(Expr(V))),
          C.storeMem(MemType::F64, At(offsetof(Out, D)),
                     C.toDouble(Expr(V))),
          C.retVoid(),
      }),
      EvalType::Void, opts());
  Out O{};
  F.as<void(Out *, int)>()(&O, -2);
  EXPECT_EQ(O.B, -2);
  EXPECT_EQ(O.H, -2);
  EXPECT_EQ(O.W, -2);
  EXPECT_EQ(O.L, -2);
  EXPECT_DOUBLE_EQ(O.D, -2.0);
}

TEST_P(CoreBothBackends, StrengthReductionCorrectness) {
  // x * $c and x / $c for many run-time constants: must match C semantics
  // through all the shift/add/bias fast paths.
  std::mt19937 Rng(7);
  for (int M : {2, 3, 4, 5, 7, 8, 12, 16, 100, -4, -6, 1 << 20}) {
    Context C;
    VSpec X = C.paramInt(0);
    Expr E = Expr(X) * C.rcInt(M) + Expr(X) / C.rcInt(M);
    CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, opts());
    auto *Fn = F.as<int(int)>();
    for (int T = 0; T < 40; ++T) {
      int V = static_cast<int>(Rng()) % 100000;
      // The generated code wraps; compute the reference without overflow.
      auto Want = static_cast<int>(static_cast<long long>(V) * M + V / M);
      EXPECT_EQ(Fn(V), Want) << V << " with const " << M;
    }
  }
}

TEST_P(CoreBothBackends, NestedLoopDerivedRuntimeConstants) {
  // Paper §4.4: "run-time constant information propagates down loop
  // nesting levels". Outer and inner both unroll; the inner bound depends
  // on the outer induction variable.
  Context C;
  VSpec I = C.localInt(), J = C.localInt(), Acc = C.localInt();
  Stmt Inner = C.forStmt(J, C.intConst(0), CmpKind::LeS, Expr(I),
                         C.intConst(1),
                         C.assign(Acc, Expr(Acc) + Expr(J)));
  CompiledFn F = compileFn(
      C,
      C.block({
          C.assign(Acc, C.intConst(0)),
          C.forStmt(I, C.intConst(0), CmpKind::LtS, C.rcInt(6), C.intConst(1),
                    Inner),
          C.ret(Acc),
      }),
      EvalType::Int, opts());
  int Want = 0;
  for (int I2 = 0; I2 < 6; ++I2)
    for (int J2 = 0; J2 <= I2; ++J2)
      Want += J2;
  EXPECT_EQ(F.as<int()>()(), Want);
}

TEST_P(CoreBothBackends, CallsWithManyArgsAndDoubles) {
  static double Got;
  auto Sink = +[](int A, int B, int C_, double X, double Y) {
    Got = A * 100 + B * 10 + C_ + X * Y;
    return A + B + C_;
  };
  Context C;
  VSpec P = C.paramInt(0);
  Expr CallE =
      C.callC(reinterpret_cast<const void *>(Sink), EvalType::Int,
              {Expr(P), C.intConst(2), C.intConst(3), C.doubleConst(1.5),
               C.doubleConst(4.0)});
  CompiledFn F = compileFn(C, C.ret(CallE), EvalType::Int, opts());
  EXPECT_EQ(F.as<int(int)>()(1), 6);
  EXPECT_DOUBLE_EQ(Got, 123 + 6.0);
}

TEST_P(CoreBothBackends, FpValueLiveAcrossCall) {
  // A double computed before a call and used after it must survive the
  // call (XMM registers are caller-saved — the back ends must protect it).
  auto Bump = +[](int X) { return X + 1; };
  Context C;
  VSpec X = C.paramDouble(0);
  VSpec D = C.localDouble();
  VSpec N = C.localInt();
  CompiledFn F = compileFn(
      C,
      C.block({
          C.assign(D, Expr(X) * C.doubleConst(3.0)),
          C.assign(N, C.callC(reinterpret_cast<const void *>(Bump),
                              EvalType::Int, {C.intConst(41)})),
          C.ret(Expr(D) + C.toDouble(Expr(N))),
      }),
      EvalType::Double, opts());
  EXPECT_DOUBLE_EQ(F.as<double(double)>()(2.0), 6.0 + 42.0);
}

TEST_P(CoreBothBackends, IndirectCall) {
  Context C;
  VSpec Fn = C.paramPtr(0);
  VSpec X = C.paramInt(1);
  Expr R = C.callIndirect(Expr(Fn), EvalType::Int, {Expr(X), C.intConst(10)});
  CompiledFn F = compileFn(C, C.ret(R), EvalType::Int, opts());
  auto Mul = +[](int A, int B) { return A * B; };
  auto Add = +[](int A, int B) { return A + B; };
  auto *G = F.as<int(int (*)(int, int), int)>();
  EXPECT_EQ(G(Mul, 6), 60);
  EXPECT_EQ(G(Add, 6), 16);
}

TEST_P(CoreBothBackends, DeadBranchElimination) {
  // if ($flag) A else B — only one branch's code is generated.
  // Baseline with a genuinely dynamic condition for size comparison.
  unsigned DynamicSize;
  {
    Context C;
    VSpec P = C.paramInt(0);
    CompiledFn F = compileFn(
        C,
        C.block({C.ifStmt(Expr(P), C.ret(C.intConst(111)),
                          C.ret(C.intConst(222)))}),
        EvalType::Int, opts());
    DynamicSize = F.stats().MachineInstrs;
  }
  for (int Flag : {0, 1}) {
    Context C;
    CompiledFn F = compileFn(
        C,
        C.block({C.ifStmt(C.rcInt(Flag), C.ret(C.intConst(111)),
                          C.ret(C.intConst(222)))}),
        EvalType::Int, opts());
    EXPECT_EQ(F.as<int()>()(), Flag ? 111 : 222);
    EXPECT_LT(F.stats().MachineInstrs, DynamicSize)
        << "dead branch should not be generated";
  }
}

TEST_P(CoreBothBackends, LongArithmetic) {
  Context C;
  VSpec A = C.paramLong(0), B = C.paramLong(1);
  Expr E = (Expr(A) + Expr(B)) * C.longConst(1007);
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Long, opts());
  auto *Fn = F.as<long long(long long, long long)>();
  EXPECT_EQ(Fn(1ll << 40, 5), ((1ll << 40) + 5) * 1007);
}

TEST_P(CoreBothBackends, RandomPrograms) {
  // Property sweep: random arithmetic over two params + locals compiled on
  // both back ends equals the interpreted reference.
  std::mt19937 Rng(2024);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Context C;
    VSpec P0 = C.paramInt(0), P1 = C.paramInt(1);
    std::vector<Expr> Pool = {Expr(P0), Expr(P1), C.intConst(3),
                              C.rcInt(static_cast<int>(Rng() % 100))};
    int X = static_cast<int>(Rng() % 2000) - 1000;
    int Y = static_cast<int>(Rng() % 2000) - 1000;
    std::vector<long long> Ref = {X, Y, 3,
                                  static_cast<long long>(Pool[3].node()->IntVal)};
    auto W32 = [](long long V) {
      return static_cast<long long>(static_cast<std::int32_t>(V));
    };
    int Steps = 4 + static_cast<int>(Rng() % 12);
    for (int S = 0; S < Steps; ++S) {
      std::size_t I1 = Rng() % Pool.size(), I2 = Rng() % Pool.size();
      switch (Rng() % 4) {
      case 0:
        Pool.push_back(Pool[I1] + Pool[I2]);
        Ref.push_back(W32(Ref[I1] + Ref[I2]));
        break;
      case 1:
        Pool.push_back(Pool[I1] - Pool[I2]);
        Ref.push_back(W32(Ref[I1] - Ref[I2]));
        break;
      case 2:
        Pool.push_back(Pool[I1] * Pool[I2]);
        Ref.push_back(W32(Ref[I1] * Ref[I2]));
        break;
      default:
        Pool.push_back(Pool[I1] ^ Pool[I2]);
        Ref.push_back(W32(Ref[I1] ^ Ref[I2]));
        break;
      }
    }
    CompiledFn F = compileFn(C, C.ret(Pool.back()), EvalType::Int, opts());
    EXPECT_EQ(F.as<int(int, int)>()(X, Y), static_cast<int>(Ref.back()))
        << "trial " << Trial;
  }
}

TEST_P(CoreBothBackends, CompositionReusedTwice) {
  // Referencing one cspec from two sites regenerates its code at each.
  Context C;
  VSpec A = C.paramInt(0);
  Expr Shared = Expr(A) * C.intConst(7);
  Expr E = Shared + Shared;
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, opts());
  EXPECT_EQ(F.as<int(int)>()(3), 42);
}

TEST(CoreStats, ClosureBytesGrow) {
  Context C;
  std::size_t B0 = C.closureBytes();
  Expr E = C.intConst(1);
  for (int I = 0; I < 100; ++I)
    E = E + C.intConst(I);
  EXPECT_GT(C.closureBytes(), B0);
}

TEST(CoreStats, StatsPopulated) {
  Context C;
  VSpec A = C.paramInt(0);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  CompiledFn F = compileFn(C, C.ret(Expr(A) + C.intConst(1)), EvalType::Int, O);
  EXPECT_GT(F.stats().CyclesTotal, 0u);
  EXPECT_GT(F.stats().Cycles[obs::CompilePhase::CgfWalk], 0u);
  EXPECT_GT(F.stats().MachineInstrs, 0u);
  EXPECT_GT(F.stats().CodeBytes, 0u);
  EXPECT_GT(F.stats().Cycles[obs::CompilePhase::RegAlloc], 0u);
}

// --- Node initialization ------------------------------------------------------

/// Fills the start of \p C's arena with 0xAB and rewinds it, so the next
/// nodes land on poison: a field the factories forget to set reads 0xAB..
/// instead of the zero a fresh slab would hide it behind. Returns the
/// poisoned range. Nodes built before the call are invalidated.
std::pair<const char *, const char *> poisonArena(Context &C) {
  constexpr std::size_t Bytes = 4096;
  auto *P = static_cast<char *>(C.arena().allocate(Bytes, 16));
  std::memset(P, 0xAB, Bytes);
  C.arena().reset();
  return {P, P + Bytes};
}

/// Every field of \p N against \p Want (Ctx aside: that is \p C).
void expectNode(const Context &C, const ExprNode *N, const ExprNode &Want,
                std::pair<const char *, const char *> Poisoned) {
  SCOPED_TRACE("ExprKind " + std::to_string(static_cast<int>(Want.Kind)));
  auto *At = reinterpret_cast<const char *>(N);
  ASSERT_TRUE(At >= Poisoned.first && At + sizeof(ExprNode) <= Poisoned.second)
      << "node outside the poisoned range";
  EXPECT_EQ(N->Kind, Want.Kind);
  EXPECT_EQ(N->Type, Want.Type);
  EXPECT_EQ(N->OpByte, Want.OpByte);
  EXPECT_EQ(N->RegNeed, Want.RegNeed);
  EXPECT_EQ(N->Flags, Want.Flags);
  EXPECT_EQ(N->LocalId, Want.LocalId);
  EXPECT_EQ(N->A, Want.A);
  EXPECT_EQ(N->B, Want.B);
  EXPECT_EQ(N->C, Want.C);
  EXPECT_EQ(N->IntVal, Want.IntVal);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(N->FpVal),
            std::bit_cast<std::uint64_t>(Want.FpVal));
  EXPECT_EQ(N->PtrVal, Want.PtrVal);
  EXPECT_EQ(N->ArgC, Want.ArgC);
  if (Want.ArgC == 0) {
    EXPECT_EQ(N->ArgV, nullptr);
  }
  for (std::uint32_t I = 0; I < Want.ArgC; ++I)
    EXPECT_EQ(N->ArgV[I], Want.ArgV[I]);
  EXPECT_EQ(N->CallFpArgs, Want.CallFpArgs);
  EXPECT_EQ(N->Ctx, &C);
}

void expectNode(const Context &C, const StmtNode *N, const StmtNode &Want,
                std::pair<const char *, const char *> Poisoned) {
  SCOPED_TRACE("StmtKind " + std::to_string(static_cast<int>(Want.Kind)));
  auto *At = reinterpret_cast<const char *>(N);
  ASSERT_TRUE(At >= Poisoned.first && At + sizeof(StmtNode) <= Poisoned.second)
      << "node outside the poisoned range";
  EXPECT_EQ(N->Kind, Want.Kind);
  EXPECT_EQ(N->OpByte, Want.OpByte);
  EXPECT_EQ(N->LocalId, Want.LocalId);
  EXPECT_EQ(N->E, Want.E);
  EXPECT_EQ(N->E2, Want.E2);
  EXPECT_EQ(N->E3, Want.E3);
  EXPECT_EQ(N->S1, Want.S1);
  EXPECT_EQ(N->S2, Want.S2);
  EXPECT_EQ(N->BodyC, Want.BodyC);
  if (Want.BodyC == 0) {
    EXPECT_EQ(N->BodyV, nullptr);
  }
  for (std::uint32_t I = 0; I < Want.BodyC; ++I)
    EXPECT_EQ(N->BodyV[I], Want.BodyV[I]);
  EXPECT_EQ(N->Ctx, &C);
}

/// The documented defaults (core/Nodes.h) of a node of kind \p K and type
/// \p T; each check below adds what its factory sets.
ExprNode exprDefaults(ExprKind K, EvalType T) {
  ExprNode N;
  N.Kind = K;
  N.Type = T;
  return N;
}

StmtNode stmtDefaults(StmtKind K) {
  StmtNode N;
  N.Kind = K;
  return N;
}

int nodeCallee(int X, double D) { return X + static_cast<int>(D); }

TEST(NodeInit, EveryExprKindSetsEveryField) {
  Context C;
  VSpec X = C.paramInt(0);
  VSpec P = C.paramPtr(1);
  static int Cell = 3;
  auto Poisoned = poisonArena(C);

  Expr I7 = C.intConst(7);
  ExprNode W = exprDefaults(ExprKind::ConstInt, EvalType::Int);
  W.IntVal = 7;
  expectNode(C, I7.node(), W, Poisoned);

  Expr L = C.longConst(-5);
  W = exprDefaults(ExprKind::ConstLong, EvalType::Long);
  W.IntVal = -5;
  expectNode(C, L.node(), W, Poisoned);

  Expr Ptr = C.rcPtr(&Cell);
  W = exprDefaults(ExprKind::ConstLong, EvalType::Ptr);
  W.IntVal = static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(&Cell));
  expectNode(C, Ptr.node(), W, Poisoned);

  Expr D = C.doubleConst(2.5);
  W = exprDefaults(ExprKind::ConstDouble, EvalType::Double);
  W.FpVal = 2.5;
  expectNode(C, D.node(), W, Poisoned);

  Expr Fv = C.fvInt(&Cell);
  W = exprDefaults(ExprKind::FreeVar, EvalType::Int);
  W.OpByte = static_cast<std::uint8_t>(MemType::I32);
  W.PtrVal = &Cell;
  W.Flags = EF_HasMemOp;
  expectNode(C, Fv.node(), W, Poisoned);

  Expr Rd = C.read(X);
  W = exprDefaults(ExprKind::Local, EvalType::Int);
  W.LocalId = X.id();
  W.Flags = EF_HasLocal;
  expectNode(C, Rd.node(), W, Poisoned);

  Expr Sum = C.binary(BinOp::Add, Rd, I7);
  W = exprDefaults(ExprKind::Binary, EvalType::Int);
  W.OpByte = static_cast<std::uint8_t>(BinOp::Add);
  W.A = Rd.node();
  W.B = I7.node();
  W.RegNeed = 2;
  W.Flags = EF_HasLocal;
  expectNode(C, Sum.node(), W, Poisoned);

  Expr Lt = C.cmp(CmpKind::LtS, Rd, I7);
  W = exprDefaults(ExprKind::Cmp, EvalType::Int);
  W.OpByte = static_cast<std::uint8_t>(CmpKind::LtS);
  W.A = Rd.node();
  W.B = I7.node();
  W.RegNeed = 2;
  W.Flags = EF_HasLocal;
  expectNode(C, Lt.node(), W, Poisoned);

  Expr Neg = C.neg(Sum);
  W = exprDefaults(ExprKind::Unary, EvalType::Int);
  W.OpByte = static_cast<std::uint8_t>(UnOp::Neg);
  W.A = Sum.node();
  W.RegNeed = 2;
  W.Flags = EF_HasLocal;
  expectNode(C, Neg.node(), W, Poisoned);

  Expr Rp = C.read(P);
  Expr Ld = C.loadMem(MemType::I16, Rp);
  W = exprDefaults(ExprKind::Load, EvalType::Int);
  W.OpByte = static_cast<std::uint8_t>(MemType::I16);
  W.A = Rp.node();
  W.Flags = EF_HasLocal | EF_HasMemOp;
  expectNode(C, Ld.node(), W, Poisoned);

  Expr Call = C.callC(reinterpret_cast<const void *>(&nodeCallee),
                      EvalType::Int, {I7, D});
  ExprNode *Args[] = {I7.node(), D.node()};
  W = exprDefaults(ExprKind::Call, EvalType::Int);
  W.PtrVal = reinterpret_cast<const void *>(&nodeCallee);
  W.ArgV = Args;
  W.ArgC = 2;
  W.CallFpArgs = 1;
  W.RegNeed = 4;
  W.Flags = EF_HasCall;
  expectNode(C, Call.node(), W, Poisoned);

  Expr Ind = C.callIndirect(Rp, EvalType::Int, {Rd});
  ExprNode *IndArgs[] = {Rd.node()};
  W = exprDefaults(ExprKind::Call, EvalType::Int);
  W.A = Rp.node();
  W.ArgV = IndArgs;
  W.ArgC = 1;
  W.RegNeed = 4;
  W.Flags = EF_HasCall | EF_HasLocal;
  expectNode(C, Ind.node(), W, Poisoned);

  Expr Rt = C.rtEval(Fv);
  W = exprDefaults(ExprKind::RtEval, EvalType::Int);
  W.A = Fv.node();
  expectNode(C, Rt.node(), W, Poisoned);

  Expr Sel = C.cond(Lt, Sum, I7);
  W = exprDefaults(ExprKind::Cond, EvalType::Int);
  W.A = Lt.node();
  W.B = Sum.node();
  W.C = I7.node();
  W.RegNeed = 2;
  W.Flags = EF_HasLocal;
  expectNode(C, Sel.node(), W, Poisoned);
}

TEST(NodeInit, EveryStmtKindSetsEveryField) {
  Context C;
  VSpec X = C.paramInt(0);
  VSpec P = C.paramPtr(1);
  VSpec I = C.localInt();
  DynLabel Lbl = C.newLabel();
  auto Poisoned = poisonArena(C);
  Expr One = C.intConst(1);
  Expr Rx = C.read(X);
  Expr Rp = C.read(P);

  Stmt Es = C.exprStmt(One);
  StmtNode W = stmtDefaults(StmtKind::ExprStmt);
  W.E = One.node();
  expectNode(C, Es.node(), W, Poisoned);

  Stmt As = C.assign(I, One);
  W = stmtDefaults(StmtKind::AssignLocal);
  W.LocalId = I.id();
  W.E = One.node();
  expectNode(C, As.node(), W, Poisoned);

  Stmt St = C.storeMem(MemType::I32, Rp, Rx);
  W = stmtDefaults(StmtKind::Store);
  W.OpByte = static_cast<std::uint8_t>(MemType::I32);
  W.E = Rp.node();
  W.E2 = Rx.node();
  expectNode(C, St.node(), W, Poisoned);

  Stmt If1 = C.ifStmt(Rx, Es);
  W = stmtDefaults(StmtKind::If);
  W.E = Rx.node();
  W.S1 = Es.node();
  expectNode(C, If1.node(), W, Poisoned);

  Stmt If2 = C.ifStmt(Rx, Es, As);
  W.S2 = As.node();
  expectNode(C, If2.node(), W, Poisoned);

  Stmt Wh = C.whileStmt(Rx, Es);
  W = stmtDefaults(StmtKind::While);
  W.E = Rx.node();
  W.S1 = Es.node();
  expectNode(C, Wh.node(), W, Poisoned);

  Stmt Fr = C.forStmt(I, One, CmpKind::LeS, Rx, One, Es);
  W = stmtDefaults(StmtKind::For);
  W.LocalId = I.id();
  W.OpByte = static_cast<std::uint8_t>(CmpKind::LeS);
  W.E = One.node();
  W.E2 = Rx.node();
  W.E3 = One.node();
  W.S1 = Es.node();
  expectNode(C, Fr.node(), W, Poisoned);

  Stmt Rt = C.ret(Rx);
  W = stmtDefaults(StmtKind::Return);
  W.E = Rx.node();
  expectNode(C, Rt.node(), W, Poisoned);

  expectNode(C, C.retVoid().node(), stmtDefaults(StmtKind::Return), Poisoned);
  expectNode(C, C.breakStmt().node(), stmtDefaults(StmtKind::Break), Poisoned);
  expectNode(C, C.continueStmt().node(), stmtDefaults(StmtKind::Continue),
             Poisoned);

  Stmt Def = C.labelHere(Lbl);
  W = stmtDefaults(StmtKind::LabelDef);
  W.LocalId = Lbl.Id;
  expectNode(C, Def.node(), W, Poisoned);

  Stmt Go = C.gotoLabel(Lbl);
  W = stmtDefaults(StmtKind::Goto);
  W.LocalId = Lbl.Id;
  expectNode(C, Go.node(), W, Poisoned);

  Stmt Blk = C.block({Es, Go});
  StmtNode *Body[] = {Es.node(), Go.node()};
  W = stmtDefaults(StmtKind::Block);
  W.BodyV = Body;
  W.BodyC = 2;
  expectNode(C, Blk.node(), W, Poisoned);
}

/// `acc = 0; for (i = 0; i < $Trips; i++) acc = acc * x + i; return acc;`
/// instantiated with an unroll limit of \p Trips, so it unrolls completely.
void compileUnrolled(int Trips) {
  Context C;
  VSpec X = C.paramInt(0);
  VSpec I = C.localInt(), Acc = C.localInt();
  Stmt Fn = C.block({
      C.assign(Acc, C.intConst(0)),
      C.forStmt(I, C.intConst(0), CmpKind::LtS, C.rcInt(Trips), C.intConst(1),
                C.assign(Acc, Expr(Acc) * Expr(X) + Expr(I))),
      C.ret(Acc),
  });
  CompileOptions O;
  O.UnrollLimit = static_cast<unsigned>(Trips);
  (void)compileFn(C, Fn, EvalType::Int, O);
}

TEST(CoreDeathTest, UnrollPastTheCodeBufferIsFatal) {
  // 2^18 unrolled copies of the body emit well over
  // CompileContext::CodeBufferBytes (1 MiB). The assembler stops the
  // process rather than write past the buffer, in every build.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(compileUnrolled(1 << 18), "code buffer overflow");
}

TEST(CoreOptions, RandomizedPlacementWorks) {
  Context C;
  CompileOptions O;
  O.Placement = CodePlacement::Randomized;
  CompiledFn F = compileFn(C, C.ret(C.intConst(5)), EvalType::Int, O);
  EXPECT_EQ(F.as<int()>()(), 5);
}

TEST(CoreOptions, GraphColorBackendWorks) {
  Context C;
  VSpec A = C.paramInt(0);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  O.RegAlloc = icode::RegAllocKind::GraphColor;
  CompiledFn F =
      compileFn(C, C.ret(Expr(A) * C.intConst(3)), EvalType::Int, O);
  EXPECT_EQ(F.as<int(int)>()(14), 42);
}

// --- One semantics: every form, every tier -----------------------------------

/// One operator applied to two operands of type T (unary cases ignore B).
struct SemCase {
  const char *Name;
  EvalType T;
  std::int64_t X, Y; ///< Integer operands (T Int or Long).
  double DX;         ///< Double operand (T Double).
  Expr (*Op)(Context &, Expr, Expr);
  std::int64_t Want; ///< Canonical result; ignored when Traps.
  bool Traps;
};

/// The four shapes of each case: all constants (folded at instantiation),
/// `$`-captured operands (read at instantiation), two parameters, and a
/// parameter against a constant (the strength-reduced immediate forms).
enum class SemForm { Folded, Dollar, Params, ParamConst };
/// Builds \p K in form \p Fm and runs it on back end \p Back. Returns the
/// result in canonical form (Int sign-extended).
std::int64_t runSemCase(const SemCase &K, SemForm Fm, BackendKind Back) {
  Context C;
  // `$` operands are read at instantiation, while these slots are live.
  std::int32_t I32[2] = {static_cast<std::int32_t>(K.X),
                         static_cast<std::int32_t>(K.Y)};
  std::int64_t I64[2] = {K.X, K.Y};
  double F64[2] = {K.DX, K.DX};
  auto Operand = [&](unsigned Idx) -> Expr {
    bool Param = Fm == SemForm::Params || (Fm == SemForm::ParamConst && !Idx);
    if (Param)
      return K.T == EvalType::Int    ? C.paramInt(Idx)
             : K.T == EvalType::Long ? C.paramLong(Idx)
                                     : C.paramDouble(Idx);
    std::int64_t V = Idx ? K.Y : K.X;
    if (Fm == SemForm::Dollar) {
      if (K.T == EvalType::Int)
        return C.rtEval(C.freeVar(&I32[Idx], MemType::I32));
      if (K.T == EvalType::Long)
        return C.rtEval(C.freeVar(&I64[Idx], MemType::I64));
      return C.rtEval(C.freeVar(&F64[Idx], MemType::F64));
    }
    if (K.T == EvalType::Int)
      return C.intConst(static_cast<std::int32_t>(V));
    if (K.T == EvalType::Long)
      return C.longConst(V);
    return C.doubleConst(K.DX);
  };
  Expr A = Operand(0);
  Expr B = Operand(1);
  Expr E = K.Op(C, A, B);
  EvalType RT = E.type();
  Stmt Body = C.ret(E);
  CompileOptions O;
  O.Backend = Back;
  CompiledFn F = compileFn(C, Body, RT, O);
  if (K.T == EvalType::Double)
    return F.as<std::int32_t(double, double)>()(K.DX, K.DX);
  if (RT == EvalType::Int)
    return F.as<std::int32_t(std::int64_t, std::int64_t)>()(K.X, K.Y);
  return F.as<std::int64_t(std::int64_t, std::int64_t)>()(K.X, K.Y);
}

Expr semAdd(Context &, Expr A, Expr B) { return A + B; }
Expr semSub(Context &, Expr A, Expr B) { return A - B; }
Expr semMul(Context &, Expr A, Expr B) { return A * B; }
Expr semDiv(Context &, Expr A, Expr B) { return A / B; }
Expr semMod(Context &, Expr A, Expr B) { return A % B; }
Expr semShl(Context &, Expr A, Expr B) { return A << B; }
Expr semShr(Context &, Expr A, Expr B) { return A >> B; }
Expr semNeg(Context &C, Expr A, Expr) { return C.neg(A); }
Expr semToInt(Context &C, Expr A, Expr) {
  return C.unary(UnOp::DoubleToInt, A);
}
Expr semEq(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::Eq, A, B); }
Expr semNe(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::Ne, A, B); }
Expr semLt(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::LtS, A, B); }
Expr semLe(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::LeS, A, B); }
Expr semGt(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::GtS, A, B); }
Expr semGe(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::GeS, A, B); }
Expr semLtU(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::LtU, A, B); }
Expr semLeU(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::LeU, A, B); }
Expr semGtU(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::GtU, A, B); }
Expr semGeU(Context &C, Expr A, Expr B) { return C.cmp(CmpKind::GeU, A, B); }

TEST(OneSemantics, EveryFormAndTierAgrees) {
  // The folder (instantiation-time partial evaluation) and the code every
  // back end emits must compute one value for every operator, including where
  // C++ leaves it undefined and x86 does not: wrapping, masked shift
  // counts, cvttsd2si's integer indefinite, idiv's #DE trap, and NaN
  // compares read from ucomisd's flags without a parity check.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr std::int64_t I32Max = INT32_MAX, I32Min = INT32_MIN;
  constexpr std::int64_t I64Max = INT64_MAX, I64Min = INT64_MIN;
  constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
  const EvalType Int = EvalType::Int, Long = EvalType::Long,
                 Dbl = EvalType::Double;
  const SemCase Cases[] = {
      {"int max+1", Int, I32Max, 1, 0, semAdd, I32Min, false},
      {"int min-1", Int, I32Min, 1, 0, semSub, I32Max, false},
      {"int max*2", Int, I32Max, 2, 0, semMul, -2, false},
      {"int min*-1", Int, I32Min, -1, 0, semMul, I32Min, false},
      {"long max+1", Long, I64Max, 1, 0, semAdd, I64Min, false},
      {"long min-1", Long, I64Min, 1, 0, semSub, I64Max, false},
      {"long max*2", Long, I64Max, 2, 0, semMul, -2, false},
      {"long min*-1", Long, I64Min, -1, 0, semMul, I64Min, false},
      {"long -min", Long, I64Min, 0, 0, semNeg, I64Min, false},
      {"1<<31", Int, 1, 31, 0, semShl, I32Min, false},
      {"1<<32", Int, 1, 32, 0, semShl, 1, false},
      {"1<<33", Int, 1, 33, 0, semShl, 2, false},
      {"1<<-1", Int, 1, -1, 0, semShl, I32Min, false},
      {"min>>31", Int, I32Min, 31, 0, semShr, -1, false},
      {"min>>32", Int, I32Min, 32, 0, semShr, I32Min, false},
      {"min>>33", Int, I32Min, 33, 0, semShr, I32Min / 2, false},
      {"min>>-1", Int, I32Min, -1, 0, semShr, -1, false},
      {"-1 <u 1", Int, -1, 1, 0, semLtU, 0, false},
      {"1 <=u -1", Int, 1, -1, 0, semLeU, 1, false},
      {"-1 >u max", Int, -1, I32Max, 0, semGtU, 1, false},
      {"-2 >=u -1", Int, -2, -1, 0, semGeU, 0, false},
      {"(int)1e10", Dbl, 0, 0, 1e10, semToInt, I32Min, false},
      {"(int)-1e10", Dbl, 0, 0, -1e10, semToInt, I32Min, false},
      {"(int)NaN", Dbl, 0, 0, NaN, semToInt, I32Min, false},
      {"(int)2147483647.9", Dbl, 0, 0, 2147483647.9, semToInt, I32Max, false},
      {"(int)-2147483648.5", Dbl, 0, 0, -2147483648.5, semToInt, I32Min,
       false},
      {"NaN == NaN", Dbl, 0, 0, NaN, semEq, 1, false},
      {"NaN != NaN", Dbl, 0, 0, NaN, semNe, 0, false},
      {"NaN < NaN", Dbl, 0, 0, NaN, semLt, 1, false},
      {"NaN <= NaN", Dbl, 0, 0, NaN, semLe, 1, false},
      {"NaN > NaN", Dbl, 0, 0, NaN, semGt, 0, false},
      {"NaN >= NaN", Dbl, 0, 0, NaN, semGe, 0, false},
      {"min/-1", Int, I32Min, -1, 0, semDiv, 0, true},
      {"min%-1", Int, I32Min, -1, 0, semMod, 0, true},
      {"7/0", Int, 7, 0, 0, semDiv, 0, true},
      {"7%0", Int, 7, 0, 0, semMod, 0, true},
  };
  const SemForm Forms[] = {SemForm::Folded, SemForm::Dollar, SemForm::Params,
                           SemForm::ParamConst};
  const char *FormNames[] = {"folded", "$", "params", "param-op-const"};
  const BackendKind Backends[] = {BackendKind::VCode, BackendKind::ICode};
  for (const SemCase &K : Cases)
    for (unsigned Fi = 0; Fi < 4; ++Fi)
      for (BackendKind B : Backends) {
        SCOPED_TRACE(std::string(K.Name) + " " + FormNames[Fi] + " " +
                     backendName(B));
        if (K.Traps)
          EXPECT_EXIT(
              {
                // Die of the trap itself, not of a sanitizer's report.
                std::signal(SIGFPE, SIG_DFL);
                runSemCase(K, Forms[Fi], B);
              },
              ::testing::KilledBySignal(SIGFPE), "");
        else
          EXPECT_EQ(runSemCase(K, Forms[Fi], B), K.Want);
      }
}

} // namespace
