//===- tests/cache_test.cpp - Code cache tests ----------------------------===//
//
// Covers the memoizing instantiation path: structural key derivation,
// hit/miss identity, CLOCK eviction under a byte budget, eviction safety for
// live handles, and a multi-threaded getOrCompile stress (run under
// -fsanitize=thread in CI). Code-heap blocks behind the cached functions
// are covered by code_heap_test.
//
//===----------------------------------------------------------------------===//

#include "apps/Hash.h"
#include "apps/Marshal.h"
#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/RuntimeSymbols.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <climits>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;

namespace {

SpecKey keyOf(int Mul, int Add,
              const CompileOptions &Opts = CompileOptions()) {
  Context C;
  VSpec X = C.paramInt(0);
  Stmt Body = C.ret(Expr(X) * C.rcInt(Mul) + C.rcInt(Add));
  return buildSpecKey(C, Body, EvalType::Int, Opts);
}

/// Caches \p F under the absent key \p K the way CompileService does:
/// claim the key, then publish the function into the claimed entry.
FnHandle insertFn(CodeCache &Cache, const SpecKey &K, CompiledFn &&F) {
  CodeCache::Claim C;
  EXPECT_EQ(Cache.acquire(K, C), nullptr);
  return Cache.publish(C, std::move(F));
}

// --- SpecKey ---------------------------------------------------------------

TEST(SpecKey, EqualAcrossIndependentlyBuiltContexts) {
  SpecKey A = keyOf(3, 7);
  SpecKey B = keyOf(3, 7);
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(A.Cacheable);
}

TEST(SpecKey, RuntimeConstantsChangeTheKey) {
  EXPECT_FALSE(keyOf(3, 7) == keyOf(3, 8));
  EXPECT_FALSE(keyOf(3, 7) == keyOf(4, 7));
}

TEST(SpecKey, CompileOptionsChangeTheKey) {
  CompileOptions VC;
  CompileOptions IC;
  IC.Backend = BackendKind::ICode;
  EXPECT_FALSE(keyOf(3, 7, VC) == keyOf(3, 7, IC));

  CompileOptions GC = IC;
  GC.RegAlloc = icode::RegAllocKind::GraphColor;
  EXPECT_FALSE(keyOf(3, 7, IC) == keyOf(3, 7, GC));
}

TEST(SpecKey, BackendsOccupyDistinctSlots) {
  // BackendKind is the first serialized option byte, so the back ends can
  // never share a cache entry. Pairwise over the exhaustive backend set,
  // keys must differ while each remains self-equal.
  const BackendKind All[] = {BackendKind::VCode, BackendKind::ICode};
  for (BackendKind A : All) {
    CompileOptions OA;
    OA.Backend = A;
    EXPECT_TRUE(keyOf(3, 7, OA) == keyOf(3, 7, OA));
    for (BackendKind B : All) {
      if (A == B)
        continue;
      CompileOptions OB;
      OB.Backend = B;
      EXPECT_FALSE(keyOf(3, 7, OA) == keyOf(3, 7, OB))
          << static_cast<int>(A) << " vs " << static_cast<int>(B);
    }
  }
}

TEST(CompileService, ThreeBackendsThreeEntries) {
  // VCODE, ICODE and the tier baseline (profiled VCODE, whose prologue
  // counts calls) are three distinct entries.
  CompileService S;
  apps::PowerApp P(13);
  CompileOptions VC, IC, Base;
  VC.Backend = BackendKind::VCode;
  IC.Backend = BackendKind::ICode;
  Base.Backend = BackendKind::VCode;
  Base.Profile = true;
  FnHandle A = P.specializeCached(S, VC);
  FnHandle B = P.specializeCached(S, IC);
  FnHandle C = P.specializeCached(S, Base);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(B.get(), C.get());
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
  EXPECT_EQ(A->as<int(int)>()(3), 1594323);
  EXPECT_EQ(B->as<int(int)>()(3), 1594323);
  EXPECT_EQ(C->as<int(int)>()(3), 1594323);
  // Re-requesting each hits its own slot — no cross-backend aliasing.
  EXPECT_EQ(P.specializeCached(S, Base).get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
}

TEST(SpecKey, CapturedAddressSpreadsTheContainerHash) {
  // Specs differing only in a captured address share their bytes (and the
  // bytes hash snapshot records store), but the hash containers and cache
  // shards use covers Refs: they must not pile onto one chain.
  static int Cells[16];
  std::vector<SpecKey> Keys;
  for (int &Cell : Cells) {
    Context C;
    VSpec X = C.paramInt(0);
    Keys.push_back(buildSpecKey(C, C.ret(Expr(X) + C.fvInt(&Cell)),
                                EvalType::Int, CompileOptions()));
  }
  std::unordered_set<std::size_t> Hashes;
  for (const SpecKey &K : Keys) {
    EXPECT_EQ(K.Bytes, Keys[0].Bytes);
    EXPECT_EQ(K.BytesHash, Keys[0].BytesHash);
    Hashes.insert(SpecKeyHash()(K));
  }
  EXPECT_EQ(Hashes.size(), Keys.size());
}

TEST(SpecKey, RtEvalOverMemoryIsUncacheable) {
  static int Cell = 41;
  Context C;
  Stmt Body = C.ret(C.rtEval(C.fvInt(&Cell)) + C.intConst(1));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_FALSE(K.Cacheable);
}

TEST(SpecKey, RtEvalOverPureConstantsIsCacheable) {
  Context C;
  Stmt Body = C.ret(C.rtEval(C.intConst(6) * C.intConst(7)));
  SpecKey K = buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  EXPECT_TRUE(K.Cacheable);
}

// --- Key identity over generated trees ---------------------------------------

/// A replayable stream of choices. Generating from a copy of a tape with one
/// choice changed builds a tree that agrees with the original up to that
/// choice — sometimes everywhere, when the new choice lands on an equal
/// outcome — so the pairs below mix equal and unequal trees.
class Tape {
public:
  explicit Tape(std::uint64_t Seed) : Rng(Seed) {}
  unsigned pick(unsigned N) {
    if (Pos == Choices.size())
      Choices.push_back(static_cast<std::uint32_t>(Rng()));
    return Choices[Pos++] % N;
  }
  std::vector<std::uint32_t> Choices;

private:
  std::size_t Pos = 0;
  std::mt19937_64 Rng;
};

int keyCalleeA(int X) { return X + 1; }
int keyCalleeB(int X, double D) { return X - static_cast<int>(D); }
double keyCalleeD(double D) { return D * 2; }
int KeyCellA = 1, KeyCellB = 2;
long long KeyCellL = 3;
double KeyCellD = 4;

/// Random spec trees over the whole construction API: differential_test's
/// ProgramGen shapes (int locals, + - * ^, assignments, ifs, counted loops)
/// and PredicateGen shapes (&&/||/! over int, long and double loads off a
/// record pointer, a call around the predicate), plus every other factory:
/// constants at the varint edges, free variables, direct and indirect calls,
/// conversions, ?:, $-at-instantiation, stores, while/break/continue,
/// retVoid, if without else, blocks and labels.
class SpecGen {
public:
  SpecGen(Context &C, Tape &T) : C(C), T(T) {
    IntP = C.paramInt(0);
    LongP = C.paramLong(1);
    PtrP = C.paramPtr(2);
    DblP = C.paramDouble(0);
    for (unsigned I = 0, N = T.pick(3); I < N; ++I)
      IntL.push_back(C.localInt());
    IntL.push_back(C.localInt());
    LongL = C.localLong();
    DblL = C.localDouble();
    for (unsigned I = 0; I < 2; ++I)
      Labels[I] = C.newLabel();
  }

  Stmt build() { return stmt(3); }

private:
  Expr intLeaf() {
    static const std::int32_t Edge[] = {0,  1,   -1,        63,       64,
                                        -64, 127, 128,       INT32_MAX,
                                        INT32_MIN, 1 << 20, -(1 << 20)};
    switch (T.pick(5)) {
    case 0:
      return C.intConst(Edge[T.pick(std::size(Edge))]);
    case 1:
      return C.rcInt(static_cast<std::int32_t>(T.pick(4) * 1000) - 1500);
    case 2:
      return IntL[T.pick(static_cast<unsigned>(IntL.size()))];
    case 3:
      return T.pick(2) ? C.fvInt(&KeyCellA) : C.fvInt(&KeyCellB);
    default:
      return IntP;
    }
  }

  Expr longLeaf() {
    static const std::int64_t Edge[] = {0, -1, 1LL << 31, -(1LL << 40),
                                        INT64_MAX, INT64_MIN, 300};
    switch (T.pick(4)) {
    case 0:
      return C.longConst(Edge[T.pick(std::size(Edge))]);
    case 1:
      return LongL;
    case 2:
      return C.fvLong(&KeyCellL);
    default:
      return LongP;
    }
  }

  Expr dblLeaf() {
    static const double Edge[] = {0.0, -0.0, 1.5, -2.25,
                                  std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN()};
    switch (T.pick(4)) {
    case 0:
      return C.doubleConst(Edge[T.pick(std::size(Edge))]);
    case 1:
      return DblL;
    case 2:
      return C.fvDouble(&KeyCellD);
    default:
      return DblP;
    }
  }

  /// A field of the record PtrP points at, PredicateGen style.
  Expr field(MemType M) {
    static const unsigned Off[] = {0, 4, 8, 16, 24, 32, 40};
    return C.loadMem(M, C.binary(BinOp::Add, PtrP,
                                 C.longConst(Off[T.pick(std::size(Off))])));
  }

  Expr ptr(unsigned D) {
    switch (D ? T.pick(4) : 0) {
    case 0:
      return PtrP;
    case 1:
      return C.rcPtr(T.pick(2) ? &KeyCellA : &KeyCellB);
    case 2:
      return C.indexAddr(PtrP, intExpr(D - 1), MemType::I32);
    default:
      return C.fvPtr(reinterpret_cast<const void *const *>(&KeyCellL));
    }
  }

  Expr intExpr(unsigned D) {
    if (D == 0)
      return intLeaf();
    static const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                BinOp::Xor, BinOp::And, BinOp::Or,
                                BinOp::Shl, BinOp::Shr, BinOp::Div,
                                BinOp::Mod, BinOp::LogAnd, BinOp::LogOr};
    switch (T.pick(12)) {
    case 0:
    case 1:
      return intLeaf();
    case 2:
    case 3:
      return C.binary(Ops[T.pick(std::size(Ops))], intExpr(D - 1),
                      intExpr(D - 1));
    case 4:
      return C.cmp(static_cast<CmpKind>(T.pick(10)), intExpr(D - 1),
                   intExpr(D - 1));
    case 5:
      return T.pick(2) ? C.cmp(static_cast<CmpKind>(T.pick(6)),
                               longExpr(D - 1), longExpr(D - 1))
                       : C.cmp(static_cast<CmpKind>(T.pick(6)),
                               dblExpr(D - 1), dblExpr(D - 1));
    case 6: {
      static const UnOp Un[] = {UnOp::Neg, UnOp::Not, UnOp::LogNot};
      return C.unary(Un[T.pick(3)], intExpr(D - 1));
    }
    case 7: {
      static const MemType Ms[] = {MemType::I8, MemType::U8, MemType::I16,
                                   MemType::U16, MemType::I32};
      return T.pick(2) ? field(Ms[T.pick(std::size(Ms))])
                       : C.loadMem(MemType::I32, ptr(D - 1));
    }
    case 8:
      return T.pick(2) ? C.toInt(longExpr(D - 1)) : C.toInt(dblExpr(D - 1));
    case 9:
      switch (T.pick(3)) {
      case 0:
        return C.callC(reinterpret_cast<const void *>(&keyCalleeA),
                       EvalType::Int, {intExpr(D - 1)});
      case 1:
        return C.callC(reinterpret_cast<const void *>(&keyCalleeB),
                       EvalType::Int, {intExpr(D - 1), dblExpr(D - 1)});
      default:
        return C.callIndirect(ptr(D - 1), EvalType::Int, {intExpr(D - 1)});
      }
    case 10:
      return C.cond(intExpr(D - 1), intExpr(D - 1), intExpr(D - 1));
    default:
      // Pure constants stay cacheable; a load makes the key uncacheable.
      return T.pick(2) ? C.rtEval(C.intConst(static_cast<int>(T.pick(9))) *
                                  C.intConst(7))
                       : C.rtEval(C.fvInt(&KeyCellA));
    }
  }

  Expr longExpr(unsigned D) {
    if (D == 0 || T.pick(3) == 0)
      return longLeaf();
    switch (T.pick(4)) {
    case 0:
      return C.binary(T.pick(2) ? BinOp::Add : BinOp::Mul, longExpr(D - 1),
                      longExpr(D - 1));
    case 1:
      return C.toLong(intExpr(D - 1));
    case 2:
      return field(MemType::I64);
    default:
      return C.unary(UnOp::Bitcast, ptr(D - 1));
    }
  }

  Expr dblExpr(unsigned D) {
    if (D == 0 || T.pick(3) == 0)
      return dblLeaf();
    switch (T.pick(4)) {
    case 0:
      return C.binary(T.pick(2) ? BinOp::Add : BinOp::Div, dblExpr(D - 1),
                      dblExpr(D - 1));
    case 1:
      return C.toDouble(T.pick(2) ? intExpr(D - 1) : longExpr(D - 1));
    case 2:
      return field(MemType::F64);
    default:
      return C.callC(reinterpret_cast<const void *>(&keyCalleeD),
                     EvalType::Double, {dblExpr(D - 1)});
    }
  }

  Stmt stmt(unsigned D) {
    switch (D ? T.pick(13) : T.pick(4)) {
    case 0:
      return C.assign(IntL[T.pick(static_cast<unsigned>(IntL.size()))],
                      intExpr(2));
    case 1:
      return C.ret(intExpr(2));
    case 2:
      return T.pick(2) ? C.retVoid()
                       : (T.pick(2) ? C.breakStmt() : C.continueStmt());
    case 3:
      return T.pick(2) ? C.labelHere(Labels[T.pick(2)])
                       : C.gotoLabel(Labels[T.pick(2)]);
    case 4:
      return T.pick(2) ? C.assign(LongL, longExpr(2))
                       : C.assign(DblL, dblExpr(2));
    case 5: {
      static const MemType Ms[] = {MemType::I8, MemType::I32, MemType::I64,
                                   MemType::F64};
      return C.storeMem(Ms[T.pick(std::size(Ms))], ptr(1), intExpr(1));
    }
    case 6:
      return C.exprStmt(intExpr(2));
    case 7:
      return C.ifStmt(intExpr(2), stmt(D - 1));
    case 8:
      return C.ifStmt(intExpr(2), stmt(D - 1), stmt(D - 1));
    case 9:
      return C.whileStmt(intExpr(1), stmt(D - 1));
    case 10:
      return C.forStmt(IntL[T.pick(static_cast<unsigned>(IntL.size()))],
                       intExpr(1), static_cast<CmpKind>(T.pick(10)),
                       intExpr(1), intExpr(0), stmt(D - 1));
    default: {
      std::vector<Stmt> Body;
      for (unsigned I = 0, N = T.pick(4); I < N; ++I)
        Body.push_back(stmt(D - 1));
      return C.block(Body);
    }
    }
  }

  Context &C;
  Tape &T;
  VSpec IntP, LongP, PtrP, DblP, LongL, DblL;
  std::vector<VSpec> IntL;
  DynLabel Labels[2];
};

/// The reference: every field a factory can set, compared directly.
bool sameExpr(const ExprNode *A, const ExprNode *B) {
  if (!A || !B)
    return A == B;
  if (A->Kind != B->Kind || A->Type != B->Type || A->OpByte != B->OpByte ||
      A->RegNeed != B->RegNeed || A->Flags != B->Flags ||
      A->LocalId != B->LocalId || A->IntVal != B->IntVal ||
      std::bit_cast<std::uint64_t>(A->FpVal) !=
          std::bit_cast<std::uint64_t>(B->FpVal) ||
      A->PtrVal != B->PtrVal || A->ArgC != B->ArgC ||
      A->CallFpArgs != B->CallFpArgs)
    return false;
  if (!sameExpr(A->A, B->A) || !sameExpr(A->B, B->B) || !sameExpr(A->C, B->C))
    return false;
  for (std::uint32_t I = 0; I < A->ArgC; ++I)
    if (!sameExpr(A->ArgV[I], B->ArgV[I]))
      return false;
  return true;
}

bool sameStmt(const StmtNode *A, const StmtNode *B) {
  if (!A || !B)
    return A == B;
  if (A->Kind != B->Kind || A->OpByte != B->OpByte ||
      A->LocalId != B->LocalId || A->BodyC != B->BodyC ||
      !sameExpr(A->E, B->E) || !sameExpr(A->E2, B->E2) ||
      !sameExpr(A->E3, B->E3) || !sameStmt(A->S1, B->S1) ||
      !sameStmt(A->S2, B->S2))
    return false;
  for (std::uint32_t I = 0; I < A->BodyC; ++I)
    if (!sameStmt(A->BodyV[I], B->BodyV[I]))
      return false;
  return true;
}

bool sameSpec(const Context &CA, Stmt A, const Context &CB, Stmt B) {
  const std::vector<LocalInfo> &LA = CA.locals(), &LB = CB.locals();
  if (LA.size() != LB.size())
    return false;
  for (std::size_t I = 0; I < LA.size(); ++I)
    if (LA[I].Type != LB[I].Type || LA[I].ArgIndex != LB[I].ArgIndex)
      return false;
  return sameStmt(A.node(), B.node());
}

TEST(SpecKey, EqualExactlyWhenTreesAreEqual) {
  CompileOptions Opts;
  unsigned Equal = 0, Unequal = 0, Uncacheable = 0;
  for (std::uint64_t Seed = 1; Seed <= 3000; ++Seed) {
    Tape TA(Seed);
    Context CA;
    Stmt A = SpecGen(CA, TA).build();
    // One choice changed, or (every third pair) none.
    Tape TB(Seed * 7919 + 1);
    TB.Choices = TA.Choices;
    std::mt19937 Pick(static_cast<std::uint32_t>(Seed));
    if (Seed % 3)
      TB.Choices[Pick() % TB.Choices.size()] ^= 1u << (Pick() % 4);
    Context CB;
    Stmt B = SpecGen(CB, TB).build();

    SpecKey KA = buildSpecKey(CA, A, EvalType::Int, Opts);
    SpecKey KB = buildSpecKey(CB, B, EvalType::Int, Opts);
    bool Same = sameSpec(CA, A, CB, B);
    ASSERT_EQ(KA == KB, Same) << "seed " << Seed;
    if (Same) {
      ++Equal;
      EXPECT_EQ(KA.Hash, KB.Hash);
      EXPECT_EQ(KA.Cacheable, KB.Cacheable);
    } else {
      ++Unequal;
    }
    Uncacheable += !KA.Cacheable;
    // A key is a pure function of its tree.
    ASSERT_TRUE(KA == buildSpecKey(CA, A, EvalType::Int, Opts));
  }
  // Both outcomes are exercised, and not only uncacheable trees.
  EXPECT_GT(Equal, 500u);
  EXPECT_GT(Unequal, 500u);
  EXPECT_LT(Uncacheable, 2500u);
}

TEST(SpecKey, RegroupedStatementsChangeTheKey) {
  // The same statements in the same order, grouped differently: only the
  // blocks' counts and the if's else-presence bit tell them apart.
  auto Key = [](int Shape) {
    Context C;
    VSpec X = C.paramInt(0);
    VSpec L = C.localInt();
    Stmt A = C.assign(L, Expr(X) + C.intConst(1));
    Stmt B = C.assign(L, Expr(L) * C.intConst(3));
    Stmt R = C.ret(L);
    Stmt Body;
    switch (Shape) {
    case 0:
      Body = C.block({C.block({A, B}), R});
      break;
    case 1:
      Body = C.block({C.block({A}), B, R});
      break;
    case 2:
      Body = C.block({C.block({A, B, R})});
      break;
    case 3:
      Body = C.block({C.ifStmt(X, A, B), R});
      break;
    default:
      Body = C.block({C.ifStmt(X, A), B, R});
      break;
    }
    return buildSpecKey(C, Body, EvalType::Int, CompileOptions());
  };
  for (int I = 0; I < 5; ++I)
    for (int J = 0; J < 5; ++J)
      EXPECT_EQ(Key(I) == Key(J), I == J) << I << " vs " << J;
}

TEST(SpecKey, RegroupedCallArgumentsChangeTheKey) {
  // f(g(x), y) and f(g(x, y)) list the same nodes in the same order; only
  // the calls' argument counts tell them apart (the callee need not fix
  // its arity: a C function may be variadic).
  auto Key = [](bool Inner) {
    Context C;
    VSpec X = C.paramInt(0), Y = C.paramInt(1);
    const void *F = reinterpret_cast<const void *>(&keyCalleeA);
    const void *G = reinterpret_cast<const void *>(&keyCalleeB);
    Expr Call = Inner ? C.callC(F, EvalType::Int, {C.callC(G, EvalType::Int,
                                                           {Expr(X), Expr(Y)})})
                      : C.callC(F, EvalType::Int,
                                {C.callC(G, EvalType::Int, {Expr(X)}), Y});
    return buildSpecKey(C, C.ret(Call), EvalType::Int, CompileOptions());
  };
  EXPECT_FALSE(Key(true) == Key(false));
  EXPECT_TRUE(Key(true) == Key(true));
}

TEST(SpecKey, LongSpecKeyGrowsPastTheInlineBuffer) {
  // A key longer than KeyBytes::InlineBytes moves to the heap; copies and
  // moves keep equal bytes.
  Context C;
  VSpec X = C.paramInt(0);
  Expr E = X;
  for (int I = 0; I < 200; ++I)
    E = E + C.rcInt(I * 1000);
  SpecKey K = buildSpecKey(C, C.ret(E), EvalType::Int, CompileOptions());
  EXPECT_GT(K.Bytes.size(), KeyBytes::InlineBytes);
  SpecKey Copy = K;
  EXPECT_TRUE(Copy == K);
  SpecKey Moved = std::move(Copy);
  EXPECT_TRUE(Moved == K);
  SpecKey Short = keyOf(3, 7);
  Moved = Short;
  EXPECT_TRUE(Moved == Short);
  EXPECT_FALSE(Moved == K);
}

// --- Hit/miss identity ------------------------------------------------------

TEST(CompileService, CapturedBuffersKeepDistinctSymbols) {
  // The runtime symbol is named after the identity hash, which covers the
  // captured addresses: perf frames of two specializations over different
  // buffers must not share a name although their key bytes are equal.
  static int CellA = 1, CellB = 2;
  CompileService S;
  std::string Names[2];
  const int *Cells[2] = {&CellA, &CellB};
  FnHandle Fns[2];
  for (int I = 0; I < 2; ++I) {
    Context C;
    VSpec X = C.paramInt(0);
    Fns[I] = S.getOrCompile(C, C.ret(Expr(X) + C.fvInt(Cells[I])),
                            EvalType::Int);
    char Name[obs::RuntimeSymbolTable::NameBytes];
    std::uintptr_t Start = 0;
    std::size_t Size = 0;
    ASSERT_TRUE(obs::RuntimeSymbolTable::global().resolve(
        reinterpret_cast<std::uintptr_t>(Fns[I]->entry()), Name, &Start,
        &Size));
    Names[I] = Name;
    EXPECT_EQ(Names[I].rfind("spec-", 0), 0u) << Names[I];
  }
  EXPECT_NE(Names[0], Names[1]);
  EXPECT_EQ(Fns[0]->as<int(int)>()(1), 2);
  EXPECT_EQ(Fns[1]->as<int(int)>()(1), 3);
}

TEST(CompileService, EnvKnobsReachServiceConfig) {
  ASSERT_EQ(setenv("TICKC_SNAPSHOT_BUDGET", "12345", 1), 0);
  ASSERT_EQ(setenv("TICKC_CACHE_BYTES", "4096", 1), 0);
  ServiceConfig C = ServiceConfig::fromEnv();
  EXPECT_EQ(C.SnapshotBudgetBytes, 12345u);
  EXPECT_EQ(C.MaxCodeBytes, 4096u);
  unsetenv("TICKC_SNAPSHOT_BUDGET");
  unsetenv("TICKC_CACHE_BYTES");
  ServiceConfig D = ServiceConfig::fromEnv();
  EXPECT_EQ(D.SnapshotBudgetBytes, ServiceConfig().SnapshotBudgetBytes);
  EXPECT_EQ(D.MaxCodeBytes, ServiceConfig().MaxCodeBytes);
}

TEST(CompileService, SameSpecSameConstantsHitsIdenticalEntry) {
  CompileService S;
  apps::QueryApp App(64);
  FnHandle A = App.specializeCached(App.benchmarkQuery(), S);
  FnHandle B = App.specializeCached(App.benchmarkQuery(), S);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(A->entry(), B->entry());
  CacheStats St = S.cache().stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Insertions, 1u);
  EXPECT_EQ(App.countCompiled(A->as<int(const apps::Record *)>()),
            App.countStaticO2(App.benchmarkQuery()));
}

TEST(CompileService, PrebuiltKeyLookupMatchesGetOrCompile) {
  CompileService S;
  apps::PowerApp P(13);
  SpecKey K = P.cacheKey();
  EXPECT_FALSE(S.lookup(K)); // Nothing compiled yet.
  FnHandle A = P.specializeCached(S);
  FnHandle B = S.lookup(K); // Steady-state path: probe with the kept key.
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(B->as<int(int)>()(2), 8192);

  // The key matches what getOrCompile derived internally.
  apps::QueryApp Q(32);
  SpecKey QK = Q.cacheKey(Q.benchmarkQuery());
  EXPECT_FALSE(S.lookup(QK));
  FnHandle QA = Q.specializeCached(Q.benchmarkQuery(), S);
  EXPECT_EQ(S.lookup(QK).get(), QA.get());
}

TEST(CompileService, DifferentRuntimeConstantsGetDistinctEntries) {
  CompileService S;
  apps::PowerApp P3(3), P5(5);
  FnHandle A = P3.specializeCached(S);
  FnHandle B = P5.specializeCached(S);
  ASSERT_TRUE(A && B);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A->as<int(int)>()(2), 8);
  EXPECT_EQ(B->as<int(int)>()(2), 32);
  EXPECT_EQ(S.cache().stats().Insertions, 2u);
}

TEST(CompileService, BackendAndRegAllocDistinguishEntries) {
  CompileService S;
  apps::PowerApp P(13);
  CompileOptions VC;
  CompileOptions LS;
  LS.Backend = BackendKind::ICode;
  CompileOptions GC = LS;
  GC.RegAlloc = icode::RegAllocKind::GraphColor;
  FnHandle A = P.specializeCached(S, VC);
  FnHandle B = P.specializeCached(S, LS);
  FnHandle C = P.specializeCached(S, GC);
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(B.get(), C.get());
  EXPECT_EQ(S.cache().stats().Insertions, 3u);
  EXPECT_EQ(A->as<int(int)>()(3), 1594323);
  EXPECT_EQ(B->as<int(int)>()(3), 1594323);
  EXPECT_EQ(C->as<int(int)>()(3), 1594323);
}

TEST(CompileService, DistinctHashTablesDoNotCollide) {
  CompileService S;
  apps::HashApp T1(256, 100, 1), T2(256, 100, 2);
  FnHandle A = T1.specializeCached(S);
  FnHandle B = T2.specializeCached(S);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(A->as<int(int)>()(T1.presentKey()), T1.presentKey() * 2 + 1);
  EXPECT_EQ(B->as<int(int)>()(T2.presentKey()), T2.presentKey() * 2 + 1);
}

TEST(CompileService, MarshalRoundTripThroughCache) {
  CompileService S;
  apps::MarshalApp M("iiiii");
  FnHandle Mar = M.buildMarshalerCached(S);
  auto Sum5 = +[](int A, int B, int C, int D, int E) {
    return A + B * 10 + C * 100 + D * 1000 + E * 10000;
  };
  FnHandle Unm =
      M.buildUnmarshalerCached(reinterpret_cast<const void *>(Sum5), S);
  std::uint8_t Buf[20];
  Mar->as<void(int, int, int, int, int, std::uint8_t *)>()(1, 2, 3, 4, 5,
                                                           Buf);
  EXPECT_EQ(Unm->as<int(const std::uint8_t *)>()(Buf), 54321);
  // Same format + same target → both hits.
  FnHandle Mar2 = M.buildMarshalerCached(S);
  FnHandle Unm2 =
      M.buildUnmarshalerCached(reinterpret_cast<const void *>(Sum5), S);
  EXPECT_EQ(Mar.get(), Mar2.get());
  EXPECT_EQ(Unm.get(), Unm2.get());
}

TEST(CompileService, UncacheableSpecsRecompileAndTrackMemory) {
  CompileService S;
  static int Cell;
  Cell = 10;
  auto Build = [&] {
    Context C;
    Stmt Body = C.ret(C.rtEval(C.fvInt(&Cell)) + C.intConst(1));
    return S.getOrCompile(C, Body, EvalType::Int);
  };
  FnHandle A = Build();
  EXPECT_EQ(A->as<int()>()(), 11);
  Cell = 20; // The $-captured immediate must be re-read, not cached.
  FnHandle B = Build();
  EXPECT_EQ(B->as<int()>()(), 21);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(S.cache().stats().Insertions, 0u);
}

// --- Eviction ----------------------------------------------------------------

TEST(CompileService, LruEvictionUnderByteBudget) {
  ServiceConfig Cfg;
  Cfg.Shards = 1; // One table, one CLOCK hand.
  Cfg.MaxCodeBytes = 256;
  CompileService S(Cfg);

  apps::PowerApp P2(2);
  FnHandle First = P2.specializeCached(S);
  std::size_t OneFn = S.cache().stats().CodeBytes;
  ASSERT_GT(OneFn, 0u);

  // Insert enough distinct specs to overflow 256 bytes many times over.
  for (unsigned E = 3; E < 40; ++E) {
    apps::PowerApp P(E);
    FnHandle H = P.specializeCached(S);
    EXPECT_EQ(H->as<int(int)>()(1), 1);
  }
  CacheStats St = S.cache().stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_LE(St.CodeBytes, 256u + OneFn); // Budget, modulo the newest entry.

  // The cold-start entry was never hit, so a sweep evicted it:
  // re-requesting it misses and recompiles into a fresh entry.
  FnHandle Again = P2.specializeCached(S);
  EXPECT_NE(Again.get(), First.get());
  // The evicted function is still alive and executable through our handle.
  EXPECT_EQ(First->as<int(int)>()(5), 25);
  EXPECT_EQ(Again->as<int(int)>()(5), 25);
}

TEST(CodeCache, ClockSparesTheEntryHitBetweenInserts) {
  // Three compiled functions and a one-shard budget one byte short of all
  // three: the third insert must evict exactly one entry. CLOCK gives the
  // entry hit since the last sweep a second chance, whichever slots the
  // hashes put the entries in, so the unreferenced one goes.
  CompileOptions Opts;
  apps::PowerApp P3(3), P5(5), P7(7);
  SpecKey K3 = P3.cacheKey(Opts), K5 = P5.cacheKey(Opts),
          K7 = P7.cacheKey(Opts);
  for (bool HitFirst : {true, false}) {
    SCOPED_TRACE(HitFirst ? "hit the first entry" : "hit the second entry");
    CompiledFn F3 = P3.specialize(Opts), F5 = P5.specialize(Opts),
               F7 = P7.specialize(Opts);
    std::size_t Budget = F3.stats().CodeBytes + F5.stats().CodeBytes +
                         F7.stats().CodeBytes - 1;
    CodeCache Cache(1, Budget);
    ASSERT_NE(insertFn(Cache, K3, std::move(F3)), nullptr);
    ASSERT_NE(insertFn(Cache, K5, std::move(F5)), nullptr);
    const SpecKey &Hit = HitFirst ? K3 : K5;
    const SpecKey &Cold = HitFirst ? K5 : K3;
    ASSERT_NE(Cache.lookup(Hit), nullptr);
    FnHandle H7 = insertFn(Cache, K7, std::move(F7));
    EXPECT_EQ(H7->as<int(int)>()(2), 128);
    CacheStats St = Cache.stats();
    EXPECT_EQ(St.Evictions, 1u);
    EXPECT_EQ(St.Entries, 2u);
    EXPECT_NE(Cache.lookup(Hit), nullptr);
    EXPECT_EQ(Cache.lookup(Cold), nullptr);
    EXPECT_NE(Cache.lookup(K7), nullptr);
  }
}

TEST(CodeCache, TableKeepsEveryEntryFindableThroughGrowthAndEviction) {
  // Hundreds of keys in one shard: the open-addressed table doubles
  // several times, and a small budget makes the sweep erase entries from
  // the middle of probe clusters. Every resident key must still be found
  // and every evicted one missed.
  CodeCache Cache(1, 4096);
  std::vector<SpecKey> Keys;
  std::vector<std::size_t> Size;
  for (int I = 0; I < 600; ++I) {
    Keys.push_back(keyOf(I, 1));
    Context C;
    VSpec X = C.paramInt(0);
    CompiledFn F = compileFn(
        C, C.ret(Expr(X) * C.rcInt(I) + C.rcInt(1)), EvalType::Int);
    EXPECT_EQ(insertFn(Cache, Keys.back(), std::move(F))->as<int(int)>()(2),
              2 * I + 1);
    if (I % 3 == 0)
      (void)Cache.lookup(Keys[static_cast<std::size_t>(I) / 2]);
  }
  CacheStats St = Cache.stats();
  EXPECT_GT(St.Evictions, 0u);
  std::size_t Found = 0;
  for (std::size_t I = 0; I < Keys.size(); ++I)
    if (FnHandle H = Cache.lookup(Keys[I])) {
      EXPECT_EQ(H->as<int(int)>()(2), 2 * static_cast<int>(I) + 1);
      ++Found;
    }
  EXPECT_EQ(Found, St.Entries);
  EXPECT_EQ(St.Entries + St.Evictions, Keys.size());
}

TEST(CodeCache, PendingEntryReadsAbsentAndOutlivesSweepsAndClear) {
  // One shard and a one-byte budget: every publish past the first sweeps.
  // A claimed key is absent to lookup(), the hand passes over it however
  // often it sweeps, clear() leaves it, and publishing it makes it hit.
  CompileOptions Opts;
  apps::PowerApp P3(3), P5(5), P7(7);
  SpecKey K3 = P3.cacheKey(Opts), K5 = P5.cacheKey(Opts),
          K7 = P7.cacheKey(Opts);
  CodeCache Cache(1, 1);
  CodeCache::Claim C3;
  ASSERT_EQ(Cache.acquire(K3, C3), nullptr);
  EXPECT_EQ(Cache.lookup(K3), nullptr);

  (void)insertFn(Cache, K5, P5.specialize(Opts));
  (void)insertFn(Cache, K7, P7.specialize(Opts)); // Evicts K5.
  CacheStats St = Cache.stats();
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.Entries, 1u); // K7; the claim is not an entry yet.
  EXPECT_EQ(Cache.lookup(K3), nullptr);
  Cache.clear();
  EXPECT_EQ(Cache.lookup(K7), nullptr);
  EXPECT_EQ(Cache.lookup(K3), nullptr);

  FnHandle H3 = Cache.publish(C3, P3.specialize(Opts));
  EXPECT_EQ(H3->as<int(int)>()(2), 8);
  EXPECT_EQ(Cache.lookup(K3).get(), H3.get());
  CodeCache::Claim Again;
  EXPECT_EQ(Cache.acquire(K3, Again).get(), H3.get());

  // One miss per claim; hits only where a function came back.
  St = Cache.stats();
  EXPECT_EQ(St.Misses, 3u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Insertions, 3u);
  EXPECT_EQ(St.Entries, 1u);
}

TEST(CompileService, EvictedEntriesSurviveWhileHandleHeld) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 64;
  CompileService S(Cfg);
  apps::QueryApp App(128);
  FnHandle Live = App.specializeCached(App.benchmarkQuery(), S);
  int Expected = App.countStaticO2(App.benchmarkQuery());
  for (unsigned E = 2; E < 34; ++E) {
    apps::PowerApp P(E);
    (void)P.specializeCached(S);
    // The held handle stays valid across every eviction wave.
    EXPECT_EQ(App.countCompiled(Live->as<int(const apps::Record *)>()),
              Expected);
  }
  EXPECT_GT(S.cache().stats().Evictions, 0u);
}

// --- Concurrency -------------------------------------------------------------

TEST(CompileService, ConcurrentGetOrCompileStress) {
  CompileService S;
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iters = 200;
  const unsigned Exponents[4] = {3, 7, 10, 13};
  const int Expected[4] = {8, 128, 1024, 8192}; // 2^e.

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < Iters; ++I) {
        unsigned Which = (T + I) % 4;
        apps::PowerApp P(Exponents[Which]);
        FnHandle H = P.specializeCached(S);
        if (!H || H->as<int(int)>()(2) != Expected[Which])
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  CacheStats St = S.cache().stats();
  // 4 distinct specs, one entry per key: a racing thread waits on the
  // key's claim instead of compiling it again.
  EXPECT_EQ(St.Entries, 4u);
  EXPECT_GE(St.Hits, NumThreads * Iters - 4u * NumThreads);
}

TEST(CompileService, SingleFlightCollapsesConcurrentColdMisses) {
  // All threads rush one cold key; exactly one compile may happen — the
  // rest must block on the leader's in-flight result.
  obs::Counter &Compiles =
      obs::MetricsRegistry::global().counter(obs::names::CompileCountVCode);
  for (unsigned Round = 0; Round < 20; ++Round) {
    CompileService S;
    apps::PowerApp P(13);
    constexpr unsigned NumThreads = 8;
    std::uint64_t Before = Compiles.value();

    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::atomic<unsigned> Failures{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T) {
      Threads.emplace_back([&] {
        Ready.fetch_add(1);
        while (!Go.load(std::memory_order_acquire))
          ;
        FnHandle H = P.specializeCached(S);
        if (!H || H->as<int(int)>()(2) != 8192)
          Failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
    while (Ready.load() != NumThreads)
      ;
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Failures.load(), 0u);
    EXPECT_EQ(S.cache().stats().Insertions, 1u) << "round " << Round;
    EXPECT_EQ(Compiles.value() - Before, 1u) << "round " << Round;
  }
}

TEST(CompileService, ConcurrentEvictionChurnIsSafe) {
  ServiceConfig Cfg;
  Cfg.Shards = 2;
  Cfg.MaxCodeBytes = 512; // Constant eviction pressure.
  CompileService S(Cfg);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 100; ++I) {
        unsigned E = 2 + (T * 31 + I) % 24;
        apps::PowerApp P(E);
        FnHandle H = P.specializeCached(S);
        // Execute while other threads evict: the handle must pin the code.
        if (H->as<int(int)>()(1) != 1)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(S.cache().stats().Evictions, 0u);
}

} // namespace
