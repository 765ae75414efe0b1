//===- core/Compile.cpp - CGF walk over specification trees ---------------==//
//
// The code-generating-function walk (paper §4.2/§4.4). One templated walker
// serves both back ends: instantiated over vcode::VCode it is the one-pass
// emitter with getreg/putreg discipline; over icode::ICode it lays down IR
// for the global allocator. The automatic dynamic partial evaluation —
// run-time constant folding, strength reduction, loop unrolling with derived
// run-time constants, and dead-branch elimination — lives in this walk.
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"

#include "core/CompileContext.h"
#include "core/Semantics.h"
#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Error.h"
#include "support/Timing.h"
#include "verify/Verify.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <climits>
#include <mutex>
#include <optional>
#include <vector>

using namespace tcc;
using namespace tcc::core;

namespace {

// --- Run-time-constant interpretation ---------------------------------------

/// A value computed at instantiation time, tagged with its evaluation type.
struct RcVal : sem::Value {
  EvalType T = EvalType::Int;

  static RcVal of(EvalType T, sem::Value V) {
    RcVal R;
    static_cast<sem::Value &>(R) = V;
    R.T = T;
    return R;
  }
  bool isFp() const { return T == EvalType::Double; }
  bool truthy() const { return sem::truthy(T, *this); }
};

/// Evaluates expressions whose value is known at instantiation time. The
/// environment carries derived run-time constants (unrolled induction
/// variables). With AllowLoads (inside an explicit `$`/rtEval), memory is
/// read immediately — this is how `$row[k]` becomes an immediate. Operator
/// values come from core/Semantics.h, which the Tick-C static half also
/// computes with; an operation that would trap is left to the emitted code.
class RcEvaluator {
public:
  RcEvaluator(unsigned NumLocals, Arena &A) : Env(A) {
    Env.resize(NumLocals, std::nullopt);
  }

  ArenaVector<std::optional<RcVal>> Env;

  /// Binds a derived run-time constant (unrolled induction variable).
  void bind(std::int32_t Id, const RcVal &V) {
    auto &Slot = Env[static_cast<std::size_t>(Id)];
    if (!Slot)
      ++NumBound;
    Slot = V;
  }
  void unbind(std::int32_t Id) {
    auto &Slot = Env[static_cast<std::size_t>(Id)];
    if (Slot)
      --NumBound;
    Slot.reset();
  }
  bool isBound(std::int32_t Id) const {
    return Env[static_cast<std::size_t>(Id)].has_value();
  }

  std::optional<RcVal> eval(const ExprNode *N, bool AllowLoads) const {
    // O(1) rejection from specification-time flags: without it, deep
    // expression chains re-walk their subtrees at every node and the CGF
    // walk goes quadratic.
    if (N->Flags & EF_HasCall)
      return std::nullopt;
    if (!AllowLoads && (N->Flags & EF_HasMemOp))
      return std::nullopt;
    if ((N->Flags & EF_HasLocal) && NumBound == 0)
      return std::nullopt;
    switch (N->Kind) {
    case ExprKind::ConstInt:
    case ExprKind::ConstLong:
    case ExprKind::ConstDouble:
      return RcVal::of(N->Type, sem::constant(N));
    case ExprKind::Local:
      return Env[static_cast<std::size_t>(N->LocalId)];
    case ExprKind::RtEval:
      return eval(N->A, /*AllowLoads=*/true);
    case ExprKind::FreeVar:
      if (!AllowLoads)
        return std::nullopt;
      return RcVal::of(N->Type,
                       sem::load(N->PtrVal, static_cast<MemType>(N->OpByte)));
    case ExprKind::Load: {
      if (!AllowLoads)
        return std::nullopt;
      auto Addr = eval(N->A, AllowLoads);
      if (!Addr)
        return std::nullopt;
      return RcVal::of(N->Type,
                       sem::load(reinterpret_cast<const void *>(
                                     static_cast<std::uintptr_t>(Addr->I)),
                                 static_cast<MemType>(N->OpByte)));
    }
    case ExprKind::Unary: {
      auto V = eval(N->A, AllowLoads);
      if (!V)
        return std::nullopt;
      return RcVal::of(N->Type, sem::unary(static_cast<UnOp>(N->OpByte),
                                           N->Type, N->A->Type, *V));
    }
    case ExprKind::Binary: {
      auto O = static_cast<BinOp>(N->OpByte);
      auto A = eval(N->A, AllowLoads);
      if (!A)
        return std::nullopt;
      // Short-circuit forms may decide on the left operand alone.
      if (O == BinOp::LogAnd && !A->truthy())
        return RcVal::of(EvalType::Int, {0});
      if (O == BinOp::LogOr && A->truthy())
        return RcVal::of(EvalType::Int, {1});
      auto B = eval(N->B, AllowLoads);
      if (!B)
        return std::nullopt;
      if (O == BinOp::LogAnd || O == BinOp::LogOr)
        return RcVal::of(EvalType::Int, {B->truthy()});
      sem::Value R;
      if (!sem::binary(O, N->Type, *A, *B, R))
        return std::nullopt; // Leave the trap to runtime.
      return RcVal::of(N->Type, R);
    }
    case ExprKind::Cmp: {
      auto A = eval(N->A, AllowLoads);
      auto B = eval(N->B, AllowLoads);
      if (!A || !B)
        return std::nullopt;
      return RcVal::of(EvalType::Int,
                       {sem::compare(static_cast<CmpKind>(N->OpByte),
                                     N->A->Type, *A, *B)});
    }
    case ExprKind::Cond: {
      auto C = eval(N->A, AllowLoads);
      if (!C)
        return std::nullopt;
      return eval(C->truthy() ? N->B : N->C, AllowLoads);
    }
    case ExprKind::Call:
      return std::nullopt;
    }
    return std::nullopt;
  }

private:
  unsigned NumBound = 0; ///< Bound Env entries; gates the HasLocal check.
};

// --- Backend traits -----------------------------------------------------------

template <class B> struct BackendTraits;

template <> struct BackendTraits<vcode::VCode> {
  using VM = vcode::VCode;
  static constexpr bool OnePass = true;
  using LabelT = vcode::Label;
  static int allocI(VM &V) { return V.getreg(); }
  static void freeI(VM &V, int R) { V.putreg(R); }
  static int allocF(VM &V) { return V.getfreg(); }
  static void freeF(VM &V, int R) { V.putfreg(R); }
  /// Memory-resident double location (safe across emitted calls).
  static int allocMemF(VM &V) { return VM::spillReg(V.allocSlot()); }
  static void bindArgs(VM &V, const vcode::ArgBind *B, unsigned N) {
    V.bindArgs(B, N);
  }
};

template <> struct BackendTraits<icode::ICode> {
  static constexpr bool OnePass = false;
  using LabelT = icode::ILabel;
  static int allocI(icode::ICode &IC) { return IC.newIntReg(); }
  static void freeI(icode::ICode &, int) {}
  static int allocF(icode::ICode &IC) { return IC.newFloatReg(); }
  static void freeF(icode::ICode &, int) {}
  static int allocMemF(icode::ICode &IC) { return IC.newFloatReg(); }
  /// ICODE's emitter orders the bindings; the IR just lists them.
  static void bindArgs(icode::ICode &IC, const vcode::ArgBind *B,
                       unsigned N) {
    for (unsigned I = 0; I < N; ++I)
      B[I].Fp ? IC.bindArgD(B[I].Index, B[I].Dst)
              : IC.bindArgI(B[I].Index, B[I].Dst);
  }
};

// --- Tree predicates -------------------------------------------------------------

bool stmtHasCall(const StmtNode *S) {
  if (!S)
    return false;
  // Every Context constructor propagates EF_HasCall up its subtree.
  for (const ExprNode *E : {S->E, S->E2, S->E3})
    if (E && (E->Flags & EF_HasCall))
      return true;
  if (stmtHasCall(S->S1) || stmtHasCall(S->S2))
    return true;
  for (std::uint32_t I = 0; I < S->BodyC; ++I)
    if (stmtHasCall(S->BodyV[I]))
      return true;
  return false;
}

/// True if \p S assigns to local \p Id or uses it as a loop induction var.
bool assignsLocal(const StmtNode *S, std::int32_t Id) {
  if (!S)
    return false;
  if ((S->Kind == StmtKind::AssignLocal || S->Kind == StmtKind::For) &&
      S->LocalId == Id)
    return true;
  if (assignsLocal(S->S1, Id) || assignsLocal(S->S2, Id))
    return true;
  for (std::uint32_t I = 0; I < S->BodyC; ++I)
    if (assignsLocal(S->BodyV[I], Id))
      return true;
  return false;
}

/// True if \p S contains control flow that could escape an unrolled copy of
/// a loop body (break/continue/goto/label).
bool hasEscapingControl(const StmtNode *S) {
  if (!S)
    return false;
  switch (S->Kind) {
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Goto:
  case StmtKind::LabelDef:
    return true;
  case StmtKind::While:
  case StmtKind::For:
    // Break/continue inside a nested loop bind to that loop; only its own
    // body's gotos/labels escape. Conservatively recurse anyway.
    break;
  default:
    break;
  }
  if (hasEscapingControl(S->S1) || hasEscapingControl(S->S2))
    return true;
  for (std::uint32_t I = 0; I < S->BodyC; ++I)
    if (hasEscapingControl(S->BodyV[I]))
      return true;
  return false;
}

// --- The walker ---------------------------------------------------------------------

/// Largest &&/||/! tree ICODE lowers branch-free. A branch-free tree
/// executes every leaf, a short-circuit chain only those it reaches, so
/// past some size the work saved on mispredictions is spent on leaves
/// the chain would skip. Measured on a 2.1 GHz-TSC Xeon VM with 300 random
/// and/or trees of N int compares per size, each scanned once over 2000
/// random 32-byte records right after its ICODE compile (DESIGN.md,
/// "Branch-free predicates"): the median branch-free scan took 0.60-0.66x
/// the chain's time at 5-10 leaves, 0.69x at 12, 0.70x at 14, 0.78x at 16
/// and 0.88x at 20, with a quarter of the trees slower than the chain at
/// 12 and up (p75 1.05-1.16). The gain stops growing before the leaf
/// count, and the compile cost, does.
constexpr unsigned MaxPredicateLeaves = 12;

/// Widest load span a page guard accepts: the widest measured. The
/// query compiler's records span at most 20 bytes (servebench's catalog)
/// and differential_test's predicate records 48. A span of s bytes sends
/// (s - 1) / 4096 of uniformly placed records to the twin: 1.1% here.
constexpr std::int64_t MaxGuardSpan = 48;

/// §4.4 partial-evaluation decisions, tallied during the walk (plain ints:
/// one flush to the shared metrics registry per compile, not one atomic add
/// per folded node).
struct Decisions {
  unsigned LoopsUnrolled = 0;
  unsigned BranchesEliminated = 0;
  unsigned StrengthReductions = 0;
  unsigned PredicatesBranchFree = 0; ///< ICODE only.
  unsigned PredicatesDeclined = 0;   ///< ICODE only.
};

template <class BE> class Walker {
  using TR = BackendTraits<BE>;
  using LabelT = typename TR::LabelT;

  /// A value produced by expression code generation.
  struct Val {
    int R = 0;
    bool Temp = false;
    bool Fp = false;
  };

public:
  Walker(Context &Ctx, BE &Back, EvalType RetType, const CompileOptions &Opts,
         Arena &Scratch)
      : Ctx(Ctx), Back(Back), RetType(RetType), Opts(Opts),
        Rc(static_cast<unsigned>(Ctx.locals().size()), Scratch),
        LocalLoc(Scratch), UserLabels(Scratch), LoopStack(Scratch),
        SpecBases(Scratch), BaseFixed(Scratch), ScratchArena(Scratch) {
    LocalLoc.resize(Ctx.locals().size(), INT_MIN);
    UserLabels.resize(Ctx.numDynLabels(), std::nullopt);
  }

  Decisions PE;

  /// When set, the generated prologue atomically increments this 64-bit
  /// counter on every invocation (CompileOptions::Profile).
  const void *ProfileCounter = nullptr;

  /// Set for the VCODE fallback of a page-guarded ICODE function
  /// (Instantiation::emitTwin), which runs in that function's frame.
  bool IsTwin = false;

  void run(const StmtNode *Body) {
    Root = Body;
    BodyHasCalls = stmtHasCall(Body);
    if constexpr (TR::OnePass)
      if (!IsTwin)
        Back.enter();
    if (ProfileCounter)
      Back.profileEntry(ProfileCounter);
    bindParams();
    genStmt(Body);
    if constexpr (!TR::OnePass)
      for (const SpecBase &B : SpecBases)
        Back.addPageGuard(
            static_cast<unsigned>(
                Ctx.locals()[static_cast<std::size_t>(B.LocalId)].ArgIndex),
            static_cast<std::int32_t>(B.Lo),
            static_cast<std::uint32_t>(B.Hi - B.Lo));
    // Fall-off-the-end return.
    if (RetType == EvalType::Void) {
      Back.retVoid();
    } else if (RetType == EvalType::Double) {
      int R = TR::allocF(Back);
      Back.setD(R, 0);
      Back.retD(R);
    } else {
      int R = TR::allocI(Back);
      Back.setI(R, 0);
      RetType == EvalType::Int ? Back.retI(R) : Back.retL(R);
    }
  }

private:
  // --- Locations -----------------------------------------------------------
  bool localIsFp(std::int32_t Id) const {
    return Ctx.locals()[static_cast<std::size_t>(Id)].Type ==
           EvalType::Double;
  }

  int localLoc(std::int32_t Id) {
    int &Loc = LocalLoc[static_cast<std::size_t>(Id)];
    if (Loc != INT_MIN)
      return Loc;
    if (localIsFp(Id))
      Loc = (TR::OnePass && BodyHasCalls) ? TR::allocMemF(Back)
                                          : TR::allocF(Back);
    else
      Loc = TR::allocI(Back);
    return Loc;
  }

  void bindParams() {
    const std::vector<LocalInfo> &Locals = Ctx.locals();
    ArenaVector<vcode::ArgBind> Binds(ScratchArena);
    for (std::size_t Id = 0; Id < Locals.size(); ++Id) {
      if (Locals[Id].ArgIndex < 0)
        continue;
      Binds.push_back({static_cast<unsigned>(Locals[Id].ArgIndex),
                       localLoc(static_cast<std::int32_t>(Id)),
                       Locals[Id].Type == EvalType::Double});
    }
    TR::bindArgs(Back, Binds.data(), static_cast<unsigned>(Binds.size()));
  }

  void freeVal(const Val &V) {
    if (!V.Temp)
      return;
    if (V.Fp)
      TR::freeF(Back, V.R);
    else
      TR::freeI(Back, V.R);
  }

  LabelT userLabel(std::int32_t Id) {
    auto &L = UserLabels[static_cast<std::size_t>(Id)];
    if (!L)
      L = Back.newLabel();
    return *L;
  }

  // --- Run-time constants as emitted values ---------------------------------
  Val materialize(const RcVal &V) {
    if (V.isFp()) {
      int R = TR::allocF(Back);
      Back.setD(R, V.D);
      return Val{R, true, true};
    }
    int R = TR::allocI(Back);
    if (V.T == EvalType::Int)
      Back.setI(R, static_cast<std::int32_t>(V.I));
    else
      Back.setL(R, V.I);
    return Val{R, true, false};
  }

  // --- Expressions ------------------------------------------------------------
  Val genExpr(const ExprNode *N) {
    // Automatic run-time-constant folding (paper §4.4) — pure parts only;
    // memory is read early only under an explicit $ (RtEval).
    if (N->Kind != ExprKind::ConstInt) // Trivial leaves handled below anyway.
      if (auto V = Rc.eval(N, /*AllowLoads=*/false))
        return materialize(*V);

    switch (N->Kind) {
    case ExprKind::ConstInt: {
      int R = TR::allocI(Back);
      Back.setI(R, static_cast<std::int32_t>(N->IntVal));
      return Val{R, true, false};
    }
    case ExprKind::ConstLong: {
      int R = TR::allocI(Back);
      Back.setL(R, N->IntVal);
      return Val{R, true, false};
    }
    case ExprKind::ConstDouble: {
      int R = TR::allocF(Back);
      Back.setD(R, N->FpVal);
      return Val{R, true, true};
    }
    case ExprKind::RtEval: {
      auto V = Rc.eval(N->A, /*AllowLoads=*/true);
      if (!V)
        reportFatalError("$-expression is not a run-time constant at "
                         "instantiation time");
      return materialize(*V);
    }
    case ExprKind::FreeVar: {
      int Addr = TR::allocI(Back);
      Back.setP(Addr, N->PtrVal);
      auto M = static_cast<MemType>(N->OpByte);
      if (M == MemType::F64) {
        int D = TR::allocF(Back);
        Back.ldD(D, Addr, 0);
        TR::freeI(Back, Addr);
        return Val{D, true, true};
      }
      emitLoad(M, Addr, Addr);
      return Val{Addr, true, false};
    }
    case ExprKind::Local: {
      std::int32_t Id = N->LocalId;
      if (auto &Bound = Rc.Env[static_cast<std::size_t>(Id)])
        return materialize(*Bound); // Derived run-time constant.
      return Val{localLoc(Id), false, localIsFp(Id)};
    }
    case ExprKind::Load: {
      auto [Addr, Off] = genAddress(N->A);
      auto M = static_cast<MemType>(N->OpByte);
      if (M == MemType::F64) {
        int D = TR::allocF(Back);
        Back.ldD(D, Addr.R, Off);
        freeVal(Addr);
        return Val{D, true, true};
      }
      int D = Addr.Temp ? Addr.R : TR::allocI(Back);
      emitLoad(M, D, Addr.R, Off);
      return Val{D, true, false};
    }
    case ExprKind::Unary:
      return genUnary(N);
    case ExprKind::Binary:
      return genBinary(N);
    case ExprKind::Cmp:
      return genCmp(N);
    case ExprKind::Call:
      return genCall(N);
    case ExprKind::Cond:
      return genCondExpr(N);
    }
    tcc_unreachable("bad expr kind");
  }

  /// Evaluates an address expression, peeling a run-time-constant added
  /// offset into the instruction's displacement field — the addressing-mode
  /// selection a CGF performs during instruction selection.
  std::pair<Val, std::int32_t> genAddress(const ExprNode *N) {
    if (N->Kind == ExprKind::Binary &&
        static_cast<BinOp>(N->OpByte) == BinOp::Add &&
        (N->Type == EvalType::Ptr || N->Type == EvalType::Long)) {
      if (auto BC = Rc.eval(N->B, false))
        if (!BC->isFp() && BC->I >= INT32_MIN && BC->I <= INT32_MAX &&
            !Rc.eval(N->A, false))
          return {genExpr(N->A), static_cast<std::int32_t>(BC->I)};
      if (auto AC = Rc.eval(N->A, false))
        if (!AC->isFp() && AC->I >= INT32_MIN && AC->I <= INT32_MAX)
          return {genExpr(N->B), static_cast<std::int32_t>(AC->I)};
    }
    return {genExpr(N), 0};
  }

  void emitLoad(MemType M, int Dst, int Base, std::int32_t Off = 0) {
    switch (M) {
    case MemType::I8:
      Back.ldI8s(Dst, Base, Off);
      break;
    case MemType::U8:
      Back.ldI8u(Dst, Base, Off);
      break;
    case MemType::I16:
      Back.ldI16s(Dst, Base, Off);
      break;
    case MemType::U16:
      Back.ldI16u(Dst, Base, Off);
      break;
    case MemType::I32:
      Back.ldI(Dst, Base, Off);
      break;
    case MemType::I64:
    case MemType::P64:
      Back.ldL(Dst, Base, Off);
      break;
    case MemType::F64:
      tcc_unreachable("F64 handled by caller");
    }
  }

  Val genUnary(const ExprNode *N) {
    auto O = static_cast<UnOp>(N->OpByte);
    if (O == UnOp::LogNot) {
      Val A = genExpr(N->A);
      int D = A.Temp ? A.R : TR::allocI(Back);
      Back.cmpSetII(CmpKind::Eq, D, A.R, 0);
      return Val{D, true, false};
    }
    Val A = genExpr(N->A);
    switch (O) {
    case UnOp::Neg:
      if (N->Type == EvalType::Double) {
        int D = A.Temp ? A.R : TR::allocF(Back);
        Back.negD(D, A.R);
        return Val{D, true, true};
      }
      if (N->Type == EvalType::Int) {
        int D = A.Temp ? A.R : TR::allocI(Back);
        Back.negI(D, A.R);
        return Val{D, true, false};
      }
      {
        // 64-bit negate: 0 - x.
        int Z = TR::allocI(Back);
        Back.setL(Z, 0);
        Back.subL(Z, Z, A.R);
        freeVal(A);
        return Val{Z, true, false};
      }
    case UnOp::Not: {
      int D = A.Temp ? A.R : TR::allocI(Back);
      Back.notI(D, A.R);
      return Val{D, true, false};
    }
    case UnOp::IntToDouble: {
      int D = TR::allocF(Back);
      Back.cvtIToD(D, A.R);
      freeVal(A);
      return Val{D, true, true};
    }
    case UnOp::LongToDouble: {
      int D = TR::allocF(Back);
      Back.cvtLToD(D, A.R);
      freeVal(A);
      return Val{D, true, true};
    }
    case UnOp::DoubleToInt: {
      int D = TR::allocI(Back);
      Back.cvtDToI(D, A.R);
      freeVal(A);
      return Val{D, true, false};
    }
    case UnOp::IntToLong: {
      int D = A.Temp ? A.R : TR::allocI(Back);
      Back.sextIToL(D, A.R);
      return Val{D, true, false};
    }
    case UnOp::LongToInt:
    case UnOp::Bitcast: {
      if (A.Temp)
        return A;
      int D = TR::allocI(Back);
      Back.movL(D, A.R);
      return Val{D, true, false};
    }
    case UnOp::LogNot:
      break;
    }
    tcc_unreachable("bad unary op");
  }

  /// Evaluates the two operands of a binary/compare node, heavier subtree
  /// first (the paper's ordering heuristic generalized: minimize temporaries
  /// spanning nested cspec generation).
  void genOperands(const ExprNode *N, Val &A, Val &B) {
    if (N->B->RegNeed > N->A->RegNeed) {
      B = genExpr(N->B);
      A = genExpr(N->A);
    } else {
      A = genExpr(N->A);
      B = genExpr(N->B);
    }
  }

  Val genBinary(const ExprNode *N) {
    auto O = static_cast<BinOp>(N->OpByte);
    if (O == BinOp::LogAnd || O == BinOp::LogOr)
      return genLogicalValue(N);

    // Strength reduction / immediate forms when one operand is a run-time
    // constant (paper §4.4).
    if (N->Type == EvalType::Int) {
      if (auto BC = Rc.eval(N->B, false))
        return genBinII(O, N->A, static_cast<std::int32_t>(BC->I));
      if (auto AC = Rc.eval(N->A, false))
        if (O == BinOp::Add || O == BinOp::Mul || O == BinOp::And ||
            O == BinOp::Or || O == BinOp::Xor)
          return genBinII(O, N->B, static_cast<std::int32_t>(AC->I));
    }
    if (N->Type == EvalType::Long || N->Type == EvalType::Ptr) {
      if (auto BC = Rc.eval(N->B, false))
        if (BC->I >= INT32_MIN && BC->I <= INT32_MAX &&
            (O == BinOp::Add || O == BinOp::Mul || O == BinOp::Sub)) {
          Val A = genExpr(N->A);
          int D = A.Temp ? A.R : TR::allocI(Back);
          auto Imm = static_cast<std::int32_t>(BC->I);
          if (O == BinOp::Add)
            Back.addLI(D, A.R, Imm);
          else if (O == BinOp::Sub)
            Back.addLI(D, A.R, -Imm);
          else {
            ++PE.StrengthReductions;
            Back.mulLI(D, A.R, Imm);
          }
          return Val{D, true, false};
        }
    }

    Val A, B;
    genOperands(N, A, B);
    bool Fp = N->Type == EvalType::Double;
    int D;
    if (A.Temp)
      D = A.R;
    else if (B.Temp)
      D = B.R; // Backends handle d==b aliasing for all ops.
    else
      D = Fp ? TR::allocF(Back) : TR::allocI(Back);

    if (Fp) {
      switch (O) {
      case BinOp::Add:
        Back.addD(D, A.R, B.R);
        break;
      case BinOp::Sub:
        Back.subD(D, A.R, B.R);
        break;
      case BinOp::Mul:
        Back.mulD(D, A.R, B.R);
        break;
      case BinOp::Div:
        Back.divD(D, A.R, B.R);
        break;
      default:
        tcc_unreachable("bad double op");
      }
    } else if (N->Type == EvalType::Int) {
      switch (O) {
      case BinOp::Add:
        Back.addI(D, A.R, B.R);
        break;
      case BinOp::Sub:
        Back.subI(D, A.R, B.R);
        break;
      case BinOp::Mul:
        Back.mulI(D, A.R, B.R);
        break;
      case BinOp::Div:
        Back.divI(D, A.R, B.R);
        break;
      case BinOp::Mod:
        Back.modI(D, A.R, B.R);
        break;
      case BinOp::And:
        Back.andI(D, A.R, B.R);
        break;
      case BinOp::Or:
        Back.orI(D, A.R, B.R);
        break;
      case BinOp::Xor:
        Back.xorI(D, A.R, B.R);
        break;
      case BinOp::Shl:
        Back.shlI(D, A.R, B.R);
        break;
      case BinOp::Shr:
        Back.shrI(D, A.R, B.R);
        break;
      default:
        tcc_unreachable("bad int op");
      }
    } else {
      switch (O) {
      case BinOp::Add:
        Back.addL(D, A.R, B.R);
        break;
      case BinOp::Sub:
        Back.subL(D, A.R, B.R);
        break;
      case BinOp::Mul:
        Back.mulL(D, A.R, B.R);
        break;
      default:
        tcc_unreachable("bad long op");
      }
    }
    // Free whichever temp was not recycled into D.
    if (A.Temp && A.R != D)
      freeVal(A);
    if (B.Temp && B.R != D)
      freeVal(B);
    return Val{D, true, Fp};
  }

  Val genBinII(BinOp O, const ExprNode *AN, std::int32_t Imm) {
    if (O == BinOp::Mul || O == BinOp::Div || O == BinOp::Mod)
      ++PE.StrengthReductions; // Backends rewrite these to shifts/magic.
    Val A = genExpr(AN);
    int D = A.Temp ? A.R : TR::allocI(Back);
    switch (O) {
    case BinOp::Add:
      Back.addII(D, A.R, Imm);
      break;
    case BinOp::Sub:
      Back.subII(D, A.R, Imm);
      break;
    case BinOp::Mul:
      Back.mulII(D, A.R, Imm);
      break;
    case BinOp::Div:
      Back.divII(D, A.R, Imm);
      break;
    case BinOp::Mod:
      Back.modII(D, A.R, Imm);
      break;
    case BinOp::And:
      Back.andII(D, A.R, Imm);
      break;
    case BinOp::Or:
      Back.orII(D, A.R, Imm);
      break;
    case BinOp::Xor:
      Back.xorII(D, A.R, Imm);
      break;
    case BinOp::Shl:
      Back.shlII(D, A.R, static_cast<std::uint8_t>(Imm & 31));
      break;
    case BinOp::Shr:
      Back.shrII(D, A.R, static_cast<std::uint8_t>(Imm & 31));
      break;
    default:
      tcc_unreachable("no immediate form");
    }
    return Val{D, true, false};
  }

  Val genCmp(const ExprNode *N) {
    auto K = static_cast<CmpKind>(N->OpByte);
    EvalType OpT = N->A->Type;
    if (OpT == EvalType::Int)
      if (auto BC = Rc.eval(N->B, false)) {
        Val A = genExpr(N->A);
        int D = A.Temp ? A.R : TR::allocI(Back);
        Back.cmpSetII(K, D, A.R, static_cast<std::int32_t>(BC->I));
        return Val{D, true, false};
      }
    Val A, B;
    genOperands(N, A, B);
    int D;
    if (OpT == EvalType::Double) {
      D = TR::allocI(Back);
      Back.cmpSetD(K, D, A.R, B.R);
      freeVal(A);
      freeVal(B);
      return Val{D, true, false};
    }
    D = A.Temp ? A.R : (B.Temp ? B.R : TR::allocI(Back));
    if (OpT == EvalType::Int)
      Back.cmpSetI(K, D, A.R, B.R);
    else
      Back.cmpSetL(K, D, A.R, B.R);
    if (A.Temp && A.R != D)
      freeVal(A);
    if (B.Temp && B.R != D)
      freeVal(B);
    return Val{D, true, false};
  }

  Val genLogicalValue(const ExprNode *N) {
    if constexpr (!TR::OnePass)
      if (admitBranchFree(N))
        return genBoolTree(N);
    int D = TR::allocI(Back);
    LabelT False = Back.newLabel(), End = Back.newLabel();
    genBranch(N, False, /*WhenTrue=*/false);
    Back.setI(D, 1);
    Back.jump(End);
    Back.bindLabel(False);
    Back.setI(D, 0);
    Back.bindLabel(End);
    return Val{D, true, false};
  }

  // --- Branch-free predicates (ICODE) --------------------------------------
  //
  // A &&/||/! tree in value context is computed as 0/1 leaves combined with
  // AndI/OrI/XorII, so a scan over random records pays no mispredictions.
  // That executes every leaf, including loads the short-circuit order would
  // skip. It is legal only for the shapes scanPredicate admits: pure leaves
  // whose loads all read `P + const` for one parameter P the body never
  // assigns, with the first-evaluated leaf loading from P. When a later
  // leaf loads, P's load span is added to the function's page guard, which
  // sends a call whose span crosses a 4 KiB page to the short-circuit VCODE
  // twin (Instantiation::emitTwin). DESIGN.md gives the argument.

  /// What scanPredicate found in one tree.
  struct PredScan {
    unsigned Leaves = 0;
    std::int32_t Base = -1; ///< LocalId of the one load base, or -1.
    std::int64_t Lo = INT64_MAX, Hi = INT64_MIN; ///< Load span off Base.
    bool FirstLoads = false; ///< The first-evaluated leaf loads from Base.
    bool Speculates = false; ///< A later leaf loads.
    const char *Declined = nullptr;
  };

  /// True if parameter \p Id can anchor speculated loads: an integer-class
  /// register argument (the page guard reads the register) that the body
  /// never assigns, so its entry value is its value at every load.
  bool isFixedBase(std::int32_t Id) {
    const LocalInfo &L = Ctx.locals()[static_cast<std::size_t>(Id)];
    if (L.ArgIndex < 0 || L.ArgIndex >= 6 ||
        (L.Type != EvalType::Ptr && L.Type != EvalType::Long))
      return false;
    if (BaseFixed.empty())
      BaseFixed.resize(Ctx.locals().size(), -1);
    std::int8_t &F = BaseFixed[static_cast<std::size_t>(Id)];
    if (F < 0)
      F = !assignsLocal(Root, Id);
    return F != 0;
  }

  /// A load's address must be `P` or `P + const` for a fixed base P.
  void scanLoad(const ExprNode *N, PredScan &S) {
    const ExprNode *Addr = N->A;
    std::int64_t Off = 0;
    if (Addr->Kind == ExprKind::Binary &&
        static_cast<BinOp>(Addr->OpByte) == BinOp::Add) {
      if (auto BC = Rc.eval(Addr->B, false)) {
        Off = BC->I;
        Addr = Addr->A;
      } else if (auto AC = Rc.eval(Addr->A, false)) {
        Off = AC->I;
        Addr = Addr->B;
      }
    }
    if (Addr->Kind != ExprKind::Local || Off < INT32_MIN || Off > INT32_MAX ||
        !isFixedBase(Addr->LocalId)) {
      S.Declined = "address";
      return;
    }
    if (S.Base >= 0 && S.Base != Addr->LocalId) {
      S.Declined = "second-base";
      return;
    }
    S.Base = Addr->LocalId;
    S.Lo = std::min(S.Lo, Off);
    S.Hi = std::max(S.Hi, Off + memSize(static_cast<MemType>(N->OpByte)));
  }

  /// One leaf's operands: constants, `$` values, locals, params, pure
  /// arithmetic, conversions and compares, and loads off the base.
  void scanLeaf(const ExprNode *N, PredScan &S, bool &Loads) {
    if (S.Declined)
      return;
    switch (N->Kind) {
    case ExprKind::ConstInt:
    case ExprKind::ConstLong:
    case ExprKind::ConstDouble:
    case ExprKind::RtEval:
    case ExprKind::Local:
      return;
    case ExprKind::FreeVar:
      S.Declined = "free-variable";
      return;
    case ExprKind::Call:
      S.Declined = "call";
      return;
    case ExprKind::Cond:
      S.Declined = "cond";
      return;
    case ExprKind::Load:
      Loads = true;
      scanLoad(N, S);
      return;
    case ExprKind::Unary:
      scanLeaf(N->A, S, Loads);
      return;
    case ExprKind::Binary: {
      auto O = static_cast<BinOp>(N->OpByte);
      if (O == BinOp::Div || O == BinOp::Mod) {
        S.Declined = "div";
        return;
      }
      if (O == BinOp::LogAnd || O == BinOp::LogOr) {
        S.Declined = "nested";
        return;
      }
      [[fallthrough]];
    }
    case ExprKind::Cmp:
      scanLeaf(N->A, S, Loads);
      scanLeaf(N->B, S, Loads);
      return;
    }
  }

  /// Walks the &&/||/! skeleton; \p First marks the leftmost leaf, the one
  /// every evaluation of the predicate executes.
  void scanPredicate(const ExprNode *N, PredScan &S, bool First) {
    if (S.Declined)
      return;
    if (N->Kind == ExprKind::Binary &&
        (static_cast<BinOp>(N->OpByte) == BinOp::LogAnd ||
         static_cast<BinOp>(N->OpByte) == BinOp::LogOr)) {
      scanPredicate(N->A, S, First);
      scanPredicate(N->B, S, false);
      return;
    }
    if (N->Kind == ExprKind::Unary &&
        static_cast<UnOp>(N->OpByte) == UnOp::LogNot) {
      scanPredicate(N->A, S, First);
      return;
    }
    if (++S.Leaves > MaxPredicateLeaves) {
      S.Declined = "leaf-cap";
      return;
    }
    if (N->Flags & EF_HasCall) {
      S.Declined = "call";
      return;
    }
    bool Loads = false;
    scanLeaf(N, S, Loads);
    if (First)
      S.FirstLoads = Loads;
    else
      S.Speculates |= Loads;
  }

  /// Decides whether the tree at \p N lowers branch-free, tallies the
  /// decision, and widens the page guard by the loads it speculates.
  bool admitBranchFree(const ExprNode *N) {
    PredScan S;
    if (hasDecisiveLeaf(N))
      S.Declined = "decisive";
    else
      scanPredicate(N, S, /*First=*/true);
    if (!S.Declined && S.Speculates && !S.FirstLoads)
      S.Declined = "first-leaf";
    SpecBase *Merged = nullptr;
    std::int64_t Lo = S.Lo, Hi = S.Hi;
    if (!S.Declined && S.Speculates) {
      for (SpecBase &B : SpecBases)
        if (B.LocalId == S.Base)
          Merged = &B;
      if (Merged) {
        Lo = std::min(Lo, Merged->Lo);
        Hi = std::max(Hi, Merged->Hi);
      }
      if (Hi - Lo > MaxGuardSpan)
        S.Declined = "span";
    }
    if (S.Declined) {
      ++PE.PredicatesDeclined;
      obs::recordEvent(obs::EventKind::PredicateDeclined, S.Leaves, 0,
                       S.Declined);
      return false;
    }
    ++PE.PredicatesBranchFree;
    if (!S.Speculates)
      return true; // Every load sits in the first leaf: nothing speculated.
    if (Merged) {
      Merged->Lo = Lo;
      Merged->Hi = Hi;
    } else {
      SpecBases.push_back(SpecBase{S.Base, Lo, Hi});
    }
    return true;
  }

  /// True if following first operands down from the root of &&/|| tree
  /// \p N, through nodes of the root's operator, ends in a leaf: a compare
  /// that alone decides the tree (false under &&, true under ||), so the
  /// chain stops there whenever it decides. Such trees keep the chain.
  /// Lowered branch-free, a tree decided by a predictable first compare
  /// ran at twice the chain's cost, and keeping one branch on that leaf
  /// (branch-free after it) still needed the page guard and the VCODE twin
  /// for the rest. Measured on servebench's catalog, where 52% of the
  /// trees have such a leaf, alternated pairs on a 4-vCPU VM: keeping
  /// that branch read hot latency_p50_x 0.21 against 0.30 here (parent
  /// 0.40), but its twins made a boot of 1024 compiles 12-19% slower
  /// (here 4%) and hot setup_s read +51% over ten 20 s pairs.
  static bool hasDecisiveLeaf(const ExprNode *N) {
    auto O = static_cast<BinOp>(N->OpByte);
    const ExprNode *First = N;
    while (isLogical(First, O))
      First = First->A;
    return First != N && !isLogical(First, BinOp::LogAnd) &&
           !isLogical(First, BinOp::LogOr) &&
           !(First->Kind == ExprKind::Unary &&
             static_cast<UnOp>(First->OpByte) == UnOp::LogNot);
  }

  static bool isLogical(const ExprNode *N, BinOp O) {
    return N->Kind == ExprKind::Binary && static_cast<BinOp>(N->OpByte) == O;
  }

  /// The 0/1 value of an admitted tree, with no branches.
  Val genBoolTree(const ExprNode *N) {
    if (auto V = Rc.eval(N, false)) {
      int R = TR::allocI(Back);
      Back.setI(R, V->truthy());
      return Val{R, true, false};
    }
    if (N->Kind == ExprKind::Binary) {
      auto O = static_cast<BinOp>(N->OpByte);
      if (O == BinOp::LogAnd || O == BinOp::LogOr) {
        Val A = genBoolTree(N->A);
        Val B = genBoolTree(N->B);
        O == BinOp::LogAnd ? Back.andI(A.R, A.R, B.R)
                           : Back.orI(A.R, A.R, B.R);
        freeVal(B);
        return A;
      }
    }
    if (N->Kind == ExprKind::Unary &&
        static_cast<UnOp>(N->OpByte) == UnOp::LogNot) {
      Val A = genBoolTree(N->A);
      Back.xorII(A.R, A.R, 1);
      return A;
    }
    if (N->Kind == ExprKind::Cmp)
      return genCmp(N);
    Val V = genExpr(N);
    int D = V.Temp ? V.R : TR::allocI(Back);
    Back.cmpSetII(CmpKind::Ne, D, V.R, 0);
    return Val{D, true, false};
  }

  Val genCondExpr(const ExprNode *N) {
    bool Fp = N->Type == EvalType::Double;
    int D = Fp ? TR::allocF(Back) : TR::allocI(Back);
    LabelT Else = Back.newLabel(), End = Back.newLabel();
    genBranch(N->A, Else, /*WhenTrue=*/false);
    Val V1 = genExpr(N->B);
    Fp ? Back.movD(D, V1.R) : Back.movL(D, V1.R);
    freeVal(V1);
    Back.jump(End);
    Back.bindLabel(Else);
    Val V2 = genExpr(N->C);
    Fp ? Back.movD(D, V2.R) : Back.movL(D, V2.R);
    freeVal(V2);
    Back.bindLabel(End);
    return Val{D, true, Fp};
  }

  Val genCall(const ExprNode *N) {
    // Composition with calls: evaluate the callee (if indirect) and every
    // argument to temporaries, then marshal into argument registers.
    Val FnV{};
    if (N->A)
      FnV = genExpr(N->A);
    ArenaVector<Val> Args(ScratchArena);
    Args.reserve(N->ArgC);
    for (std::uint32_t I = 0; I < N->ArgC; ++I)
      Args.push_back(genExpr(N->ArgV[I]));
    unsigned IntSlot = 0, FpSlot = 0;
    for (std::uint32_t I = 0; I < N->ArgC; ++I) {
      if (N->ArgV[I]->Type == EvalType::Double)
        Back.prepareCallArgD(FpSlot++, Args[I].R);
      else
        Back.prepareCallArgI(IntSlot++, Args[I].R);
    }
    for (const Val &V : Args)
      freeVal(V);
    if constexpr (TR::OnePass)
      saveFpRegsAroundCall(true);
    if (N->A)
      Back.emitCallIndirect(FnV.R, N->CallFpArgs);
    else
      Back.emitCall(N->PtrVal, N->CallFpArgs);
    if constexpr (TR::OnePass)
      saveFpRegsAroundCall(false);
    if (N->A)
      freeVal(FnV);
    switch (N->Type) {
    case EvalType::Void:
      return Val{0, false, false};
    case EvalType::Double: {
      int D = TR::allocF(Back);
      Back.resultToD(D);
      return Val{D, true, true};
    }
    case EvalType::Int: {
      int D = TR::allocI(Back);
      Back.resultToI(D);
      return Val{D, true, false};
    }
    default: {
      int D = TR::allocI(Back);
      Back.resultToL(D);
      return Val{D, true, false};
    }
    }
  }

  /// VCode backend only: XMM registers are caller-saved, so any double
  /// currently materialized in the float pool is saved to a per-register
  /// slot before an emitted call and restored afterwards.
  void saveFpRegsAroundCall(bool Save) {
    if constexpr (TR::OnePass) {
      std::uint32_t Mask = Back.allocatedFpMask();
      while (Mask) {
        int R = std::countr_zero(Mask);
        Mask &= Mask - 1;
        int &Slot = FpCallSlots[static_cast<std::size_t>(R)];
        if (Slot == INT_MIN)
          Slot = vcode::VCode::spillReg(Back.allocSlot());
        if (Save)
          Back.movD(Slot, R);
        else
          Back.movD(R, Slot);
      }
    }
  }

  // --- Branch generation ------------------------------------------------------
  void genBranch(const ExprNode *Cond, LabelT Target, bool WhenTrue) {
    if (auto V = Rc.eval(Cond, false)) {
      if (V->truthy() == WhenTrue)
        Back.jump(Target);
      return;
    }
    if (Cond->Kind == ExprKind::Unary &&
        static_cast<UnOp>(Cond->OpByte) == UnOp::LogNot) {
      genBranch(Cond->A, Target, !WhenTrue);
      return;
    }
    if (Cond->Kind == ExprKind::Binary) {
      auto O = static_cast<BinOp>(Cond->OpByte);
      if (O == BinOp::LogAnd) {
        if (WhenTrue) {
          LabelT Skip = Back.newLabel();
          genBranch(Cond->A, Skip, false);
          genBranch(Cond->B, Target, true);
          Back.bindLabel(Skip);
        } else {
          genBranch(Cond->A, Target, false);
          genBranch(Cond->B, Target, false);
        }
        return;
      }
      if (O == BinOp::LogOr) {
        if (WhenTrue) {
          genBranch(Cond->A, Target, true);
          genBranch(Cond->B, Target, true);
        } else {
          LabelT Skip = Back.newLabel();
          genBranch(Cond->A, Skip, true);
          genBranch(Cond->B, Target, false);
          Back.bindLabel(Skip);
        }
        return;
      }
    }
    if (Cond->Kind == ExprKind::Cmp) {
      auto K = static_cast<CmpKind>(Cond->OpByte);
      if (!WhenTrue)
        K = vcode::negate(K);
      EvalType OpT = Cond->A->Type;
      if (OpT == EvalType::Int)
        if (auto BC = Rc.eval(Cond->B, false)) {
          Val A = genExpr(Cond->A);
          Back.brCmpII(K, A.R, static_cast<std::int32_t>(BC->I), Target);
          freeVal(A);
          return;
        }
      Val A, B;
      genOperands(Cond, A, B);
      if (OpT == EvalType::Double)
        Back.brCmpD(K, A.R, B.R, Target);
      else if (OpT == EvalType::Int)
        Back.brCmpI(K, A.R, B.R, Target);
      else
        Back.brCmpL(K, A.R, B.R, Target);
      freeVal(A);
      freeVal(B);
      return;
    }
    Val V = genExpr(Cond);
    if (WhenTrue)
      Back.brTrueI(V.R, Target);
    else
      Back.brFalseI(V.R, Target);
    freeVal(V);
  }

  // --- Statements ----------------------------------------------------------------
  void genStmt(const StmtNode *S) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Block:
      for (std::uint32_t I = 0; I < S->BodyC; ++I)
        genStmt(S->BodyV[I]);
      return;
    case StmtKind::ExprStmt: {
      Val V = genExpr(S->E);
      freeVal(V);
      return;
    }
    case StmtKind::AssignLocal: {
      if (Rc.isBound(S->LocalId))
        reportFatalError("assignment to an unrolled induction variable");
      Val V = genExpr(S->E);
      int Loc = localLoc(S->LocalId);
      localIsFp(S->LocalId) ? Back.movD(Loc, V.R) : Back.movL(Loc, V.R);
      freeVal(V);
      return;
    }
    case StmtKind::Store: {
      auto [Addr, Off] = genAddress(S->E);
      Val V = genExpr(S->E2);
      switch (static_cast<MemType>(S->OpByte)) {
      case MemType::I8:
      case MemType::U8:
        Back.stI8(Addr.R, Off, V.R);
        break;
      case MemType::I16:
      case MemType::U16:
        Back.stI16(Addr.R, Off, V.R);
        break;
      case MemType::I32:
        Back.stI(Addr.R, Off, V.R);
        break;
      case MemType::I64:
      case MemType::P64:
        Back.stL(Addr.R, Off, V.R);
        break;
      case MemType::F64:
        Back.stD(Addr.R, Off, V.R);
        break;
      }
      freeVal(Addr);
      freeVal(V);
      return;
    }
    case StmtKind::If: {
      // Dead-branch elimination on run-time-constant conditions (§4.4).
      if (auto V = Rc.eval(S->E, false)) {
        ++PE.BranchesEliminated;
        genStmt(V->truthy() ? S->S1 : S->S2);
        return;
      }
      if (S->S2) {
        LabelT Else = Back.newLabel(), End = Back.newLabel();
        genBranch(S->E, Else, false);
        genStmt(S->S1);
        Back.jump(End);
        Back.bindLabel(Else);
        genStmt(S->S2);
        Back.bindLabel(End);
      } else {
        LabelT End = Back.newLabel();
        genBranch(S->E, End, false);
        genStmt(S->S1);
        Back.bindLabel(End);
      }
      return;
    }
    case StmtKind::While: {
      LabelT Head = Back.newLabel(), End = Back.newLabel();
      Back.bindLabel(Head);
      genBranch(S->E, End, false);
      hint(+1);
      LoopStack.push_back(LoopLabels{End, Head});
      genStmt(S->S1);
      LoopStack.pop_back();
      hint(-1);
      Back.jump(Head);
      Back.bindLabel(End);
      return;
    }
    case StmtKind::For:
      genFor(S);
      return;
    case StmtKind::Return: {
      if (!S->E) {
        Back.retVoid();
        return;
      }
      Val V = genExpr(S->E);
      switch (RetType) {
      case EvalType::Double:
        Back.retD(V.R);
        break;
      case EvalType::Int:
        Back.retI(V.R);
        break;
      case EvalType::Void:
        Back.retVoid();
        break;
      default:
        Back.retL(V.R);
        break;
      }
      freeVal(V);
      return;
    }
    case StmtKind::Break:
      if (LoopStack.empty())
        reportFatalError("break outside a loop");
      Back.jump(LoopStack.back().Break);
      return;
    case StmtKind::Continue:
      if (LoopStack.empty())
        reportFatalError("continue outside a loop");
      Back.jump(LoopStack.back().Continue);
      return;
    case StmtKind::LabelDef:
      Back.bindLabel(userLabel(S->LocalId));
      return;
    case StmtKind::Goto:
      Back.jump(userLabel(S->LocalId));
      return;
    }
  }

  void hint(int Delta) {
    if constexpr (!TR::OnePass)
      Back.hint(Delta);
  }

  /// Trip-count values of an unrollable loop, or nullopt. The test and
  /// the wrapping step at the induction variable's type \p VarT are the
  /// ones the emitted runtime loop performs.
  std::optional<ArenaVector<std::int64_t>>
  unrollValues(EvalType VarT, std::int64_t Init, CmpKind K,
               std::int64_t Bound, std::int64_t Step, std::uint64_t Limit) {
    if (Step == 0)
      return std::nullopt;
    ArenaVector<std::int64_t> Values(ScratchArena);
    for (std::int64_t V = sem::canon(VarT, Init); sem::compareInt(K, V, Bound);
         V = sem::add(VarT, V, Step)) {
      if (Values.size() > Limit)
        return std::nullopt;
      Values.push_back(V);
    }
    return Values;
  }

  void genFor(const StmtNode *S) {
    auto K = static_cast<CmpKind>(S->OpByte);
    // Dynamic loop unrolling (paper §4.4): run-time-constant bounds and
    // step, and a body that never reassigns the induction variable.
    auto IV = Rc.eval(S->E, false);
    auto BV = Rc.eval(S->E2, false);
    auto SV = Rc.eval(S->E3, false);
    if (IV && BV && SV && !IV->isFp() && !BV->isFp() && !SV->isFp() &&
        !assignsLocal(S->S1, S->LocalId) && !hasEscapingControl(S->S1)) {
      EvalType VarT = Ctx.locals()[static_cast<std::size_t>(S->LocalId)].Type;
      if (auto Values =
              unrollValues(VarT, IV->I, K, BV->I, SV->I, Opts.UnrollLimit)) {
        ++PE.LoopsUnrolled;
        for (std::int64_t V : *Values) {
          Rc.bind(S->LocalId, RcVal::of(VarT, {V})); // Derived rt const.
          genStmt(S->S1);
        }
        Rc.unbind(S->LocalId);
        // The induction variable's final value is observable after the
        // loop; materialize it.
        std::int64_t Final = Values->empty()
                                 ? sem::canon(VarT, IV->I)
                                 : sem::add(VarT, Values->back(), SV->I);
        int Loc = localLoc(S->LocalId);
        if (VarT == EvalType::Int)
          Back.setI(Loc, static_cast<std::int32_t>(Final));
        else
          Back.setL(Loc, Final);
        return;
      }
    }

    // Runtime loop: V = init; head: if (!(V K bound)) goto end;
    // body; cont: V += step; goto head; end:
    bool VarIsLong =
        Ctx.locals()[static_cast<std::size_t>(S->LocalId)].Type !=
        EvalType::Int;
    int Loc = localLoc(S->LocalId);
    {
      Val Init = genExpr(S->E);
      Back.movL(Loc, Init.R);
      freeVal(Init);
    }
    LabelT Head = Back.newLabel(), Cont = Back.newLabel(),
           End = Back.newLabel();
    Back.bindLabel(Head);
    CmpKind NK = vcode::negate(K);
    if (!VarIsLong && BV) {
      Back.brCmpII(NK, Loc, static_cast<std::int32_t>(BV->I), End);
    } else {
      Val Bound = genExpr(S->E2);
      if (VarIsLong)
        Back.brCmpL(NK, Loc, Bound.R, End);
      else
        Back.brCmpI(NK, Loc, Bound.R, End);
      freeVal(Bound);
    }
    hint(+1);
    LoopStack.push_back(LoopLabels{End, Cont});
    genStmt(S->S1);
    LoopStack.pop_back();
    Back.bindLabel(Cont);
    if (SV && !VarIsLong) {
      Back.addII(Loc, Loc, static_cast<std::int32_t>(SV->I));
    } else if (SV && VarIsLong && SV->I >= INT32_MIN && SV->I <= INT32_MAX) {
      Back.addLI(Loc, Loc, static_cast<std::int32_t>(SV->I));
    } else {
      Val Step = genExpr(S->E3);
      if (VarIsLong)
        Back.addL(Loc, Loc, Step.R);
      else
        Back.addI(Loc, Loc, Step.R);
      freeVal(Step);
    }
    hint(-1);
    Back.jump(Head);
    Back.bindLabel(End);
  }

  /// Break/continue targets of the enclosing loop. A plain struct rather
  /// than std::pair: pair's assignment operator is non-trivial, which would
  /// bar it from arena storage.
  struct LoopLabels {
    LabelT Break;
    LabelT Continue;
  };

  /// A parameter whose loads some branch-free predicate speculates, with
  /// the union [Lo, Hi) of those predicates' load offsets.
  struct SpecBase {
    std::int32_t LocalId;
    std::int64_t Lo, Hi;
  };

  Context &Ctx;
  BE &Back;
  EvalType RetType;
  const CompileOptions &Opts;
  RcEvaluator Rc;
  ArenaVector<int> LocalLoc;
  ArenaVector<std::optional<LabelT>> UserLabels;
  ArenaVector<LoopLabels> LoopStack;
  ArenaVector<SpecBase> SpecBases;
  ArenaVector<std::int8_t> BaseFixed; ///< Per local: -1 unknown, else 0/1.
  Arena &ScratchArena;
  const StmtNode *Root = nullptr;
  bool BodyHasCalls = false;
  int FpCallSlots[vcode::VCode::NumFloatPool] = {
      INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN,
      INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN, INT_MIN};
};

/// Global-registry mirrors of the per-compile accounting. Resolved once;
/// each compile flushes its DynStats/decisions with a handful of relaxed
/// adds, keeping the instrumented path within the disabled-overhead budget.
struct CompileMetrics {
  obs::Counter &CountVCode, &CountICode;
  obs::Counter &CyclesTotal, &CodeBytes, &MachineInstrs;
  obs::Counter &Setup, &Walk, &Finalize, &FlowGraph, &Liveness, &Intervals,
      &RegAlloc, &Peephole, &Emit;
  obs::Counter &Spilled, &Unrolled, &DeadBranches, &Strength;
  obs::Counter &BranchFree, &Declined;
  obs::Counter &PoolCallerSaved, &PoolCalleeSaved;
  obs::Counter &Allocs;
  obs::Histogram &HistVCode, &HistLinear, &HistColor;
  obs::Histogram &ArenaBytes, &CpiVCode, &CpiICode;

  static CompileMetrics &get() {
    using obs::MetricsRegistry;
    namespace N = obs::names;
    auto &R = MetricsRegistry::global();
    static CompileMetrics M{
        R.counter(N::CompileCountVCode), R.counter(N::CompileCountICode),
        R.counter(N::CompileCyclesTotal), R.counter(N::CompileCodeBytes),
        R.counter(N::CompileMachineInstrs), R.counter(N::PhaseSetup),
        R.counter(N::PhaseCgfWalk),
        R.counter(N::PhaseFinalize), R.counter(N::PhaseFlowGraph),
        R.counter(N::PhaseLiveness), R.counter(N::PhaseLiveIntervals),
        R.counter(N::PhaseRegAlloc), R.counter(N::PhasePeephole),
        R.counter(N::PhaseEmit), R.counter(N::SpilledIntervals),
        R.counter(N::LoopsUnrolled), R.counter(N::BranchesEliminated),
        R.counter(N::StrengthReductions),
        R.counter(N::PredicatesBranchFree), R.counter(N::PredicatesDeclined),
        R.counter(N::PoolCallerSaved), R.counter(N::PoolCalleeSaved),
        R.counter(N::CompileAllocs), R.histogram(N::HistCyclesVCode),
        R.histogram(N::HistCyclesLinearScan),
        R.histogram(N::HistCyclesGraphColor),
        R.histogram(N::HistArenaBytes), R.histogram(N::HistCpiVCode),
        R.histogram(N::HistCpiICode)};
    return M;
  }
};

void publishCompileMetrics(const CompiledFn &F, const CompileOptions &Opts,
                           const Decisions &PE) {
  CompileMetrics &M = CompileMetrics::get();
  const DynStats &S = F.stats();
  M.CyclesTotal.inc(S.CyclesTotal);
  M.Setup.inc(S.CyclesSetup);
  M.Walk.inc(S.CyclesWalk);
  M.Finalize.inc(S.CyclesFinalize);
  M.CodeBytes.inc(S.CodeBytes);
  M.MachineInstrs.inc(S.MachineInstrs);
  if (PE.LoopsUnrolled)
    M.Unrolled.inc(PE.LoopsUnrolled);
  if (PE.BranchesEliminated)
    M.DeadBranches.inc(PE.BranchesEliminated);
  if (PE.StrengthReductions)
    M.Strength.inc(PE.StrengthReductions);
  if (PE.PredicatesBranchFree)
    M.BranchFree.inc(PE.PredicatesBranchFree);
  if (PE.PredicatesDeclined)
    M.Declined.inc(PE.PredicatesDeclined);
  obs::Histogram *Cpi;
  if (Opts.Backend == BackendKind::VCode) {
    M.CountVCode.inc();
    M.HistVCode.record(S.CyclesTotal);
    Cpi = &M.CpiVCode;
  } else {
    M.CountICode.inc();
    M.FlowGraph.inc(S.ICode.CyclesFlowGraph);
    M.Liveness.inc(S.ICode.CyclesLiveness);
    M.Intervals.inc(S.ICode.CyclesIntervals);
    M.RegAlloc.inc(S.ICode.CyclesRegAlloc);
    M.Peephole.inc(S.ICode.CyclesPeephole);
    M.Emit.inc(S.ICode.CyclesEmit);
    M.Spilled.inc(S.ICode.NumSpilledIntervals);
    (S.ICode.CallerSavedPool ? M.PoolCallerSaved : M.PoolCalleeSaved).inc();
    (Opts.RegAlloc == icode::RegAllocKind::LinearScan ? M.HistLinear
                                                      : M.HistColor)
        .record(S.CyclesTotal);
    Cpi = &M.CpiICode;
  }
  if (S.MachineInstrs > 0)
    Cpi->record(S.CyclesTotal / S.MachineInstrs);
}

/// Runs one verify layer: times \p Check as a Verify phase, records the
/// outcome under \p L, and on a finding aborts the compile with the
/// structured report, so generated code never escapes a failed check. A
/// check that runs inside the compile's CyclesTotal scope passes the
/// per-compile accumulator as \p Deduct: its checker time is recorded under
/// verify.cycles and *subtracted* from CyclesTotal, so verification never
/// skews the Figure 6/7 phase accounting or the cycles-per-instruction
/// overhead series.
template <class CheckFn>
void runCheck(verify::Layer L, std::uint64_t *Deduct, CheckFn &&Check) {
  std::uint64_t Cyc = 0;
  verify::Result R;
  {
    obs::Phase T(obs::EventKind::Verify, Cyc);
    R = Check();
  }
  if (Deduct)
    *Deduct += Cyc;
  verify::recordOutcome(L, !R.ok(), Cyc);
  if (!R.ok())
    verify::failCompile(R);
}

/// Bridges the ICODE pipeline's CompileAudit hooks to the verify layers.
/// The IR is re-verified after the peephole (DCE must not invent or orphan
/// operands) and the allocation audited the moment it exists, before the
/// emitter consumes it. Ctx points at the per-compile verify-cycle
/// accumulator.
struct VerifyHooks {
  static void postPeephole(void *Ctx, const icode::ICode &IC) {
    runCheck(verify::Layer::IR, static_cast<std::uint64_t *>(Ctx),
             [&] { return verify::verifyICode(IC); });
  }
  static void postRegAlloc(void *Ctx, const icode::ICode &IC,
                           const icode::Allocation &Alloc) {
    runCheck(verify::Layer::RegAlloc, static_cast<std::uint64_t *>(Ctx),
             [&] { return verify::auditAllocation(IC, Alloc); });
  }
};

/// Default symbol of an unnamed compile, in BackendKind order;
/// backendName() is the part after "spec.".
constexpr const char *DefaultSymbols[] = {"spec.vcode", "spec.icode"};

} // namespace

namespace tcc {
namespace core {

/// One instantiation (paper §4.4) of \c Body into \c F. Backend and walker
/// construction is charged to the setup phase and the CGF walk to the walk
/// phase, so the stacked breakdown keeps summing to the total (tickc-report's
/// drift guard asserts >= 95% coverage).
struct Instantiation {
  CompiledFn &F;
  Context &Ctx;
  const StmtNode *Body;
  EvalType RetType;
  const CompileOptions &Opts;
  Arena &A;
  std::uint8_t *Buf; ///< The context's emission buffer.
  bool DoVerify;
  std::uint64_t &VerifyCyc; ///< Checker time, deducted from the total.

  /// VCODE emits during the walk; ICODE lays down IR that its own pipeline
  /// then allocates and emits through a VCODE encoder.
  template <class BE> Decisions run() {
    std::uint64_t SetupStart = readCycleCounterBegin();
    if constexpr (BackendTraits<BE>::OnePass) {
      BE V(Buf, CompileContext::CodeBufferBytes, &A);
      if (Opts.Relocs)
        V.assembler().setRelocTable(Opts.Relocs);
      Decisions PE = walk(V, SetupStart);
      recordCode(V);
      return PE;
    } else {
      BE IC(A);
      Decisions PE = walk(IC, SetupStart);
      // Post-lowering IR check; the peephole and regalloc re-checks run
      // from inside the pipeline via the audit hooks below.
      if (DoVerify)
        runCheck(verify::Layer::IR, &VerifyCyc,
                 [&] { return verify::verifyICode(IC); });
      icode::CompileAudit Audit;
      Audit.Ctx = &VerifyCyc;
      Audit.PostPeephole = &VerifyHooks::postPeephole;
      Audit.PostRegAlloc = &VerifyHooks::postRegAlloc;
      SetupStart = readCycleCounterBegin();
      vcode::VCode V(Buf, CompileContext::CodeBufferBytes, &A);
      if (Opts.Relocs)
        V.assembler().setRelocTable(Opts.Relocs);
      F.Stats.CyclesSetup += readCycleCounterEnd() - SetupStart;
      F.Entry = IC.compileTo(V, Opts.RegAlloc, &F.Stats.ICode, Opts.Spill,
                             DoVerify ? &Audit : nullptr);
      if (!IC.pageGuards().empty())
        emitTwin(V);
      recordCode(V);
      return PE;
    }
  }

private:
  /// Builds the walker (setup, timed from \p SetupStart) and runs the CGF
  /// walk over \p Back (walk).
  template <class BE> Decisions walk(BE &Back, std::uint64_t SetupStart) {
    Walker<BE> W(Ctx, Back, RetType, Opts, A);
    if (F.Prof)
      W.ProfileCounter = &F.Prof->Invocations;
    F.Stats.CyclesSetup += readCycleCounterEnd() - SetupStart;
    obs::Phase Walk(obs::EventKind::CGFWalk, F.Stats.CyclesWalk);
    W.run(Body);
    if constexpr (BackendTraits<BE>::OnePass)
      F.Entry = Back.finish();
    return W.PE;
  }

  /// The fallback of a page-guarded ICODE function, emitted where
  /// ICode::compileTo left \p V: the same body walked a second time by the
  /// one-pass VCODE walker, in short-circuit order, right after the guarded
  /// body. It shares that body's frame and exit, so the function stays one
  /// function at offset 0, and it plants its own profile hook, so a
  /// profiled call counts once on either path. Charged, with the finish
  /// that ends it, to the walk phase as a VCODE walk is; its decisions are
  /// not tallied again.
  void emitTwin(vcode::VCode &V) {
    obs::Phase Walk(obs::EventKind::CGFWalk, F.Stats.CyclesWalk);
    Walker<vcode::VCode> W(Ctx, V, RetType, Opts, A);
    if (F.Prof)
      W.ProfileCounter = &F.Prof->Invocations;
    W.IsTwin = true;
    W.run(Body);
    F.Entry = V.finish();
  }

  template <class VM> void recordCode(const VM &V) {
    F.Stats.MachineInstrs = V.instructionsEmitted();
    F.Stats.CodeBytes = V.codeBytes();
  }
};

} // namespace core
} // namespace tcc

const char *core::backendName(BackendKind K) {
  return DefaultSymbols[static_cast<std::size_t>(K)] + sizeof("spec.") - 1;
}

CompiledFn core::compileFn(Context &Ctx, Stmt Body, EvalType RetType,
                           const CompileOptions &Opts) {
  assert(Body.valid() && "compiling an empty cspec");
  // Environment-driven runtime observability (perf map/jitdump export, the
  // SIGPROF sampler, the flight-recorder crash handler) attaches at the
  // first compile, before any generated code can run.
  static std::once_flag ObsOnce;
  std::call_once(ObsOnce, obs::initRuntimeObservabilityFromEnv);
  const char *SymName =
      Opts.SymbolName && *Opts.SymbolName ? Opts.SymbolName
      : Opts.ProfileName && *Opts.ProfileName
          ? Opts.ProfileName
          : DefaultSymbols[static_cast<std::size_t>(Opts.Backend)];
  obs::recordEvent(obs::EventKind::CompileBegin, 0, 0, SymName);
  const bool DoVerify = verify::enabled(Opts.Verify);
  // The lint runs before the Total scope opens, so there is nothing to
  // deduct.
  if (DoVerify)
    runCheck(verify::Layer::Spec, nullptr,
             [&] { return verify::lintSpec(Ctx, Body.node()); });
  CompiledFn F;
  F.Backend = Opts.Backend;
  if (Opts.Profile)
    F.Prof = std::make_shared<obs::ProfileEntry>();
  // Per-compile scratch: this thread's context. A nested compile on the
  // same thread (a CGF that itself compiles) must not reset the arena the
  // outer compile is using, so it gets a private one for the duration.
  CompileContext *CC = &CompileContext::forCurrentThread();
  std::unique_ptr<CompileContext> Nested;
  if (CC->inUse()) {
    Nested.reset(new CompileContext());
    CC = Nested.get();
  }
  CompileContext::Scope CtxScope(*CC);
  Arena &A = CC->arena();
  std::uint8_t *Buf = CC->codeBuffer();
  Decisions PE;
  // Checker time spent inside the Total scope; deducted below so CyclesTotal
  // keeps meaning "what the compile itself cost" with or without -verify.
  std::uint64_t VerifyCyc = 0;
  {
    obs::Phase Total(obs::EventKind::CompileTotal, F.Stats.CyclesTotal);
    Instantiation I{F, Ctx, Body.node(), RetType, Opts,
                    A, Buf, DoVerify, VerifyCyc};
    PE = Opts.Backend == BackendKind::VCode ? I.run<vcode::VCode>()
                                            : I.run<icode::ICode>();
    {
      // Installing is part of what a compile costs; charge it inside the
      // total so the phase breakdown sums to the whole. The code goes into
      // its heap block the way a snapshot load's does, and nothing calls
      // the exec-view entry before compileFn returns.
      obs::Phase Fin(obs::EventKind::Finalize, F.Stats.CyclesFinalize);
      if (F.Entry && F.Stats.CodeBytes) {
        F.Code = CodeHeap::global().install(Buf, F.Stats.CodeBytes,
                                            Opts.Placement);
        F.Entry = F.Code.exec() + (static_cast<std::uint8_t *>(F.Entry) - Buf);
      }
    }
    // Admit the installed bytes through the block's writable view: the
    // same analysis every snapshot load faces unconditionally, so a shape
    // the verifier would reject at load time can never be saved unnoticed.
    // When this compile recorded a portable reloc table, it is handed over
    // and the call-target confinement proof runs exactly as it will on
    // reload. Fresh compiles also switch on their backend's own facts.
    if (DoVerify)
      runCheck(verify::Layer::Admit, &VerifyCyc, [&] {
        verify::AdmissionInputs AI;
        AI.Code = F.Code.code();
        AI.Size = F.Stats.CodeBytes;
        AI.ProfileCounter =
            F.Prof ? static_cast<const void *>(&F.Prof->Invocations) : nullptr;
        AI.ExpectProfile = Opts.Profile && F.Prof != nullptr;
        if (Opts.Relocs && !Opts.Relocs->Unportable) {
          AI.Relocs = Opts.Relocs->Entries.data();
          AI.NumRelocs = Opts.Relocs->Entries.size();
          AI.HaveRelocs = true;
        }
        // The usage cross-check and spill dataflow assume ICODE's emission
        // discipline; VCODE's one-pass output gets the structural checks.
        AI.ICodeFacts = Opts.Backend == BackendKind::ICode;
        return verify::verifyAdmission(AI);
      });
  }
  F.Stats.CyclesTotal -= std::min(F.Stats.CyclesTotal, VerifyCyc);
  if (F.Prof) {
    F.Prof->CompileCycles.store(F.Stats.CyclesTotal,
                                std::memory_order_relaxed);
    F.Prof->Backend.store(backendName(Opts.Backend),
                          std::memory_order_relaxed);
  }
  {
    // Compile-path memory accounting: zero allocs in steady state (the
    // context's arena retains capacity across compiles).
    CompileMetrics &M = CompileMetrics::get();
    M.Allocs.inc(CC->allocsThisCompile());
    M.ArenaBytes.record(CC->arenaBytes());
  }
  // Register the installed code so the sampler, the flight recorder, and
  // external perf can symbolize its PCs, and the report can find its
  // profile entry. The handle retires in ~CompiledFn (declared after
  // Code/Prof), which a tier slot only runs once the slot itself dies — no
  // caller can still be executing the block.
  if (F.Entry && F.Stats.CodeBytes)
    F.Sym = obs::RuntimeSymbolTable::global().registerRegion(
        F.Entry, F.Stats.CodeBytes, SymName, F.Prof.get());
  obs::recordEvent(obs::EventKind::CompileEnd, F.Stats.CodeBytes,
                   F.Stats.CyclesTotal, SymName);
  publishCompileMetrics(F, Opts, PE);
  return F;
}

CompiledFn core::adoptLoadedCode(LoadedCode &&L) {
  assert(L.Code && "adopting an empty loaded block");
  CompiledFn F;
  F.Code = std::move(L.Code);
  F.Entry = F.Code.exec();
  F.Prof = std::move(L.Prof);
  F.Backend = L.Backend;
  F.FromSnapshot = true;
  F.Stats.CodeBytes = F.Code.size();
  F.Stats.MachineInstrs = L.MachineInstrs;
  // Compile-phase cycles stay zero: nothing was compiled here, and a loaded
  // function reporting a walk cost would corrupt the paper's per-phase
  // tables. The snapshot layer accounts load latency separately
  // (cache.snapshot.load.cycles).
  const char *SymName =
      L.SymbolName && *L.SymbolName ? L.SymbolName : "spec.snapshot";
  if (F.Prof)
    F.Prof->Backend.store("snapshot", std::memory_order_relaxed);
  F.Sym = obs::RuntimeSymbolTable::global().registerRegion(
      F.Entry, F.Stats.CodeBytes, SymName, F.Prof.get());
  obs::recordEvent(obs::EventKind::CompileEnd, F.Stats.CodeBytes, 0, SymName);
  return F;
}
