//===- core/SpecInterp.cpp - Spec-tree interpreter (tier 0) ---------------==//
//
// Executes specification trees directly. Every operator value, load and
// store comes from core/Semantics.h, the definitions the instantiation-time
// constant folder also uses and that follow the emitted x86 (idiv traps
// raise SIGFPE here). What remains is the tree walk: control flow, calls,
// and the profile hooks. The For statement re-tests its bound and applies
// its step exactly like the emitted runtime loop.
//
//===----------------------------------------------------------------------===//

#include "core/SpecInterp.h"

#include <cassert>
#include <csignal>
#include <cstring>

using namespace tcc;
using namespace tcc::core;

namespace {

/// Dispatch ladder for live calls: the supported (int-class, double)
/// argument-count grid, called through an all-ints-then-doubles prototype —
/// which is exactly the SysV register assignment for any interleaving of
/// the two classes, so the callee sees its arguments in the right places.
template <typename R>
R callSig(const void *FnP, const std::int64_t *A, unsigned NI,
          const double *X, unsigned ND) {
  using I = std::int64_t;
  switch (NI * 4 + ND) {
  case 0 * 4 + 0:
    return ((R (*)())FnP)();
  case 0 * 4 + 1:
    return ((R (*)(double))FnP)(X[0]);
  case 0 * 4 + 2:
    return ((R (*)(double, double))FnP)(X[0], X[1]);
  case 1 * 4 + 0:
    return ((R (*)(I))FnP)(A[0]);
  case 1 * 4 + 1:
    return ((R (*)(I, double))FnP)(A[0], X[0]);
  case 1 * 4 + 2:
    return ((R (*)(I, double, double))FnP)(A[0], X[0], X[1]);
  case 2 * 4 + 0:
    return ((R (*)(I, I))FnP)(A[0], A[1]);
  case 2 * 4 + 1:
    return ((R (*)(I, I, double))FnP)(A[0], A[1], X[0]);
  case 2 * 4 + 2:
    return ((R (*)(I, I, double, double))FnP)(A[0], A[1], X[0], X[1]);
  case 3 * 4 + 0:
    return ((R (*)(I, I, I))FnP)(A[0], A[1], A[2]);
  case 3 * 4 + 1:
    return ((R (*)(I, I, I, double))FnP)(A[0], A[1], A[2], X[0]);
  case 4 * 4 + 0:
    return ((R (*)(I, I, I, I))FnP)(A[0], A[1], A[2], A[3]);
  case 4 * 4 + 1:
    return ((R (*)(I, I, I, I, double))FnP)(A[0], A[1], A[2], A[3], X[0]);
  case 5 * 4 + 0:
    return ((R (*)(I, I, I, I, I))FnP)(A[0], A[1], A[2], A[3], A[4]);
  case 6 * 4 + 0:
    return ((R (*)(I, I, I, I, I, I))FnP)(A[0], A[1], A[2], A[3], A[4], A[5]);
  default:
    // Unreachable: indexExpr() rejected this signature.
    return R();
  }
}

/// Supported (int-class, double) argument-count combinations of callSig.
bool callSigSupported(unsigned NI, unsigned ND) {
  if (NI <= 2)
    return ND <= 2;
  if (NI <= 4)
    return ND <= 1;
  return NI <= 6 && ND == 0;
}

} // namespace

bool core::specInterpretable(const Context &Ctx, Stmt Body, EvalType RT) {
  return SpecInterp(Ctx, Body, RT).ok();
}

Tier0ProfileSnapshot core::snapshotTier0(const Tier0Profile &P) {
  Tier0ProfileSnapshot S;
  S.NumLoops = P.NumLoops < Tier0Profile::MaxLoops ? P.NumLoops
                                                   : Tier0Profile::MaxLoops;
  for (std::uint32_t I = 0; I < S.NumLoops; ++I) {
    const Tier0Profile::LoopStat &LS = P.Loops[I];
    std::uint64_t Entries = LS.Entries.load(std::memory_order_relaxed);
    std::uint64_t Max = LS.MaxTrip.load(std::memory_order_relaxed);
    if (!Entries)
      continue; // Unobserved: leave decision 0 (static heuristic).
    if (P.FoldCritical[I] || Max <= Tier0Profile::UnrollCutoff) {
      S.Decision[I] = 2;
      S.MaxTrip[I] = Max > 0xffffffffull
                         ? 0xffffffffu
                         : static_cast<std::uint32_t>(Max);
    } else {
      S.Decision[I] = 1; // Measured trips too large: roll the loop.
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// SpecInterp
//===----------------------------------------------------------------------===//

struct SpecInterp::Frame {
  std::int64_t *L;
  double *F;
};

enum class SpecInterp::Flow : std::uint8_t { Next, Break, Continue, Return };

SpecInterp::SpecInterp(const Context &C, Stmt Body, EvalType RT,
                       Tier0Profile *P)
    : Ctx(&C), Root(Body.node()), RetType(RT), Prof(P) {
  indexTree();
}

SpecInterp::SpecInterp(std::unique_ptr<Context> OC, Stmt Body, EvalType RT,
                       Tier0Profile *P)
    : Owned(std::move(OC)), Ctx(Owned.get()), Root(Body.node()), RetType(RT),
      Prof(P) {
  indexTree();
}

void SpecInterp::indexTree() {
  // The construction walk doubles as the interpretability check (the
  // verdict specInterpretable() reports): creation sits on the
  // tier manager's latency path, so eligibility and ordinal assignment
  // share one traversal. Any violation clears Ok and short-circuits the
  // rest of the walk.
  if (!Root || Ctx->locals().size() > MaxLocals) {
    Ok = false;
    return;
  }
  LocalTypes.reserve(Ctx->locals().size());
  for (std::size_t I = 0; I < Ctx->locals().size(); ++I) {
    const LocalInfo &L = Ctx->locals()[I];
    LocalTypes.push_back(L.Type);
    if (L.ArgIndex >= 0) {
      // Marshalling range: the SysV integer-class registers (6) and the
      // tier wrapper's double buffer (8).
      if (L.Type == EvalType::Double ? L.ArgIndex >= 8 : L.ArgIndex >= 6) {
        Ok = false;
        return;
      }
      Params.push_back(
          {static_cast<std::int32_t>(I), L.ArgIndex, L.Type});
    }
  }
  std::vector<const StmtNode *> ForStack;
  indexStmt(Root, ForStack);
  if (Prof) {
    Prof->NumLoops = LoopCounter < Tier0Profile::MaxLoops
                         ? LoopCounter
                         : Tier0Profile::MaxLoops;
    Prof->NumBranches = BranchCounter < Tier0Profile::MaxBranches
                            ? BranchCounter
                            : Tier0Profile::MaxBranches;
    Prof->NumRtConsts = RtCounter < Tier0Profile::MaxRtConsts
                            ? RtCounter
                            : Tier0Profile::MaxRtConsts;
  }
}

void SpecInterp::indexStmt(const StmtNode *S,
                           std::vector<const StmtNode *> &ForStack) {
  if (!S || !Ok)
    return;
  // Pre-order, counting every visit (shared subtrees revisit) but mapping
  // each node to its first-visit ordinal — the numbering the compiler's
  // Walker re-derives allocation-free (forOrdinal in Compile.cpp). The two
  // walks must stay byte-for-byte in step.
  bool PushedFor = false;
  if (S->Kind == StmtKind::For) {
    if (Ctx->locals()[static_cast<std::size_t>(S->LocalId)].Type ==
        EvalType::Double) {
      Ok = false; // No floating-point induction variables.
      return;
    }
    LoopOrd.emplace(S, LoopCounter); // No-op when already mapped.
    ++LoopCounter;
    ForStack.push_back(S);
    PushedFor = true;
  } else if (S->Kind == StmtKind::If) {
    BranchOrd.emplace(S, BranchCounter);
    ++BranchCounter;
  } else if (S->Kind == StmtKind::LabelDef || S->Kind == StmtKind::Goto) {
    // Dynamic labels need a flattened control-flow representation the
    // tree walk does not have; such specs take the synchronous baseline.
    Ok = false;
    return;
  }
  indexExpr(S->E, ForStack);
  indexExpr(S->E2, ForStack);
  indexExpr(S->E3, ForStack);
  indexStmt(S->S1, ForStack);
  indexStmt(S->S2, ForStack);
  for (std::uint32_t I = 0; I < S->BodyC; ++I)
    indexStmt(S->BodyV[I], ForStack);
  if (PushedFor)
    ForStack.pop_back();
}

void SpecInterp::indexExpr(const ExprNode *N,
                           std::vector<const StmtNode *> &ForStack) {
  if (!N || !Ok)
    return;
  if (N->Kind == ExprKind::Call) {
    unsigned NI = 0, ND = 0;
    for (std::uint32_t I = 0; I < N->ArgC; ++I) {
      if (N->ArgV[I]->Type == EvalType::Double)
        ++ND;
      else
        ++NI;
    }
    if (!callSigSupported(NI, ND)) {
      Ok = false; // Signature outside the dispatch ladder.
      return;
    }
  }
  if (N->Kind == ExprKind::RtEval) {
    RtOrd.emplace(N, RtCounter);
    ++RtCounter;
    if (Prof && (N->Flags & EF_HasLocal)) {
      // A `$`-expression over a vspec folds only when the loops binding
      // that vspec unroll: every enclosing For must keep unrolling, so
      // the profile snapshot may never decide to roll one of them.
      for (const StmtNode *F : ForStack) {
        auto It = LoopOrd.find(F);
        if (It != LoopOrd.end() && It->second < Tier0Profile::MaxLoops)
          Prof->FoldCritical[It->second] = true;
      }
    }
  }
  indexExpr(N->A, ForStack);
  indexExpr(N->B, ForStack);
  indexExpr(N->C, ForStack);
  for (std::uint32_t I = 0; I < N->ArgC; ++I)
    indexExpr(N->ArgV[I], ForStack);
}

SpecInterp::Val SpecInterp::evalCall(const ExprNode *N, Frame &F) const {
  std::int64_t IA[8];
  double FA[8];
  unsigned NI = 0, ND = 0;
  const void *Fn = N->PtrVal;
  if (!Fn) {
    Val T = evalExpr(N->A, F);
    Fn = reinterpret_cast<const void *>(static_cast<std::uintptr_t>(T.I));
  }
  for (std::uint32_t I = 0; I < N->ArgC; ++I) {
    const ExprNode *Arg = N->ArgV[I];
    Val V = evalExpr(Arg, F);
    if (Arg->Type == EvalType::Double)
      FA[ND++] = V.D;
    else
      IA[NI++] = V.I;
  }
  Val R;
  switch (N->Type) {
  case EvalType::Void:
    callSig<void>(Fn, IA, NI, FA, ND);
    break;
  case EvalType::Int:
    R.I = callSig<std::int32_t>(Fn, IA, NI, FA, ND);
    break;
  case EvalType::Double:
    R.D = callSig<double>(Fn, IA, NI, FA, ND);
    break;
  default:
    R.I = callSig<std::int64_t>(Fn, IA, NI, FA, ND);
    break;
  }
  return R;
}

SpecInterp::Val SpecInterp::evalExpr(const ExprNode *N, Frame &F) const {
  switch (N->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstLong:
  case ExprKind::ConstDouble:
    return sem::constant(N);
  case ExprKind::FreeVar:
    return sem::load(N->PtrVal, static_cast<MemType>(N->OpByte));
  case ExprKind::Local: {
    std::size_t Id = static_cast<std::size_t>(N->LocalId);
    Val R;
    if (LocalTypes[Id] == EvalType::Double)
      R.D = F.F[Id];
    else
      R.I = F.L[Id];
    return R;
  }
  case ExprKind::Load: {
    Val A = evalExpr(N->A, F);
    return sem::load(
        reinterpret_cast<const void *>(static_cast<std::uintptr_t>(A.I)),
        static_cast<MemType>(N->OpByte));
  }
  case ExprKind::RtEval: {
    Val V = evalExpr(N->A, F);
    if (Prof) {
      auto It = RtOrd.find(N);
      if (It != RtOrd.end() && It->second < Tier0Profile::MaxRtConsts) {
        unsigned O = It->second;
        std::uint64_t H;
        if (N->Type == EvalType::Double)
          std::memcpy(&H, &V.D, 8);
        else
          H = static_cast<std::uint64_t>(V.I);
        std::uint8_t St = Prof->RtState[O].load(std::memory_order_relaxed);
        if (St == 0) {
          Prof->RtHash[O].store(H, std::memory_order_relaxed);
          Prof->RtState[O].store(1, std::memory_order_relaxed);
        } else if (St == 1 &&
                   Prof->RtHash[O].load(std::memory_order_relaxed) != H) {
          Prof->RtState[O].store(2, std::memory_order_relaxed);
        }
      }
    }
    return V;
  }
  case ExprKind::Unary:
    return sem::unary(static_cast<UnOp>(N->OpByte), N->Type, N->A->Type,
                      evalExpr(N->A, F));
  case ExprKind::Binary: {
    auto O = static_cast<BinOp>(N->OpByte);
    Val A = evalExpr(N->A, F);
    Val R;
    if (O == BinOp::LogAnd || O == BinOp::LogOr) {
      // The left operand decides unless it is the identity (true for &&,
      // false for ||); only then is the right one evaluated.
      bool AT = sem::truthy(N->A->Type, A);
      if (O == BinOp::LogAnd ? AT : !AT)
        R.I = sem::truthy(N->B->Type, evalExpr(N->B, F));
      else
        R.I = AT;
      return R;
    }
    if (!sem::binary(O, N->Type, A, evalExpr(N->B, F), R))
      std::raise(SIGFPE); // Same trap the emitted idiv takes.
    return R;
  }
  case ExprKind::Cmp: {
    Val A = evalExpr(N->A, F);
    Val R;
    R.I = sem::compare(static_cast<CmpKind>(N->OpByte), N->A->Type, A,
                       evalExpr(N->B, F));
    return R;
  }
  case ExprKind::Cond: {
    Val C = evalExpr(N->A, F);
    return evalExpr(sem::truthy(N->A->Type, C) ? N->B : N->C, F);
  }
  case ExprKind::Call:
    return evalCall(N, F);
  }
  return Val();
}

SpecInterp::Flow SpecInterp::execStmt(const StmtNode *S, Frame &F,
                                      Val &Ret) const {
  switch (S->Kind) {
  case StmtKind::Block:
    for (std::uint32_t I = 0; I < S->BodyC; ++I) {
      Flow Fl = execStmt(S->BodyV[I], F, Ret);
      if (Fl != Flow::Next)
        return Fl;
    }
    return Flow::Next;
  case StmtKind::ExprStmt:
    (void)evalExpr(S->E, F);
    return Flow::Next;
  case StmtKind::AssignLocal: {
    Val V = evalExpr(S->E, F);
    std::size_t Id = static_cast<std::size_t>(S->LocalId);
    if (LocalTypes[Id] == EvalType::Double)
      F.F[Id] = V.D;
    else
      F.L[Id] = sem::canon(LocalTypes[Id], V.I);
    return Flow::Next;
  }
  case StmtKind::Store: {
    Val A = evalExpr(S->E, F);
    Val V = evalExpr(S->E2, F);
    sem::store(reinterpret_cast<void *>(static_cast<std::uintptr_t>(A.I)),
               static_cast<MemType>(S->OpByte), V);
    return Flow::Next;
  }
  case StmtKind::If: {
    Val C = evalExpr(S->E, F);
    bool Taken = sem::truthy(S->E->Type, C);
    if (Prof) {
      auto It = BranchOrd.find(S);
      if (It != BranchOrd.end() && It->second < Tier0Profile::MaxBranches) {
        Tier0Profile::BranchStat &BS = Prof->Branches[It->second];
        BS.Total.fetch_add(1, std::memory_order_relaxed);
        if (Taken)
          BS.Taken.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const StmtNode *Arm = Taken ? S->S1 : S->S2;
    return Arm ? execStmt(Arm, F, Ret) : Flow::Next;
  }
  case StmtKind::While:
    for (;;) {
      Val C = evalExpr(S->E, F);
      if (!sem::truthy(S->E->Type, C))
        return Flow::Next;
      Flow Fl = execStmt(S->S1, F, Ret);
      if (Fl == Flow::Break)
        return Flow::Next;
      if (Fl == Flow::Return)
        return Flow::Return;
      // Continue re-tests the condition without extra work, like the
      // emitted loop's back edge.
    }
  case StmtKind::For: {
    std::size_t Id = static_cast<std::size_t>(S->LocalId);
    EvalType IVT = LocalTypes[Id];
    F.L[Id] = sem::canon(IVT, evalExpr(S->E, F).I);
    auto K = static_cast<CmpKind>(S->OpByte);
    std::uint64_t Trips = 0;
    Flow Out = Flow::Next;
    while (sem::compareInt(K, F.L[Id], evalExpr(S->E2, F).I)) {
      ++Trips;
      Flow Fl = execStmt(S->S1, F, Ret);
      if (Fl == Flow::Break)
        break;
      if (Fl == Flow::Return) {
        Out = Flow::Return;
        break;
      }
      // Continue lands on the step, exactly like the emitted Cont label.
      F.L[Id] = sem::add(IVT, F.L[Id], evalExpr(S->E3, F).I);
    }
    if (Prof) {
      auto It = LoopOrd.find(S);
      if (It != LoopOrd.end() && It->second < Tier0Profile::MaxLoops) {
        Tier0Profile::LoopStat &LS = Prof->Loops[It->second];
        LS.Entries.fetch_add(1, std::memory_order_relaxed);
        LS.Iters.fetch_add(Trips, std::memory_order_relaxed);
        std::uint64_t Cur = LS.MaxTrip.load(std::memory_order_relaxed);
        while (Trips > Cur &&
               !LS.MaxTrip.compare_exchange_weak(Cur, Trips,
                                                 std::memory_order_relaxed)) {
        }
      }
    }
    return Out;
  }
  case StmtKind::Return:
    if (S->E)
      Ret = evalExpr(S->E, F);
    return Flow::Return;
  case StmtKind::Break:
    return Flow::Break;
  case StmtKind::Continue:
    return Flow::Continue;
  case StmtKind::LabelDef:
  case StmtKind::Goto:
    // Rejected by indexStmt() at construction; never reached.
    return Flow::Next;
  }
  return Flow::Next;
}

InterpResult SpecInterp::run(const std::int64_t *IntArgs, unsigned NumInt,
                             const double *FpArgs, unsigned NumFp) const {
  std::int64_t L[MaxLocals] = {};
  double D[MaxLocals] = {};
  Frame F{L, D};
  for (const ParamBind &P : Params) {
    if (P.Type == EvalType::Double) {
      D[P.LocalId] =
          static_cast<unsigned>(P.ArgIndex) < NumFp ? FpArgs[P.ArgIndex] : 0;
    } else {
      std::int64_t V =
          static_cast<unsigned>(P.ArgIndex) < NumInt ? IntArgs[P.ArgIndex] : 0;
      L[P.LocalId] = sem::canon(P.Type, V);
    }
  }
  if (Prof)
    Prof->Invocations.fetch_add(1, std::memory_order_relaxed);
  Val Ret;
  (void)execStmt(Root, F, Ret);
  InterpResult R;
  if (RetType == EvalType::Double)
    R.D = Ret.D;
  else
    R.I = sem::canon(RetType, Ret.I);
  return R;
}
