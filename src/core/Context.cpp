//===- core/Context.cpp - Specification-time construction -----------------==//

#include "core/Context.h"
#include "core/Semantics.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace tcc;
using namespace tcc::core;

Context::Context() { Locals.reserve(16); }

ExprNode *Context::newExpr(ExprKind K, EvalType T) {
  auto *N = static_cast<ExprNode *>(
      NodeArena.allocate(sizeof(ExprNode), alignof(ExprNode)));
  // Field by field, not `*N = ExprNode{}`: GCC lowers that aggregate clear
  // to a `rep stosq` whose startup costs more than the node's dozen stores,
  // and node construction is specification time (Figure 6's closure
  // column). Every field is written; core_test's poisoned-arena test pins
  // each default.
  N->Kind = K;
  N->Type = T;
  N->OpByte = 0;
  N->RegNeed = 1;
  N->Flags = 0;
  N->LocalId = -1;
  N->A = nullptr;
  N->B = nullptr;
  N->C = nullptr;
  N->IntVal = 0;
  N->FpVal = 0;
  N->PtrVal = nullptr;
  N->ArgV = nullptr;
  N->ArgC = 0;
  N->CallFpArgs = 0;
  N->Ctx = this;
  return N;
}

StmtNode *Context::newStmt(StmtKind K) {
  auto *N = static_cast<StmtNode *>(
      NodeArena.allocate(sizeof(StmtNode), alignof(StmtNode)));
  // Field by field, as in newExpr.
  N->Kind = K;
  N->OpByte = 0;
  N->LocalId = -1;
  N->E = nullptr;
  N->E2 = nullptr;
  N->E3 = nullptr;
  N->S1 = nullptr;
  N->S2 = nullptr;
  N->BodyV = nullptr;
  N->BodyC = 0;
  N->Ctx = this;
  return N;
}

// --- Constants -----------------------------------------------------------------

Expr Context::intConst(std::int32_t V) {
  ExprNode *N = newExpr(ExprKind::ConstInt, EvalType::Int);
  N->IntVal = V;
  return Expr(N);
}

Expr Context::longConst(std::int64_t V) {
  ExprNode *N = newExpr(ExprKind::ConstLong, EvalType::Long);
  N->IntVal = V;
  return Expr(N);
}

Expr Context::doubleConst(double V) {
  ExprNode *N = newExpr(ExprKind::ConstDouble, EvalType::Double);
  N->FpVal = V;
  return Expr(N);
}

Expr Context::rcPtr(const void *P) {
  ExprNode *N = newExpr(ExprKind::ConstLong, EvalType::Ptr);
  N->IntVal = static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(P));
  return Expr(N);
}

Expr Context::rtEval(Expr E) {
  assert(E.valid() && "rtEval of empty cspec");
  ExprNode *N = newExpr(ExprKind::RtEval, E.type());
  N->A = E.node();
  N->Flags = E.node()->Flags & static_cast<std::uint8_t>(~EF_HasMemOp);
  return Expr(N);
}

Expr Context::freeVar(const void *Address, MemType M) {
  ExprNode *N = newExpr(ExprKind::FreeVar, evalTypeFor(M));
  N->OpByte = static_cast<std::uint8_t>(M);
  N->PtrVal = Address;
  N->Flags = EF_HasMemOp;
  return Expr(N);
}

// --- vspecs ----------------------------------------------------------------------

VSpec Context::makeLocal(EvalType T) {
  LocalInfo Info;
  Info.Type = T;
  Locals.push_back(Info);
  return VSpec(this, static_cast<std::int32_t>(Locals.size() - 1), T);
}

VSpec Context::makeParam(EvalType T, unsigned ArgIndex) {
  LocalInfo Info;
  Info.Type = T;
  Info.ArgIndex = static_cast<std::int32_t>(ArgIndex);
  Locals.push_back(Info);
  return VSpec(this, static_cast<std::int32_t>(Locals.size() - 1), T);
}

Expr Context::read(VSpec V) {
  assert(V.valid() && "reading an invalid vspec");
  ExprNode *N = newExpr(ExprKind::Local, V.type());
  N->LocalId = V.id();
  N->Flags = EF_HasLocal;
  return Expr(N);
}

VSpec::operator Expr() const {
  assert(C && "reading an invalid vspec");
  return C->read(*this);
}

// --- Arithmetic -------------------------------------------------------------------

static std::uint8_t regNeedOf(const ExprNode *N) { return N ? N->RegNeed : 0; }

/// Combines child estimates Sethi-Ullman style, saturating at 255.
static std::uint8_t combineNeed(const ExprNode *A, const ExprNode *B) {
  unsigned Na = regNeedOf(A), Nb = regNeedOf(B);
  unsigned R = Na == Nb ? Na + 1 : std::max(Na, Nb);
  return static_cast<std::uint8_t>(std::min(R, 255u));
}

EvalType Context::promote(Expr &A, Expr &B) {
  EvalType T = sem::promote(A.type(), B.type());
  for (Expr *E : {&A, &B})
    if (E->type() != T)
      *E = T == EvalType::Double ? toDouble(*E) : toLong(*E);
  return T;
}

Expr Context::binary(BinOp O, Expr A, Expr B) {
  assert(A.valid() && B.valid() && "binary on empty cspec");
  assert(sem::compiledAt(O, sem::promote(A.type(), B.type())) &&
         "operator not defined at this type");
  EvalType T = promote(A, B);
  ExprNode *N = newExpr(ExprKind::Binary, T);
  N->OpByte = static_cast<std::uint8_t>(O);
  N->A = A.node();
  N->B = B.node();
  N->RegNeed = combineNeed(N->A, N->B);
  N->Flags = N->A->Flags | N->B->Flags;
  return Expr(N);
}

Expr Context::cmp(CmpKind K, Expr A, Expr B) {
  assert(A.valid() && B.valid() && "cmp on empty cspec");
  promote(A, B);
  ExprNode *N = newExpr(ExprKind::Cmp, EvalType::Int);
  N->OpByte = static_cast<std::uint8_t>(K);
  N->A = A.node();
  N->B = B.node();
  N->RegNeed = combineNeed(N->A, N->B);
  N->Flags = N->A->Flags | N->B->Flags;
  return Expr(N);
}

Expr Context::unary(UnOp O, Expr A) {
  assert(A.valid() && "unary on empty cspec");
  assert(sem::compiledAt(O, A.type()) && "operator not defined at this type");
  EvalType T = EvalType::Int;
  switch (O) {
  case UnOp::Neg:
  case UnOp::Not:
    T = A.type();
    break;
  case UnOp::LogNot:
    T = EvalType::Int;
    break;
  case UnOp::IntToDouble:
  case UnOp::LongToDouble:
    T = EvalType::Double;
    break;
  case UnOp::DoubleToInt:
  case UnOp::LongToInt:
    T = EvalType::Int;
    break;
  case UnOp::IntToLong:
    T = EvalType::Long;
    break;
  case UnOp::Bitcast:
    T = A.type() == EvalType::Ptr ? EvalType::Long : EvalType::Ptr;
    break;
  }
  ExprNode *N = newExpr(ExprKind::Unary, T);
  N->OpByte = static_cast<std::uint8_t>(O);
  N->A = A.node();
  N->RegNeed = A.node()->RegNeed;
  N->Flags = A.node()->Flags;
  return Expr(N);
}

Expr Context::toDouble(Expr A) {
  switch (A.type()) {
  case EvalType::Double:
    return A;
  case EvalType::Int:
    return unary(UnOp::IntToDouble, A);
  case EvalType::Long:
    return unary(UnOp::LongToDouble, A);
  default:
    reportFatalError("cannot convert to double");
  }
}

Expr Context::toInt(Expr A) {
  switch (A.type()) {
  case EvalType::Int:
    return A;
  case EvalType::Double:
    return unary(UnOp::DoubleToInt, A);
  case EvalType::Long:
  case EvalType::Ptr:
    return unary(UnOp::LongToInt, A);
  default:
    reportFatalError("cannot convert to int");
  }
}

Expr Context::toLong(Expr A) {
  switch (A.type()) {
  case EvalType::Long:
    return A;
  case EvalType::Int:
    return unary(UnOp::IntToLong, A);
  case EvalType::Ptr:
    return unary(UnOp::Bitcast, A);
  default:
    reportFatalError("cannot convert to long");
  }
}

Expr Context::cond(Expr Cond, Expr Then, Expr Else) {
  assert(Cond.type() == EvalType::Int && "?: condition must be int");
  EvalType T = promote(Then, Else);
  ExprNode *N = newExpr(ExprKind::Cond, T);
  N->A = Cond.node();
  N->B = Then.node();
  N->C = Else.node();
  N->RegNeed = combineNeed(N->B, N->C);
  N->Flags = N->A->Flags | N->B->Flags | N->C->Flags;
  return Expr(N);
}

// --- Memory ---------------------------------------------------------------------------

Expr Context::loadMem(MemType M, Expr Addr) {
  assert(Addr.type() == EvalType::Ptr && "load address must be a pointer");
  ExprNode *N = newExpr(ExprKind::Load, evalTypeFor(M));
  N->OpByte = static_cast<std::uint8_t>(M);
  N->A = Addr.node();
  N->RegNeed = Addr.node()->RegNeed;
  N->Flags = Addr.node()->Flags | EF_HasMemOp;
  return Expr(N);
}

Expr Context::indexAddr(Expr Base, Expr Index, MemType M) {
  assert(Base.type() == EvalType::Ptr && "index base must be a pointer");
  assert(isIntegerClass(Index.type()) && "index must be an integer");
  Expr Scaled = binary(
      BinOp::Mul, toLong(Index),
      longConst(static_cast<std::int64_t>(memSize(M))));
  return binary(BinOp::Add, Base, Scaled);
}

// --- Calls -----------------------------------------------------------------------------

Expr Context::callC(const void *Fn, EvalType RetType,
                    const std::vector<Expr> &Args) {
  ExprNode *N = newExpr(ExprKind::Call, RetType);
  N->PtrVal = Fn;
  N->ArgC = static_cast<std::uint32_t>(Args.size());
  N->ArgV = NodeArena.allocateArray<ExprNode *>(Args.size());
  unsigned FpArgs = 0;
  for (std::size_t I = 0; I < Args.size(); ++I) {
    assert(Args[I].valid() && "empty cspec as call argument");
    N->ArgV[I] = Args[I].node();
    FpArgs += Args[I].type() == EvalType::Double;
  }
  N->CallFpArgs = static_cast<std::uint8_t>(FpArgs);
  N->RegNeed = 4;
  N->Flags = EF_HasCall;
  for (std::size_t I = 0; I < Args.size(); ++I)
    N->Flags |= N->ArgV[I]->Flags;
  return Expr(N);
}

Expr Context::callIndirect(Expr Fn, EvalType RetType,
                           const std::vector<Expr> &Args) {
  assert(Fn.type() == EvalType::Ptr && "indirect callee must be a pointer");
  Expr E = callC(nullptr, RetType, Args);
  E.node()->A = Fn.node();
  E.node()->Flags |= Fn.node()->Flags;
  return E;
}

// --- Statements ---------------------------------------------------------------------------

Stmt Context::block(const std::vector<Stmt> &Body) {
  StmtNode *N = newStmt(StmtKind::Block);
  N->BodyC = static_cast<std::uint32_t>(Body.size());
  N->BodyV = NodeArena.allocateArray<StmtNode *>(Body.size());
  for (std::size_t I = 0; I < Body.size(); ++I) {
    assert(Body[I].valid() && "empty statement in block");
    N->BodyV[I] = Body[I].node();
  }
  return Stmt(N);
}

Stmt Context::exprStmt(Expr E) {
  StmtNode *N = newStmt(StmtKind::ExprStmt);
  N->E = E.node();
  return Stmt(N);
}

Stmt Context::assign(VSpec V, Expr E) {
  assert(V.valid() && "assignment to invalid vspec");
  // Implicit conversion on assignment, as in C.
  if (E.type() != V.type()) {
    switch (V.type()) {
    case EvalType::Int:
      E = toInt(E);
      break;
    case EvalType::Long:
      E = toLong(E);
      break;
    case EvalType::Double:
      E = toDouble(E);
      break;
    case EvalType::Ptr:
      assert(isIntegerClass(E.type()) && "cannot assign to pointer");
      E = unary(UnOp::Bitcast, toLong(E));
      break;
    case EvalType::Void:
      reportFatalError("assignment to void vspec");
    }
  }
  StmtNode *N = newStmt(StmtKind::AssignLocal);
  N->LocalId = V.id();
  N->E = E.node();
  return Stmt(N);
}

Stmt Context::storeMem(MemType M, Expr Addr, Expr Value) {
  assert(Addr.type() == EvalType::Ptr && "store address must be a pointer");
  EvalType Want = evalTypeFor(M);
  if (Value.type() != Want) {
    if (Want == EvalType::Double)
      Value = toDouble(Value);
    else if (Want == EvalType::Int)
      Value = toInt(Value);
    else
      Value = toLong(Value);
  }
  StmtNode *N = newStmt(StmtKind::Store);
  N->OpByte = static_cast<std::uint8_t>(M);
  N->E = Addr.node();
  N->E2 = Value.node();
  return Stmt(N);
}

Stmt Context::ifStmt(Expr Cond, Stmt Then, Stmt Else) {
  assert(Cond.type() == EvalType::Int && "condition must be int");
  StmtNode *N = newStmt(StmtKind::If);
  N->E = Cond.node();
  N->S1 = Then.node();
  N->S2 = Else.valid() ? Else.node() : nullptr;
  return Stmt(N);
}

Stmt Context::whileStmt(Expr Cond, Stmt Body) {
  assert(Cond.type() == EvalType::Int && "condition must be int");
  StmtNode *N = newStmt(StmtKind::While);
  N->E = Cond.node();
  N->S1 = Body.node();
  return Stmt(N);
}

Stmt Context::forStmt(VSpec V, Expr Init, CmpKind K, Expr Bound, Expr Step,
                      Stmt Body) {
  assert(V.valid() && isIntegerClass(V.type()) &&
         "for-loop induction variable must be an integer vspec");
  StmtNode *N = newStmt(StmtKind::For);
  N->LocalId = V.id();
  N->OpByte = static_cast<std::uint8_t>(K);
  N->E = Init.node();
  N->E2 = Bound.node();
  N->E3 = Step.node();
  N->S1 = Body.node();
  return Stmt(N);
}

Stmt Context::ret(Expr E) {
  StmtNode *N = newStmt(StmtKind::Return);
  N->E = E.node();
  return Stmt(N);
}

Stmt Context::retVoid() { return Stmt(newStmt(StmtKind::Return)); }

Stmt Context::breakStmt() { return Stmt(newStmt(StmtKind::Break)); }

Stmt Context::continueStmt() { return Stmt(newStmt(StmtKind::Continue)); }

DynLabel Context::newLabel() {
  return DynLabel{static_cast<std::int32_t>(NumDynLabels++)};
}

Stmt Context::labelHere(DynLabel L) {
  assert(L.Id >= 0 && "invalid label");
  StmtNode *N = newStmt(StmtKind::LabelDef);
  N->LocalId = L.Id;
  return Stmt(N);
}

Stmt Context::gotoLabel(DynLabel L) {
  assert(L.Id >= 0 && "invalid label");
  StmtNode *N = newStmt(StmtKind::Goto);
  N->LocalId = L.Id;
  return Stmt(N);
}

// --- Expr operator sugar ------------------------------------------------------------------------

#define BIN_OP(OPER, KIND)                                                     \
  Expr Expr::operator OPER(Expr RHS) const {                                  \
    return N->Ctx->binary(BinOp::KIND, *this, RHS);                           \
  }
BIN_OP(+, Add)
BIN_OP(-, Sub)
BIN_OP(*, Mul)
BIN_OP(/, Div)
BIN_OP(%, Mod)
BIN_OP(&, And)
BIN_OP(|, Or)
BIN_OP(^, Xor)
BIN_OP(<<, Shl)
BIN_OP(>>, Shr)
BIN_OP(&&, LogAnd)
BIN_OP(||, LogOr)
#undef BIN_OP

#define CMP_OP(OPER, KIND)                                                     \
  Expr Expr::operator OPER(Expr RHS) const {                                  \
    return N->Ctx->cmp(CmpKind::KIND, *this, RHS);                            \
  }
CMP_OP(==, Eq)
CMP_OP(!=, Ne)
CMP_OP(<, LtS)
CMP_OP(<=, LeS)
CMP_OP(>, GtS)
CMP_OP(>=, GeS)
#undef CMP_OP

Expr Expr::operator-() const { return N->Ctx->neg(*this); }
Expr Expr::operator!() const { return N->Ctx->logNot(*this); }
