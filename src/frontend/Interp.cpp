//===- frontend/Interp.cpp -------------------------------------------------==//

#include "frontend/Interp.h"

#include "core/Semantics.h"
#include "frontend/Parser.h"
#include "support/Error.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>

using namespace tcc;
using namespace tcc::frontend;
using namespace tcc::core;

namespace {

[[noreturn]] void rtError(unsigned Line, const std::string &Msg) {
  std::fprintf(stderr, "tickc: line %u: error: %s\n", Line, Msg.c_str());
  std::exit(1);
}

/// A named storage cell. Heap-allocated so that free-variable captures in
/// dynamic code can point at the numeric payload.
struct Slot {
  TypeRef Type;
  Value V;
};
using SlotPtr = std::shared_ptr<Slot>;

/// Where a slot keeps its payload, and as what: `&x` points there, and
/// dynamic code reads and writes a free variable there.
struct Cell {
  void *Addr;
  MemType M;
};
Cell cellOf(Slot &S) {
  if (S.Type.isPointer())
    return {&S.V.P, MemType::P64};
  switch (S.Type.Base) {
  case TypeRef::Double:
    return {&S.V.D, MemType::F64};
  case TypeRef::Long:
    return {&S.V.I, MemType::I64};
  default:
    // Int/Char payloads live in the low bytes of the int64 (little-endian).
    return {&S.V.I, MemType::I32};
  }
}

EvalType evalTypeOf(const TypeRef &T) {
  if (T.isPointer())
    return EvalType::Ptr;
  switch (T.Base) {
  case TypeRef::Void:
    return EvalType::Void;
  case TypeRef::Int:
  case TypeRef::Char:
    return EvalType::Int;
  case TypeRef::Long:
    return EvalType::Long;
  case TypeRef::Double:
    return EvalType::Double;
  }
  return EvalType::Int;
}

TypeRef typeRefOf(EvalType T) {
  switch (T) {
  case EvalType::Double:
    return {TypeRef::Double};
  case EvalType::Long:
    return {TypeRef::Long};
  case EvalType::Void:
    return {TypeRef::Void};
  default:
    return {TypeRef::Int};
  }
}

/// A literal's type, as in C: int if it fits, else long.
bool fitsInt(std::int64_t V) { return V == sem::sext32(V); }

MemType memTypeOfPointee(const TypeRef &PtrT) {
  if (PtrT.PtrDepth > 1)
    return MemType::P64;
  switch (PtrT.Base) {
  case TypeRef::Char:
    return MemType::I8;
  case TypeRef::Int:
    return MemType::I32;
  case TypeRef::Long:
    return MemType::I64;
  case TypeRef::Double:
    return MemType::F64;
  default:
    return MemType::I32;
  }
}

char sigCharOf(const TypeRef &T) {
  if (T.isPointer())
    return 'p';
  switch (T.Base) {
  case TypeRef::Void:
    return 'v';
  case TypeRef::Int:
  case TypeRef::Char:
    return 'i';
  case TypeRef::Long:
    return 'l';
  case TypeRef::Double:
    return 'd';
  }
  return 'i';
}

// --- Static values, computed by core/Semantics.h ----------------------------

/// The core type of a numeric interpreter value.
EvalType typeOf(const Value &V, unsigned Line) {
  switch (V.Kind) {
  case Value::Int:
    return EvalType::Int;
  case Value::Long:
    return EvalType::Long;
  case Value::Double:
    return EvalType::Double;
  case Value::Ptr:
    return EvalType::Ptr;
  default:
    rtError(Line, "operand is not a number");
  }
}

/// \p V as a canonical core scalar of type \p T: its own type, or the type
/// sem::promote widens it to.
sem::Value semOf(const Value &V, EvalType T) {
  std::int64_t I =
      V.Kind == Value::Ptr || V.Kind == Value::FnPtr
          ? static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(V.P))
      : V.Kind == Value::Int ? sem::sext32(V.I)
                             : V.I;
  if (T != EvalType::Double)
    return {I, 0};
  return {0, V.Kind == Value::Double ? V.D : static_cast<double>(I)};
}

/// An interpreter value of numeric type \p T holding \p R.
Value valueOf(EvalType T, sem::Value R) {
  Value V;
  V.Kind = T == EvalType::Double ? Value::Double
           : T == EvalType::Long ? Value::Long
                                 : Value::Int;
  V.I = R.I;
  V.D = R.D;
  return V;
}

bool truthy(const Value &V) {
  EvalType T = V.Kind == Value::Double ? EvalType::Double : EvalType::Long;
  return sem::truthy(T, semOf(V, T));
}

MemType memOf(const Value &Ptr) {
  return memTypeOfPointee(TypeRef{Ptr.Pointee, 1});
}

/// \p P + \p N elements, or P - N for Sub: C pointer arithmetic.
Value offsetPtr(Value P, const Value &N, BinOp O) {
  auto Bytes = static_cast<std::uint64_t>(semOf(N, EvalType::Long).I) *
               memSize(memOf(P));
  auto Addr = reinterpret_cast<std::uintptr_t>(P.P);
  P.P = reinterpret_cast<void *>(O == BinOp::Add ? Addr + Bytes
                                                 : Addr - Bytes);
  return P;
}

/// `O A`. Every value comes from sem::unary.
Value unaryValue(UnOp O, const Value &A, unsigned Line) {
  EvalType T = typeOf(A, Line);
  if (O != UnOp::LogNot &&
      (T == EvalType::Ptr || (O == UnOp::Not && T == EvalType::Double)))
    rtError(Line, std::string("operator not defined on ") + typeName(T));
  EvalType RT = O == UnOp::LogNot ? EvalType::Int : T;
  return valueOf(RT, sem::unary(O, RT, T, semOf(A, T)));
}

/// `A Op B` for every operator but && and ||, which short-circuit. Pointer
/// arithmetic is the frontend's own; every other value comes from
/// sem::compare or sem::binary at the promoted type, where long keeps its
/// 64-bit meaning for / % & | ^ << >> (compiledAt refuses those only in
/// dynamic code). A trap is a line-numbered error.
Value binaryValue(const FOp &Op, const Value &A, const Value &B,
                  unsigned Line) {
  EvalType T = sem::promote(typeOf(A, Line), typeOf(B, Line));
  if (Op.Kind == FOp::Cmp)
    return valueOf(EvalType::Int,
                   {sem::compare(Op.C, T, semOf(A, T), semOf(B, T)), 0});
  if (A.Kind == Value::Ptr && (B.Kind == Value::Int || B.Kind == Value::Long) &&
      (Op.is(BinOp::Add) || Op.is(BinOp::Sub)))
    return offsetPtr(A, B, Op.B);
  if (T == EvalType::Ptr) // Pointer differences compute in long.
    T = EvalType::Long;
  if (T == EvalType::Double && !sem::compiledAt(Op.B, T))
    rtError(Line, "operator not defined on double");
  sem::Value X = semOf(A, T), Y = semOf(B, T), R;
  if (!sem::binary(Op.B, T, X, Y, R))
    rtError(Line, Y.I == 0 ? "division by zero" : "division overflow");
  return valueOf(T, R);
}

/// The backquoted half builds only what the back ends compile
/// (sem::compiledAt); anything else is a diagnostic, not an abort.
void checkCompiled(bool Compiled, EvalType T, unsigned Line) {
  if (!Compiled)
    rtError(Line, std::string("operator not defined on ") + typeName(T) +
                      " in dynamic code");
}

/// Calls a native function with NI integer-class and ND double arguments.
/// SysV assigns each register class independently, so a cast through an
/// all-ints-then-doubles prototype produces the same register assignment
/// as the original declaration order.
template <typename R>
R callSig(void *Fn, const std::int64_t *A, unsigned NI, const double *X,
          unsigned ND) {
  using I = std::int64_t;
  switch (NI * 4 + ND) {
  case 0 * 4 + 0:
    return reinterpret_cast<R (*)()>(Fn)();
  case 0 * 4 + 1:
    return reinterpret_cast<R (*)(double)>(Fn)(X[0]);
  case 0 * 4 + 2:
    return reinterpret_cast<R (*)(double, double)>(Fn)(X[0], X[1]);
  case 1 * 4 + 0:
    return reinterpret_cast<R (*)(I)>(Fn)(A[0]);
  case 1 * 4 + 1:
    return reinterpret_cast<R (*)(I, double)>(Fn)(A[0], X[0]);
  case 1 * 4 + 2:
    return reinterpret_cast<R (*)(I, double, double)>(Fn)(A[0], X[0], X[1]);
  case 2 * 4 + 0:
    return reinterpret_cast<R (*)(I, I)>(Fn)(A[0], A[1]);
  case 2 * 4 + 1:
    return reinterpret_cast<R (*)(I, I, double)>(Fn)(A[0], A[1], X[0]);
  case 2 * 4 + 2:
    return reinterpret_cast<R (*)(I, I, double, double)>(Fn)(A[0], A[1],
                                                             X[0], X[1]);
  case 3 * 4 + 0:
    return reinterpret_cast<R (*)(I, I, I)>(Fn)(A[0], A[1], A[2]);
  case 3 * 4 + 1:
    return reinterpret_cast<R (*)(I, I, I, double)>(Fn)(A[0], A[1], A[2],
                                                        X[0]);
  case 4 * 4 + 0:
    return reinterpret_cast<R (*)(I, I, I, I)>(Fn)(A[0], A[1], A[2], A[3]);
  case 4 * 4 + 1:
    return reinterpret_cast<R (*)(I, I, I, I, double)>(Fn)(A[0], A[1], A[2],
                                                           A[3], X[0]);
  case 5 * 4 + 0:
    return reinterpret_cast<R (*)(I, I, I, I, I)>(Fn)(A[0], A[1], A[2],
                                                      A[3], A[4]);
  case 6 * 4 + 0:
    return reinterpret_cast<R (*)(I, I, I, I, I, I)>(Fn)(A[0], A[1], A[2],
                                                         A[3], A[4], A[5]);
  default:
    reportFatalError("unsupported dynamic-function signature");
  }
}

} // namespace

// Print builtins callable both from interpreted code and from *generated*
// code (spliced in as direct calls). They append to the active Interp's
// output buffer.
namespace {
std::string *ActiveOut = nullptr;
bool ActiveEcho = false;

void emitOut(const char *Buf) {
  if (ActiveOut)
    *ActiveOut += Buf;
  if (ActiveEcho)
    std::fputs(Buf, stdout);
}

extern "C" void tickcPrintInt(int V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%d", V);
  emitOut(Buf);
}
extern "C" void tickcPrintLong(long long V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%lld", V);
  emitOut(Buf);
}
extern "C" void tickcPrintDouble(double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  emitOut(Buf);
}
extern "C" void tickcPrintStr(const char *V) { emitOut(V); }
} // namespace

struct Interp::ImplState {
  FProgram Prog;
  core::BackendKind Backend;
  core::Context Ctx;
  std::map<std::string, const FFunction *> Funcs;
  std::map<std::string, SlotPtr> Globals;
  std::map<int, TypeRef> PendingIntParams;
  std::map<int, TypeRef> PendingFpParams;
  std::vector<core::CompiledFn> Compiled;
  std::deque<std::string> StringPool;
  std::deque<std::vector<std::int64_t>> IntBuffers;
  std::deque<std::vector<double>> DoubleBuffers;
  Interp *Owner = nullptr;
};

namespace {

enum class Flow { Normal, Return, Break, Continue };

/// The tree-walking evaluator for static code plus the spec builder for
/// backquoted code.
class Evaluator {
public:
  explicit Evaluator(Interp::ImplState &S) : S(S) {}

  Value callFunction(const FFunction &F, std::vector<Value> Args);
  void initGlobals();

private:
  // --- Environment -----------------------------------------------------------
  /// The slot \p Name resolves to (locals shadow globals), or null.
  SlotPtr find(const std::string &Name) {
    for (std::size_t I = Scopes.size(); I-- > 0;) {
      auto It = Scopes[I].find(Name);
      if (It != Scopes[I].end())
        return It->second;
    }
    auto It = S.Globals.find(Name);
    return It != S.Globals.end() ? It->second : nullptr;
  }
  SlotPtr lookup(const std::string &Name, unsigned Line) {
    if (SlotPtr SP = find(Name))
      return SP;
    rtError(Line, "undefined variable '" + Name + "'");
  }

  // --- Static execution ------------------------------------------------------
  Flow execStmt(const FStmt *St, Value &Ret);
  Value evalExpr(const FExpr *E);
  Value evalCall(const FExpr *E);
  void assignTo(const FExpr *Lhs, const Value &V);
  /// The address `A[B]` names.
  Value element(const FExpr *E);
  Value load(const Value &Ptr, unsigned Line);
  void store(const Value &Ptr, const Value &V, unsigned Line);
  Value defaultValue(const TypeRef &T);
  Value coerce(Value V, const TypeRef &T, unsigned Line);

  // --- Dynamic-code specification (the tick operator) -------------------------
  struct SV {
    core::Expr E;
    TypeRef T;
  };
  Value buildTick(const FExpr *E);
  SV specExpr(const FExpr *E);
  SV specBinary(BinOp O, const SV &A, const SV &B, unsigned Line);
  core::Stmt specStmt(const FStmt *St);
  core::Stmt specAssign(const FExpr *E);
  core::Stmt specExprAsStmt(const FExpr *E);
  core::Stmt specFor(const FStmt *St);
  core::VSpec newLocal(const TypeRef &T);
  core::VSpec declareTickLocal(const FStmt *D);
  /// Resolves an identifier to a vspec lvalue (tick local or spliced
  /// vspec variable); null Value if it is a plain (free) variable.
  const Value *vspecLvalue(const std::string &Name);
  SV spliceValue(Slot &SP, unsigned Line);
  SV rcOf(const Value &V, unsigned Line);

  SlotPtr *lookupTickLocal(const std::string &Name) {
    for (std::size_t I = TickScopes.size(); I-- > 0;) {
      auto It = TickScopes[I].find(Name);
      if (It != TickScopes[I].end())
        return &It->second;
    }
    return nullptr;
  }

  Interp::ImplState &S;
  std::vector<std::map<std::string, SlotPtr>> Scopes;
  /// Dynamic locals declared inside the tick expression being built.
  std::vector<std::map<std::string, SlotPtr>> TickScopes;
  bool InTick = false;
};

Value Evaluator::defaultValue(const TypeRef &T) {
  Value V;
  if (T.IsCSpec) {
    V.Kind = evalTypeOf(T) == EvalType::Void || T.Base == TypeRef::Void
                 ? Value::CSpecStmt
                 : Value::CSpecExpr;
    return V;
  }
  if (T.IsVSpec) {
    V.Kind = Value::VSpecRef;
    return V;
  }
  if (T.isPointer()) {
    V.Kind = Value::Ptr;
    V.Pointee = T.Base;
    return V;
  }
  switch (T.Base) {
  case TypeRef::Double:
    V.Kind = Value::Double;
    break;
  case TypeRef::Long:
    V.Kind = Value::Long;
    break;
  default:
    V.Kind = Value::Int;
    break;
  }
  return V;
}

Value Evaluator::coerce(Value V, const TypeRef &T, unsigned Line) {
  if (T.IsCSpec) {
    if (V.Kind != Value::CSpecExpr && V.Kind != Value::CSpecStmt &&
        V.Kind != Value::FnPtr)
      rtError(Line, "expected a cspec value");
    return V;
  }
  if (T.IsVSpec) {
    if (V.Kind != Value::VSpecRef)
      rtError(Line, "expected a vspec value");
    return V;
  }
  if (T.isPointer()) {
    if (V.Kind == Value::FnPtr) {
      Value R;
      R.Kind = Value::Ptr;
      R.P = V.P;
      R.Pointee = T.Base;
      R.FnSig = V.FnSig;
      return R;
    }
    if (V.Kind != Value::Ptr && !(V.Kind == Value::Int && V.I == 0))
      rtError(Line, "expected a pointer value");
    V.Kind = Value::Ptr;
    V.Pointee = T.Base;
    return V;
  }
  bool FromDouble = V.Kind == Value::Double;
  switch (T.Base) {
  case TypeRef::Double:
    return valueOf(EvalType::Double, semOf(V, EvalType::Double));
  case TypeRef::Long: {
    std::int64_t I = semOf(V, EvalType::Long).I;
    if (FromDouble) // cvttsd2si r64: NaN and out-of-range give INT64_MIN.
      I = V.D >= -0x1p63 && V.D < 0x1p63 ? static_cast<std::int64_t>(V.D)
                                         : INT64_MIN;
    return valueOf(EvalType::Long, {I, 0});
  }
  default: {
    EvalType From = FromDouble ? EvalType::Double : EvalType::Long;
    return valueOf(EvalType::Int,
                   sem::unary(FromDouble ? UnOp::DoubleToInt : UnOp::LongToInt,
                              EvalType::Int, From, semOf(V, From)));
  }
  }
}

Value Evaluator::callFunction(const FFunction &F, std::vector<Value> Args) {
  if (Args.size() != F.Params.size())
    rtError(F.Line, "wrong number of arguments to '" + F.Name + "'");
  Scopes.emplace_back();
  for (std::size_t I = 0; I < Args.size(); ++I) {
    auto SlotP = std::make_shared<Slot>();
    SlotP->Type = F.Params[I].Type;
    SlotP->V = coerce(Args[I], F.Params[I].Type, F.Line);
    Scopes.back()[F.Params[I].Name] = SlotP;
  }
  Value Ret = defaultValue(F.RetType);
  Flow Fl = execStmt(F.Body.get(), Ret);
  if (Fl != Flow::Return && F.RetType.Base != TypeRef::Void)
    Ret = defaultValue(F.RetType);
  Scopes.pop_back();
  return Ret;
}

/// Globals are initialized in order before main runs, from literal
/// constants only.
void Evaluator::initGlobals() {
  for (const FStmt &G : S.Prog.Globals) {
    if (G.E && G.E->Kind != FExprKind::IntLit &&
        G.E->Kind != FExprKind::DoubleLit)
      rtError(G.Line, "global initializers must be literal constants");
    auto SlotP = std::make_shared<Slot>();
    SlotP->Type = G.DeclType;
    SlotP->V = G.E ? coerce(evalExpr(G.E.get()), G.DeclType, G.Line)
                   : defaultValue(G.DeclType);
    S.Globals[G.Name] = SlotP;
  }
}

Flow Evaluator::execStmt(const FStmt *St, Value &Ret) {
  switch (St->Kind) {
  case FStmtKind::Block: {
    Scopes.emplace_back();
    for (const FStmtPtr &Child : St->Body) {
      Flow Fl = execStmt(Child.get(), Ret);
      if (Fl != Flow::Normal) {
        Scopes.pop_back();
        return Fl;
      }
    }
    Scopes.pop_back();
    return Flow::Normal;
  }
  case FStmtKind::Decl: {
    auto SlotP = std::make_shared<Slot>();
    SlotP->Type = St->DeclType;
    SlotP->V = St->E ? coerce(evalExpr(St->E.get()), St->DeclType, St->Line)
                     : defaultValue(St->DeclType);
    Scopes.back()[St->Name] = SlotP;
    return Flow::Normal;
  }
  case FStmtKind::ExprStmt:
    evalExpr(St->E.get());
    return Flow::Normal;
  case FStmtKind::If:
    if (truthy(evalExpr(St->E.get())))
      return execStmt(St->S1.get(), Ret);
    if (St->S2)
      return execStmt(St->S2.get(), Ret);
    return Flow::Normal;
  case FStmtKind::While:
    while (truthy(evalExpr(St->E.get()))) {
      Flow Fl = execStmt(St->S1.get(), Ret);
      if (Fl == Flow::Return)
        return Fl;
      if (Fl == Flow::Break)
        break;
    }
    return Flow::Normal;
  case FStmtKind::For: {
    Scopes.emplace_back();
    if (St->S1)
      execStmt(St->S1.get(), Ret);
    while (!St->E2 || truthy(evalExpr(St->E2.get()))) {
      Flow Fl = execStmt(St->S2.get(), Ret);
      if (Fl == Flow::Return) {
        Scopes.pop_back();
        return Fl;
      }
      if (Fl == Flow::Break)
        break;
      if (St->E3)
        evalExpr(St->E3.get());
    }
    Scopes.pop_back();
    return Flow::Normal;
  }
  case FStmtKind::Return:
    if (St->E)
      Ret = evalExpr(St->E.get());
    return Flow::Return;
  case FStmtKind::Break:
    return Flow::Break;
  case FStmtKind::Continue:
    return Flow::Continue;
  }
  return Flow::Normal;
}

Value Evaluator::evalExpr(const FExpr *E) {
  switch (E->Kind) {
  case FExprKind::IntLit:
    return valueOf(fitsInt(E->IntVal) ? EvalType::Int : EvalType::Long,
                   {E->IntVal, 0});
  case FExprKind::DoubleLit:
    return valueOf(EvalType::Double, {0, E->DoubleVal});
  case FExprKind::StringLit: {
    S.StringPool.push_back(E->StrVal);
    Value V;
    V.Kind = Value::Ptr;
    V.Pointee = TypeRef::Char;
    V.P = S.StringPool.back().data();
    return V;
  }
  case FExprKind::Ident:
    return lookup(E->Name, E->Line)->V;
  case FExprKind::Tick:
    return buildTick(E);
  case FExprKind::Dollar:
    rtError(E->Line, "$ outside a tick-expression");
  case FExprKind::Unary:
    switch (E->Op.Kind) {
    case FOp::AddrOf: {
      if (E->A->Kind != FExprKind::Ident)
        rtError(E->Line, "& requires a variable");
      SlotPtr SP = lookup(E->A->Name, E->Line);
      Value V;
      V.Kind = Value::Ptr;
      V.Pointee = SP->Type.Base;
      V.P = cellOf(*SP).Addr;
      return V;
    }
    case FOp::Deref:
      return load(evalExpr(E->A.get()), E->Line);
    default:
      return unaryValue(E->Op.U, evalExpr(E->A.get()), E->Line);
    }
  case FExprKind::Binary: {
    Value A = evalExpr(E->A.get());
    // && and || short-circuit: the right operand runs only on demand.
    bool And = E->Op.is(BinOp::LogAnd);
    if (And || E->Op.is(BinOp::LogOr)) {
      bool R = truthy(A);
      if (R == And)
        R = truthy(evalExpr(E->B.get()));
      return valueOf(EvalType::Int, {R, 0});
    }
    return binaryValue(E->Op, A, evalExpr(E->B.get()), E->Line);
  }
  case FExprKind::Assign:
  case FExprKind::PostIncDec: {
    // A op= B (and so A++ and A--) is A = A op B, through binaryValue.
    Value V = evalExpr(E->B.get());
    Value Old;
    if (E->Op.Kind == FOp::Bin) {
      Old = evalExpr(E->A.get());
      V = binaryValue(E->Op, Old, V, E->Line);
    }
    assignTo(E->A.get(), V);
    return E->Kind == FExprKind::PostIncDec ? Old : V;
  }
  case FExprKind::Ternary:
    return truthy(evalExpr(E->A.get())) ? evalExpr(E->B.get())
                                        : evalExpr(E->C.get());
  case FExprKind::Index:
    return load(element(E), E->Line);
  case FExprKind::Call:
    return evalCall(E);
  }
  rtError(E->Line, "bad expression");
}

Value Evaluator::element(const FExpr *E) {
  Value Base = evalExpr(E->A.get());
  if (Base.Kind != Value::Ptr)
    rtError(E->Line, "indexing a non-pointer");
  return offsetPtr(Base, evalExpr(E->B.get()), BinOp::Add);
}

Value Evaluator::load(const Value &Ptr, unsigned Line) {
  if (Ptr.Kind != Value::Ptr || Ptr.Pointee == TypeRef::Void)
    rtError(Line, "dereferencing a non-pointer");
  MemType M = memOf(Ptr);
  return valueOf(evalTypeFor(M), sem::load(Ptr.P, M));
}

void Evaluator::store(const Value &Ptr, const Value &V, unsigned Line) {
  if (Ptr.Kind != Value::Ptr || Ptr.Pointee == TypeRef::Void)
    rtError(Line, "assignment through a non-pointer");
  MemType M = memOf(Ptr);
  sem::store(Ptr.P, M,
             semOf(coerce(V, TypeRef{Ptr.Pointee}, Line), evalTypeFor(M)));
}

void Evaluator::assignTo(const FExpr *Lhs, const Value &V) {
  if (Lhs->Kind == FExprKind::Ident) {
    SlotPtr SP = lookup(Lhs->Name, Lhs->Line);
    SP->V = coerce(V, SP->Type, Lhs->Line);
  } else if (Lhs->Kind == FExprKind::Index) {
    store(element(Lhs), V, Lhs->Line);
  } else if (Lhs->Kind == FExprKind::Unary && Lhs->Op.Kind == FOp::Deref) {
    store(evalExpr(Lhs->A.get()), V, Lhs->Line);
  } else {
    rtError(Lhs->Line, "invalid assignment target");
  }
}

Value Evaluator::evalCall(const FExpr *E) {
  if (E->A->Kind != FExprKind::Ident)
    rtError(E->Line, "calls must name a function or function variable");
  const std::string &Name = E->A->Name;

  // --- `C special forms -------------------------------------------------------
  if (Name == "compile") {
    if (E->Args.size() != 1)
      rtError(E->Line, "compile(cspec, type) takes one cspec");
    Value CV = evalExpr(E->Args[0].get());
    core::Stmt Body;
    if (CV.Kind == Value::CSpecStmt)
      Body = CV.St;
    else if (CV.Kind == Value::CSpecExpr)
      Body = S.Ctx.ret(CV.Ex);
    else
      rtError(E->Line, "compile() needs a cspec");
    if (!Body.valid())
      rtError(E->Line, "compile() of an empty cspec");
    CompileOptions Opts;
    Opts.Backend = S.Backend;
    CompiledFn F =
        compileFn(S.Ctx, Body, evalTypeOf(E->TypeArg), Opts);
    // Signature: integer-class params in index order, then fp params —
    // the convention the dispatcher relies on.
    std::string Sig(1, sigCharOf(E->TypeArg));
    Sig += '(';
    for (const auto &KV : S.PendingIntParams)
      Sig += sigCharOf(KV.second);
    for (std::size_t I = 0; I < S.PendingFpParams.size(); ++I)
      Sig += 'd';
    Sig += ')';
    // As in tcc, compile() "resets the information regarding dynamically
    // generated locals and parameters".
    S.PendingIntParams.clear();
    S.PendingFpParams.clear();
    Value R;
    R.Kind = Value::FnPtr;
    R.P = F.entry();
    R.FnSig = Sig;
    S.Compiled.push_back(std::move(F));
    return R;
  }
  if (Name == "param") {
    if (E->Args.size() != 1)
      rtError(E->Line, "param(type, index) takes a type and an index");
    Value IdxV = evalExpr(E->Args[0].get());
    int Idx = static_cast<int>(IdxV.I);
    Value R;
    R.Kind = Value::VSpecRef;
    if (evalTypeOf(E->TypeArg) == EvalType::Double) {
      R.Vs = S.Ctx.paramDouble(static_cast<unsigned>(Idx));
      S.PendingFpParams[Idx] = E->TypeArg;
    } else {
      switch (evalTypeOf(E->TypeArg)) {
      case EvalType::Ptr:
        R.Vs = S.Ctx.paramPtr(static_cast<unsigned>(Idx));
        break;
      case EvalType::Long:
        R.Vs = S.Ctx.paramLong(static_cast<unsigned>(Idx));
        break;
      default:
        R.Vs = S.Ctx.paramInt(static_cast<unsigned>(Idx));
        break;
      }
      S.PendingIntParams[Idx] = E->TypeArg;
    }
    return R;
  }
  if (Name == "local") {
    Value R;
    R.Kind = Value::VSpecRef;
    R.Vs = newLocal(E->TypeArg);
    return R;
  }

  // --- Builtins -----------------------------------------------------------------
  auto Eval1 = [&](std::size_t I) { return evalExpr(E->Args[I].get()); };
  if (Name == "print_int") {
    tickcPrintInt(static_cast<int>(Eval1(0).I));
    return Value();
  }
  if (Name == "print_long") {
    tickcPrintLong(semOf(Eval1(0), EvalType::Long).I);
    return Value();
  }
  if (Name == "print_double") {
    tickcPrintDouble(semOf(Eval1(0), EvalType::Double).D);
    return Value();
  }
  if (Name == "print_str") {
    Value V = Eval1(0);
    tickcPrintStr(static_cast<const char *>(V.P));
    return Value();
  }
  if (Name == "alloc_int") {
    S.IntBuffers.emplace_back(static_cast<std::size_t>(Eval1(0).I), 0);
    Value R;
    R.Kind = Value::Ptr;
    R.Pointee = TypeRef::Int;
    R.P = S.IntBuffers.back().data();
    return R;
  }
  if (Name == "alloc_double") {
    S.DoubleBuffers.emplace_back(static_cast<std::size_t>(Eval1(0).I), 0.0);
    Value R;
    R.Kind = Value::Ptr;
    R.Pointee = TypeRef::Double;
    R.P = S.DoubleBuffers.back().data();
    return R;
  }

  // --- A compiled dynamic function held in a variable -----------------------------
  if (SlotPtr SP = find(Name)) {
    const Value &FV = SP->V;
    if (FV.Kind == Value::FnPtr ||
        (FV.Kind == Value::Ptr && !FV.FnSig.empty())) {
      std::int64_t IA[6];
      double DA[2];
      unsigned NI = 0, ND = 0;
      const std::string &Sig = FV.FnSig;
      std::size_t ArgIdx = 0;
      for (std::size_t K = 2; K + 1 <= Sig.size() && Sig[K] != ')'; ++K) {
        if (ArgIdx >= E->Args.size())
          rtError(E->Line, "too few arguments to dynamic function");
        Value AV = evalExpr(E->Args[ArgIdx++].get());
        if (Sig[K] == 'd')
          DA[ND++] = semOf(AV, EvalType::Double).D;
        else
          IA[NI++] = semOf(AV, EvalType::Long).I;
      }
      Value R;
      if (Sig[0] == 'd') {
        R.Kind = Value::Double;
        R.D = callSig<double>(FV.P, IA, NI, DA, ND);
      } else if (Sig[0] == 'v') {
        callSig<std::int64_t>(FV.P, IA, NI, DA, ND);
        R.Kind = Value::Void;
      } else {
        R.Kind = Sig[0] == 'l' || Sig[0] == 'p' ? Value::Long : Value::Int;
        R.I = callSig<std::int64_t>(FV.P, IA, NI, DA, ND);
        if (Sig[0] == 'i')
          R.I = static_cast<std::int32_t>(R.I);
      }
      return R;
    }
  }

  // --- A user-defined (interpreted) function ---------------------------------------
  auto It = S.Funcs.find(Name);
  if (It == S.Funcs.end())
    rtError(E->Line, "unknown function '" + Name + "'");
  std::vector<Value> Args;
  Args.reserve(E->Args.size());
  for (const FExprPtr &A : E->Args)
    Args.push_back(evalExpr(A.get()));
  return callFunction(*It->second, std::move(Args));
}

// --- Dynamic-code specification ------------------------------------------------

Value Evaluator::buildTick(const FExpr *E) {
  bool Outer = !InTick;
  InTick = true;
  Value R;
  if (E->Body) {
    TickScopes.emplace_back();
    R.Kind = Value::CSpecStmt;
    R.St = specStmt(E->Body.get());
    TickScopes.pop_back();
  } else {
    SV V = specExpr(E->A.get());
    R.Kind = Value::CSpecExpr;
    R.Ex = V.E;
  }
  if (Outer)
    InTick = false;
  return R;
}

/// Converts an interpreter value into a run-time constant cspec ($).
Evaluator::SV Evaluator::rcOf(const Value &V, unsigned Line) {
  SV R;
  switch (V.Kind) {
  case Value::Int:
    R.E = S.Ctx.rcInt(static_cast<std::int32_t>(V.I));
    R.T.Base = TypeRef::Int;
    return R;
  case Value::Long:
    R.E = S.Ctx.rcLong(V.I);
    R.T.Base = TypeRef::Long;
    return R;
  case Value::Double:
    R.E = S.Ctx.rcDouble(V.D);
    R.T.Base = TypeRef::Double;
    return R;
  case Value::Ptr:
    R.E = S.Ctx.rcPtr(V.P);
    R.T.Base = V.Pointee;
    R.T.PtrDepth = 1;
    return R;
  default:
    rtError(Line, "$ applied to a non-constant value");
  }
}

/// Splices a variable's value into dynamic code: cspecs compose, vspecs
/// read, plain variables become free variables.
Evaluator::SV Evaluator::spliceValue(Slot &SP, unsigned Line) {
  const TypeRef &T = SP.Type;
  SV R{{}, T};
  if (T.IsCSpec) {
    if (SP.V.Kind != Value::CSpecExpr)
      rtError(Line, "cannot splice a statement cspec as an expression");
    R.E = SP.V.Ex;
    R.T.IsCSpec = false;
  } else if (T.IsVSpec) {
    R.E = S.Ctx.read(SP.V.Vs);
    R.T.IsVSpec = false;
  } else {
    Cell C = cellOf(SP);
    R.E = S.Ctx.freeVar(C.Addr, C.M);
  }
  return R;
}

Evaluator::SV Evaluator::specExpr(const FExpr *E) {
  Context &C = S.Ctx;
  switch (E->Kind) {
  case FExprKind::IntLit: {
    Expr Lit = fitsInt(E->IntVal)
                   ? C.intConst(static_cast<std::int32_t>(E->IntVal))
                   : C.longConst(E->IntVal);
    return {Lit, typeRefOf(Lit.type())};
  }
  case FExprKind::DoubleLit: {
    SV R;
    R.E = C.doubleConst(E->DoubleVal);
    R.T.Base = TypeRef::Double;
    return R;
  }
  case FExprKind::StringLit: {
    S.StringPool.push_back(E->StrVal);
    SV R;
    R.E = C.rcPtr(S.StringPool.back().data());
    R.T.Base = TypeRef::Char;
    R.T.PtrDepth = 1;
    return R;
  }
  case FExprKind::Dollar:
    return rcOf(evalExpr(E->A.get()), E->Line);
  case FExprKind::Tick:
    rtError(E->Line, "nested tick-expressions are not supported");
  case FExprKind::Ident: {
    // Dynamic locals declared in this tick expression shadow the
    // interpreter environment.
    if (SlotPtr *TL = lookupTickLocal(E->Name))
      return {C.read((*TL)->V.Vs), (*TL)->Type};
    return spliceValue(*lookup(E->Name, E->Line), E->Line);
  }
  case FExprKind::Unary: {
    SV A = specExpr(E->A.get());
    if (E->Op.Kind == FOp::Un) {
      checkCompiled(sem::compiledAt(E->Op.U, A.E.type()), A.E.type(),
                    E->Line);
      return {C.unary(E->Op.U, A.E),
              E->Op.U == UnOp::LogNot ? TypeRef() : A.T};
    }
    if (E->Op.Kind != FOp::Deref)
      rtError(E->Line, "operator not supported in dynamic code");
    if (!A.T.isPointer())
      rtError(E->Line, "dereferencing a non-pointer in dynamic code");
    SV R{C.loadMem(memTypeOfPointee(A.T), A.E), A.T};
    --R.T.PtrDepth;
    return R;
  }
  case FExprKind::Binary: {
    SV A = specExpr(E->A.get());
    SV B = specExpr(E->B.get());
    if (E->Op.Kind == FOp::Cmp)
      return {C.cmp(E->Op.C, A.E, B.E), TypeRef()};
    return specBinary(E->Op.B, A, B, E->Line);
  }
  case FExprKind::Ternary: {
    SV Cond = specExpr(E->A.get());
    SV Then = specExpr(E->B.get());
    SV Else = specExpr(E->C.get());
    SV R;
    R.E = C.cond(Cond.E, Then.E, Else.E);
    R.T = Then.T;
    return R;
  }
  case FExprKind::Index: {
    SV Base = specExpr(E->A.get());
    SV Idx = specExpr(E->B.get());
    if (!Base.T.isPointer())
      rtError(E->Line, "indexing a non-pointer in dynamic code");
    SV R;
    R.E = C.index(Base.E, Idx.E, memTypeOfPointee(Base.T));
    R.T = Base.T;
    --R.T.PtrDepth;
    return R;
  }
  case FExprKind::Call: {
    if (E->A->Kind != FExprKind::Ident)
      rtError(E->Line, "dynamic calls must name a function");
    const std::string &Name = E->A->Name;
    struct Builtin {
      const char *Name;
      const void *Fn;
      EvalType Ret;
    };
    static const Builtin Builtins[] = {
        {"print_int", reinterpret_cast<const void *>(&tickcPrintInt),
         EvalType::Void},
        {"print_long", reinterpret_cast<const void *>(&tickcPrintLong),
         EvalType::Void},
        {"print_double", reinterpret_cast<const void *>(&tickcPrintDouble),
         EvalType::Void},
        {"print_str", reinterpret_cast<const void *>(&tickcPrintStr),
         EvalType::Void},
    };
    for (const Builtin &B : Builtins) {
      if (Name != B.Name)
        continue;
      std::vector<Expr> Args;
      for (const FExprPtr &A : E->Args)
        Args.push_back(specExpr(A.get()).E);
      SV R;
      R.E = C.callC(B.Fn, B.Ret, Args);
      R.T.Base = TypeRef::Void;
      return R;
    }
    // Calling a compiled dynamic function (FnPtr variable) from dynamic
    // code: splice as an indirect call through its captured pointer.
    SlotPtr SP = lookup(Name, E->Line);
    if (SP->V.Kind == Value::FnPtr ||
        (SP->V.Kind == Value::Ptr && !SP->V.FnSig.empty())) {
      std::vector<Expr> Args;
      for (const FExprPtr &A : E->Args)
        Args.push_back(specExpr(A.get()).E);
      char RetC = SP->V.FnSig.empty() ? 'i' : SP->V.FnSig[0];
      EvalType Ret = RetC == 'd'   ? EvalType::Double
                     : RetC == 'v' ? EvalType::Void
                     : RetC == 'l' ? EvalType::Long
                     : RetC == 'p' ? EvalType::Ptr
                                   : EvalType::Int;
      SV R;
      R.E = C.callC(SP->V.P, Ret, Args);
      R.T.Base = RetC == 'd' ? TypeRef::Double : TypeRef::Int;
      return R;
    }
    rtError(E->Line, "cannot call '" + Name + "' from dynamic code");
  }
  case FExprKind::Assign:
  case FExprKind::PostIncDec:
    rtError(E->Line,
            "assignment in dynamic code must be a statement, not a value");
  }
  rtError(E->Line, "bad dynamic expression");
}

/// `A O B` in dynamic code: binaryValue's twin. Pointer arithmetic scales
/// here; everything else goes to Context::binary, after the one check of
/// what the back ends compile (sem::compiledAt).
Evaluator::SV Evaluator::specBinary(BinOp O, const SV &A, const SV &B,
                                    unsigned Line) {
  Context &C = S.Ctx;
  if (A.T.isPointer() && !B.T.isPointer() &&
      (O == BinOp::Add || O == BinOp::Sub)) {
    Expr Bytes = C.binary(BinOp::Mul, C.toLong(B.E),
                          C.longConst(memSize(memTypeOfPointee(A.T))));
    return {C.binary(O, A.E, Bytes), A.T};
  }
  EvalType T = sem::promote(A.E.type(), B.E.type());
  checkCompiled(sem::compiledAt(O, T), T, Line);
  SV R{C.binary(O, A.E, B.E), typeRefOf(T)};
  if (T == EvalType::Ptr)
    R.T = A.T.isPointer() ? A.T : B.T;
  return R;
}

core::VSpec Evaluator::newLocal(const TypeRef &T) {
  switch (evalTypeOf(T)) {
  case EvalType::Double:
    return S.Ctx.localDouble();
  case EvalType::Ptr:
    return S.Ctx.localPtr();
  case EvalType::Long:
    return S.Ctx.localLong();
  default:
    return S.Ctx.localInt();
  }
}

/// A declaration inside a backquote creates a *dynamic local*, in scope
/// for the rest of the enclosing tick block.
core::VSpec Evaluator::declareTickLocal(const FStmt *D) {
  auto SlotP = std::make_shared<Slot>();
  SlotP->Type = D->DeclType;
  SlotP->Type.IsVSpec = true;
  SlotP->V.Kind = Value::VSpecRef;
  SlotP->V.Vs = newLocal(D->DeclType);
  TickScopes.back()[D->Name] = SlotP;
  return SlotP->V.Vs;
}

core::Stmt Evaluator::specStmt(const FStmt *St) {
  Context &C = S.Ctx;
  switch (St->Kind) {
  case FStmtKind::Block: {
    TickScopes.emplace_back();
    std::vector<core::Stmt> Body;
    for (const FStmtPtr &Child : St->Body)
      Body.push_back(specStmt(Child.get()));
    TickScopes.pop_back();
    return C.block(Body);
  }
  case FStmtKind::Decl: {
    core::VSpec V = declareTickLocal(St);
    return St->E ? C.assign(V, specExpr(St->E.get()).E) : C.block({});
  }
  case FStmtKind::ExprStmt:
    return specExprAsStmt(St->E.get());
  case FStmtKind::If: {
    core::Stmt Then = specStmt(St->S1.get());
    if (St->S2)
      return C.ifStmt(specExpr(St->E.get()).E, Then,
                      specStmt(St->S2.get()));
    return C.ifStmt(specExpr(St->E.get()).E, Then);
  }
  case FStmtKind::While:
    return C.whileStmt(specExpr(St->E.get()).E, specStmt(St->S1.get()));
  case FStmtKind::For:
    return specFor(St);
  case FStmtKind::Return:
    if (St->E)
      return C.ret(specExpr(St->E.get()).E);
    return C.retVoid();
  case FStmtKind::Break:
    return C.breakStmt();
  case FStmtKind::Continue:
    return C.continueStmt();
  }
  rtError(St->Line, "bad dynamic statement");
}

const Value *Evaluator::vspecLvalue(const std::string &Name) {
  if (SlotPtr *TL = lookupTickLocal(Name))
    return &(*TL)->V;
  SlotPtr SP = find(Name);
  return SP && SP->Type.IsVSpec ? &SP->V : nullptr;
}

/// `A = B`, `A op= B`, `A++` and `A--` in dynamic code. The compound forms
/// are A = A op B through specBinary; all four store through one path.
core::Stmt Evaluator::specAssign(const FExpr *E) {
  Context &C = S.Ctx;
  SV Rhs = specExpr(E->B.get());
  if (E->Op.Kind == FOp::Bin)
    Rhs = specBinary(E->Op.B, specExpr(E->A.get()), Rhs, E->Line);
  const FExpr *Lhs = E->A.get();
  if (Lhs->Kind == FExprKind::Ident) {
    if (const Value *VS = vspecLvalue(Lhs->Name))
      return C.assign(VS->Vs, Rhs.E);
    // Free variable write: a store to the interpreter slot's payload.
    SlotPtr SP = lookup(Lhs->Name, Lhs->Line);
    if (SP->Type.IsCSpec)
      rtError(Lhs->Line, "cannot assign to a cspec inside dynamic code");
    Cell Cl = cellOf(*SP);
    return C.storeMem(Cl.M, C.rcPtr(Cl.Addr), Rhs.E);
  }
  if (Lhs->Kind == FExprKind::Index) {
    SV Base = specExpr(Lhs->A.get());
    SV Idx = specExpr(Lhs->B.get());
    if (!Base.T.isPointer())
      rtError(Lhs->Line, "indexed assignment to a non-pointer");
    return C.storeIndex(Base.E, Idx.E, memTypeOfPointee(Base.T), Rhs.E);
  }
  if (Lhs->Kind == FExprKind::Unary && Lhs->Op.Kind == FOp::Deref) {
    SV Base = specExpr(Lhs->A.get());
    if (!Base.T.isPointer())
      rtError(Lhs->Line, "assignment through a non-pointer");
    return C.storeMem(memTypeOfPointee(Base.T), Base.E, Rhs.E);
  }
  rtError(Lhs->Line, "invalid assignment target in dynamic code");
}

core::Stmt Evaluator::specExprAsStmt(const FExpr *E) {
  if (E->Kind == FExprKind::Assign || E->Kind == FExprKind::PostIncDec)
    return specAssign(E);
  // A bare identifier naming a `void cspec` splices the whole statement
  // (composition of compound statements, e.g. `{ steps; acc = acc*b; }).
  if (E->Kind == FExprKind::Ident && !lookupTickLocal(E->Name)) {
    SlotPtr SP = find(E->Name);
    if (SP && SP->Type.IsCSpec && SP->V.Kind == Value::CSpecStmt)
      return SP->V.St.valid() ? SP->V.St : S.Ctx.block({});
  }
  return S.Ctx.exprStmt(specExpr(E).E);
}

core::Stmt Evaluator::specFor(const FStmt *St) {
  Context &C = S.Ctx;
  // The init declaration's scope spans cond/step/body.
  TickScopes.emplace_back();
  core::VSpec Var;
  Expr InitE;
  if (St->S1 && St->S1->Kind == FStmtKind::Decl) {
    Var = declareTickLocal(St->S1.get());
    if (St->S1->E)
      InitE = specExpr(St->S1->E.get()).E;
  } else if (St->S1 && St->S1->Kind == FStmtKind::ExprStmt &&
             St->S1->E->Kind == FExprKind::Assign &&
             St->S1->E->Op.Kind == FOp::None &&
             St->S1->E->A->Kind == FExprKind::Ident) {
    if (const Value *VS = vspecLvalue(St->S1->E->A->Name)) {
      Var = VS->Vs;
      InitE = specExpr(St->S1->E->B.get()).E;
    }
  }

  // Recognize `for (v = a; v <op> bound; v++/v--/v += c/v -= c)` over an
  // int or long v so that core's forStmt, and with it dynamic loop
  // unrolling, applies.
  auto IsVar = [&](const FExpr *X) {
    if (X->Kind != FExprKind::Ident)
      return false;
    const Value *VS = vspecLvalue(X->Name);
    return VS && VS->Vs.id() == Var.id();
  };
  const FExpr *Cond = St->E2.get(), *Step = St->E3.get();
  if (Var.valid() && InitE.valid() &&
      (Var.type() == EvalType::Int || Var.type() == EvalType::Long) && Cond &&
      Step && Cond->Kind == FExprKind::Binary && Cond->Op.Kind == FOp::Cmp &&
      Cond->Op.C != CmpKind::Eq && IsVar(Cond->A.get()) &&
      (Step->Kind == FExprKind::Assign ||
       Step->Kind == FExprKind::PostIncDec) &&
      (Step->Op.is(BinOp::Add) || Step->Op.is(BinOp::Sub)) &&
      IsVar(Step->A.get())) {
    Expr StepE = specExpr(Step->B.get()).E;
    if (Step->Op.is(BinOp::Sub))
      StepE = C.neg(StepE);
    Expr Bound = specExpr(Cond->B.get()).E;
    core::Stmt Body = specStmt(St->S2.get());
    TickScopes.pop_back();
    return C.forStmt(Var, InitE, Cond->Op.C, Bound, StepE, Body);
  }

  // General fallback: init; while (cond) { body; step; }. (A continue in
  // the body re-tests without stepping — documented restriction.)
  std::vector<core::Stmt> Outer;
  if (Var.valid() && InitE.valid())
    Outer.push_back(C.assign(Var, InitE)); // Decl local already created.
  else if (St->S1 && St->S1->Kind != FStmtKind::Decl)
    Outer.push_back(specStmt(St->S1.get()));
  std::vector<core::Stmt> BodyV;
  BodyV.push_back(specStmt(St->S2.get()));
  if (Step)
    BodyV.push_back(specExprAsStmt(Step));
  Expr CondE = Cond ? specExpr(Cond).E : C.intConst(1);
  Outer.push_back(C.whileStmt(CondE, C.block(BodyV)));
  TickScopes.pop_back();
  return C.block(Outer);
}

} // namespace

// --- Interp public API ----------------------------------------------------------

Interp::Interp(FProgram Program, core::BackendKind Backend)
    : S(std::make_unique<ImplState>()) {
  S->Prog = std::move(Program);
  S->Backend = Backend;
  S->Owner = this;
  for (const FFunction &F : S->Prog.Functions)
    S->Funcs[F.Name] = &F;
}

Interp::~Interp() = default;

int Interp::runMain() {
  ActiveOut = &Out;
  ActiveEcho = Echo;
  Evaluator Ev(*S);
  Ev.initGlobals();
  auto It = S->Funcs.find("main");
  if (It == S->Funcs.end())
    reportFatalError("tickc program has no main()");
  Value R = Ev.callFunction(*It->second, {});
  for (const core::CompiledFn &F : S->Compiled)
    DynInstrs += F.stats().MachineInstrs;
  ActiveOut = nullptr;
  return static_cast<int>(R.I);
}

std::pair<int, std::string> tcc::frontend::runTickC(const std::string &Src,
                                                    core::BackendKind B) {
  Interp I(parseProgram(Src), B);
  int Code = I.runMain();
  return {Code, I.output()};
}
