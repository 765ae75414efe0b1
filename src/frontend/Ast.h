//===- frontend/Ast.h - Tick-C abstract syntax -------------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the Tick-C subset. The same expression grammar serves static
/// code (interpreted) and dynamic code (backquoted subtrees are walked by
/// the spec builder, which constructs core cspecs) — mirroring how tcc
/// compiles tick-expressions into code-generating functions while the
/// surrounding C is compiled normally.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_FRONTEND_AST_H
#define TICKC_FRONTEND_AST_H

#include "core/Nodes.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tcc {
namespace frontend {

/// A source-level type: base type, pointer depth, and the `C type
/// constructors (cspec / vspec), which are postfix in `C: `int cspec c;`.
struct TypeRef {
  enum BaseT : std::uint8_t { Void, Int, Long, Double, Char } Base = Int;
  std::uint8_t PtrDepth = 0;
  bool IsCSpec = false;
  bool IsVSpec = false;

  bool isPointer() const { return PtrDepth > 0; }
  bool operator==(const TypeRef &O) const {
    return Base == O.Base && PtrDepth == O.PtrDepth &&
           IsCSpec == O.IsCSpec && IsVSpec == O.IsVSpec;
  }
};

struct FExpr;
struct FStmt;
using FExprPtr = std::unique_ptr<FExpr>;
using FStmtPtr = std::unique_ptr<FStmt>;

enum class FExprKind : std::uint8_t {
  IntLit,
  DoubleLit,
  StringLit,
  Ident,
  Unary,   ///< Op A: - ! ~ (a UnOp), * (Deref) or & (AddrOf).
  Binary,  ///< A Op B: a BinOp (&& and || included) or a CmpKind.
  Assign,  ///< A = B (Op None), or A op= B (Op the BinOp).
  Ternary,
  Call,    ///< Callee in A; Args. Special forms: compile/local/param.
  Index,   ///< A[B]
  Tick,    ///< `expr (A) or `{...} (Body)
  Dollar,  ///< $expr within dynamic code
  PostIncDec, ///< A++ or A--: A op= B with Op Add or Sub and B the literal
              ///< 1, valued at A's old value.
};

/// An operator, mapped once by the parser from its token to what the core
/// library computes, so both halves of a program evaluate one meaning: the
/// static half through core/Semantics.h, the backquoted half through the
/// Context builders. Dereference and address-of have no core operator and
/// stay the frontend's own forms.
struct FOp {
  enum KindT : std::uint8_t { None, Bin, Cmp, Un, Deref, AddrOf } Kind = None;
  core::BinOp B = core::BinOp::Add;   ///< Kind == Bin.
  core::CmpKind C = core::CmpKind::Eq; ///< Kind == Cmp.
  core::UnOp U = core::UnOp::Neg;     ///< Kind == Un.

  bool is(core::BinOp O) const { return Kind == Bin && B == O; }
};

struct FExpr {
  FExprKind Kind;
  unsigned Line = 0;
  FOp Op;           ///< Unary, Binary, Assign and PostIncDec.
  std::string Name; ///< Ident: the identifier.
  std::int64_t IntVal = 0;
  double DoubleVal = 0;
  std::string StrVal;
  FExprPtr A, B, C;
  std::vector<FExprPtr> Args;
  FStmtPtr Body;   ///< Tick compound body.
  TypeRef TypeArg; ///< compile/local/param type operand.
};

enum class FStmtKind : std::uint8_t {
  Block,
  Decl,
  ExprStmt,
  If,
  While,
  For,
  Return,
  Break,
  Continue,
};

struct FStmt {
  FStmtKind Kind;
  unsigned Line = 0;
  TypeRef DeclType;
  std::string Name;
  FExprPtr E;  ///< Decl init / condition / return value / expression.
  FExprPtr E2; ///< For: condition.
  FExprPtr E3; ///< For: step expression.
  FStmtPtr S1; ///< Then / body / For init statement.
  FStmtPtr S2; ///< Else.
  std::vector<FStmtPtr> Body;
};

struct FParam {
  TypeRef Type;
  std::string Name;
};

struct FFunction {
  TypeRef RetType;
  std::string Name;
  std::vector<FParam> Params;
  FStmtPtr Body;
  unsigned Line = 0;
};

struct FProgram {
  std::vector<FFunction> Functions;
  std::vector<FStmt> Globals; ///< Global declarations (Decl statements).
};

} // namespace frontend
} // namespace tcc

#endif // TICKC_FRONTEND_AST_H
