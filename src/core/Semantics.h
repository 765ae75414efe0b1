//===- core/Semantics.h - The value of every operator ----------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of what C operators compute. Two tree walks need
/// operator values: the instantiation-time constant folder (the automatic
/// dynamic partial evaluation of paper §4.4, in Compile.cpp) and the Tick-C
/// frontend's static half (frontend/Interp.cpp), which computes `x << s`
/// before a backquote the way the compiled code computes it after one. Both
/// call the helpers below, so they cannot disagree; the helpers follow what
/// the emitted x86 computes, so neither disagrees with compiled code.
///
/// Values are canonical scalars: an Int is sign-extended to 64 bits, Long
/// and Ptr use all 64, a Double lives in D. Where the machine is defined
/// and C++ is not, the machine wins:
///   * Integer Div/Mod trap (idiv's #DE) exactly when y == 0, or when x is
///     the type's minimum and y == -1. binary() reports the trap; the folder
///     then declines to fold (the compiled idiv traps at the call) and the
///     frontend reports a line-numbered error.
///   * DoubleToInt is cvttsd2si: NaN and out-of-range inputs give INT32_MIN.
///   * Add, Sub, Mul and Neg wrap in two's complement at their type's width.
///   * Shifts are width-aware: an Int count is masked to 5 bits, as 32-bit
///     shl/sar do, and a Long count to 6, as shl r64 does. The back ends
///     emit only Int shifts (compiledAt), so only the frontend's static
///     half reaches the Long case.
///   * Double compares read ucomisd's flags with no parity check, as the
///     back ends emit them: a NaN operand makes ==, < and <= true and !=,
///     > and >= false.
///
/// Everything here is inline: the folder runs these helpers on every
/// constant node of every instantiation.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_SEMANTICS_H
#define TICKC_CORE_SEMANTICS_H

#include "core/Nodes.h"

#include <cstdint>
#include <cstring>

namespace tcc {
namespace core {
namespace sem {

/// A canonical scalar (see the file comment).
struct Value {
  std::int64_t I = 0;
  double D = 0;
};

inline std::int64_t sext32(std::int64_t V) {
  return static_cast<std::int32_t>(V);
}

/// Canonical form of an integer-class value of type \p T.
inline std::int64_t canon(EvalType T, std::int64_t V) {
  return T == EvalType::Int ? sext32(V) : V;
}

/// The type both operands of a binary or compare node are converted to
/// (Context::promote): Double wins, then Ptr, and an Int/Long mix is Long.
inline EvalType promote(EvalType A, EvalType B) {
  if (A == B)
    return A;
  if (A == EvalType::Double || B == EvalType::Double)
    return EvalType::Double;
  if (A == EvalType::Ptr || B == EvalType::Ptr)
    return EvalType::Ptr;
  return EvalType::Long;
}

/// True when the back ends compile `A O B` at promoted type \p T: every
/// operator on Int, + - * / on Double, and + - * on Long and Ptr. && and ||
/// take Int conditions. binary() computes the rest of Long too, for the
/// frontend's static half; Context::binary accepts only what this allows.
inline bool compiledAt(BinOp O, EvalType T) {
  switch (T) {
  case EvalType::Int:
    return true;
  case EvalType::Double:
    return O == BinOp::Add || O == BinOp::Sub || O == BinOp::Mul ||
           O == BinOp::Div;
  case EvalType::Long:
  case EvalType::Ptr:
    return O == BinOp::Add || O == BinOp::Sub || O == BinOp::Mul;
  case EvalType::Void:
    break;
  }
  return false;
}

/// The same for `O A` with A of type \p T: - on every number, ~ and ! on
/// Int. Conversions are chosen by type (Context::toInt etc.).
inline bool compiledAt(UnOp O, EvalType T) {
  switch (O) {
  case UnOp::Neg:
    return T == EvalType::Int || T == EvalType::Long || T == EvalType::Double;
  case UnOp::Not:
  case UnOp::LogNot:
    return T == EvalType::Int;
  default:
    return true;
  }
}

inline bool truthy(EvalType T, Value V) {
  return T == EvalType::Double ? V.D != 0 : V.I != 0;
}

/// X + Y at type \p T, wrapping. Also the For statement's induction step.
inline std::int64_t add(EvalType T, std::int64_t X, std::int64_t Y) {
  return canon(T, static_cast<std::int64_t>(static_cast<std::uint64_t>(X) +
                                            static_cast<std::uint64_t>(Y)));
}

/// The value of a ConstInt/ConstLong/ConstDouble node.
inline Value constant(const ExprNode *N) {
  return Value{canon(N->Type, N->IntVal), N->FpVal};
}

/// Reads a \p M-typed value at \p P.
inline Value load(const void *P, MemType M) {
  Value R;
  switch (M) {
  case MemType::I8:
    R.I = *static_cast<const std::int8_t *>(P);
    break;
  case MemType::U8:
    R.I = *static_cast<const std::uint8_t *>(P);
    break;
  case MemType::I16:
    R.I = *static_cast<const std::int16_t *>(P);
    break;
  case MemType::U16:
    R.I = *static_cast<const std::uint16_t *>(P);
    break;
  case MemType::I32:
    R.I = *static_cast<const std::int32_t *>(P);
    break;
  case MemType::I64:
    R.I = *static_cast<const std::int64_t *>(P);
    break;
  case MemType::P64: // A pointer object: copy its bytes.
    std::memcpy(&R.I, P, sizeof R.I);
    break;
  case MemType::F64:
    R.D = *static_cast<const double *>(P);
    break;
  }
  return R;
}

/// Writes \p V to \p P as a \p M (narrow stores truncate).
inline void store(void *P, MemType M, Value V) {
  switch (M) {
  case MemType::I8:
  case MemType::U8:
    *static_cast<std::int8_t *>(P) = static_cast<std::int8_t>(V.I);
    break;
  case MemType::I16:
  case MemType::U16:
    *static_cast<std::int16_t *>(P) = static_cast<std::int16_t>(V.I);
    break;
  case MemType::I32:
    *static_cast<std::int32_t *>(P) = static_cast<std::int32_t>(V.I);
    break;
  case MemType::I64:
    *static_cast<std::int64_t *>(P) = V.I;
    break;
  case MemType::P64:
    std::memcpy(P, &V.I, sizeof V.I);
    break;
  case MemType::F64:
    *static_cast<double *>(P) = V.D;
    break;
  }
}

/// The value of `O V` with result type \p T; \p OpT is V's type.
inline Value unary(UnOp O, EvalType T, EvalType OpT, Value V) {
  Value R;
  switch (O) {
  case UnOp::Neg:
    if (T == EvalType::Double)
      R.D = -V.D;
    else
      R.I = canon(T, static_cast<std::int64_t>(
                         0 - static_cast<std::uint64_t>(V.I)));
    break;
  case UnOp::Not:
    R.I = canon(T, ~V.I);
    break;
  case UnOp::LogNot:
    R.I = !truthy(OpT, V);
    break;
  case UnOp::IntToDouble:
  case UnOp::LongToDouble:
    R.D = static_cast<double>(V.I);
    break;
  case UnOp::DoubleToInt:
    // cvttsd2si: NaN and out-of-range inputs give the integer indefinite.
    R.I = V.D >= -2147483648.0 && V.D < 2147483648.0
              ? static_cast<std::int32_t>(V.D)
              : INT32_MIN;
    break;
  case UnOp::IntToLong: // Already sign-extended.
  case UnOp::Bitcast:
    R.I = V.I;
    break;
  case UnOp::LongToInt:
    R.I = sext32(V.I);
    break;
  }
  return R;
}

/// Sets \p R to `A O B` with result (and operand) type \p T. Returns false
/// when the machine traps instead: integer Div/Mod by zero or of the
/// type's minimum by -1. LogAnd/LogOr are not listed: their right operand
/// is evaluated only on demand, so the tree walks short-circuit them.
inline bool binary(BinOp O, EvalType T, Value A, Value B, Value &R) {
  if (T == EvalType::Double) {
    switch (O) {
    case BinOp::Add:
      R.D = A.D + B.D;
      break;
    case BinOp::Sub:
      R.D = A.D - B.D;
      break;
    case BinOp::Mul:
      R.D = A.D * B.D;
      break;
    case BinOp::Div:
      R.D = A.D / B.D;
      break;
    default:
      break;
    }
    return true;
  }
  std::int64_t X = A.I, Y = B.I;
  auto UX = static_cast<std::uint64_t>(X), UY = static_cast<std::uint64_t>(Y);
  std::int64_t V = 0;
  switch (O) {
  case BinOp::Add:
    V = static_cast<std::int64_t>(UX + UY);
    break;
  case BinOp::Sub:
    V = static_cast<std::int64_t>(UX - UY);
    break;
  case BinOp::Mul:
    V = static_cast<std::int64_t>(UX * UY);
    break;
  case BinOp::Div:
  case BinOp::Mod:
    if (Y == 0 ||
        (Y == -1 && X == (T == EvalType::Int ? INT32_MIN : INT64_MIN)))
      return false;
    V = O == BinOp::Div ? X / Y : X % Y;
    break;
  case BinOp::And:
    V = X & Y;
    break;
  case BinOp::Or:
    V = X | Y;
    break;
  case BinOp::Xor:
    V = X ^ Y;
    break;
  case BinOp::Shl:
    V = T == EvalType::Int ? static_cast<std::int32_t>(
                                 static_cast<std::uint32_t>(X) << (Y & 31))
                           : static_cast<std::int64_t>(UX << (Y & 63));
    break;
  case BinOp::Shr:
    V = T == EvalType::Int ? static_cast<std::int32_t>(X) >> (Y & 31)
                           : X >> (Y & 63);
    break;
  case BinOp::LogAnd:
  case BinOp::LogOr:
    break;
  }
  R.I = canon(T, V);
  return true;
}

/// `X K Y` on canonical integers. Sign extension preserves both the signed
/// and the unsigned order of 32-bit values, so one 64-bit compare serves
/// Int, Long and Ptr alike.
inline bool compareInt(CmpKind K, std::int64_t X, std::int64_t Y) {
  auto UX = static_cast<std::uint64_t>(X), UY = static_cast<std::uint64_t>(Y);
  switch (K) {
  case CmpKind::Eq:
    return X == Y;
  case CmpKind::Ne:
    return X != Y;
  case CmpKind::LtS:
    return X < Y;
  case CmpKind::LeS:
    return X <= Y;
  case CmpKind::GtS:
    return X > Y;
  case CmpKind::GeS:
    return X >= Y;
  case CmpKind::LtU:
    return UX < UY;
  case CmpKind::LeU:
    return UX <= UY;
  case CmpKind::GtU:
    return UX > UY;
  case CmpKind::GeU:
    return UX >= UY;
  }
  return false;
}

/// `A K B` on operands of type \p OpT. Doubles compare the way the emitted
/// code does: ucomisd sets ZF and CF (both, for an unordered pair) and the
/// condition reads them like an unsigned compare, so the signed and unsigned
/// kinds agree and no parity check tells NaN apart.
inline bool compare(CmpKind K, EvalType OpT, Value A, Value B) {
  if (OpT != EvalType::Double)
    return compareInt(K, A.I, B.I);
  bool Unordered = A.D != A.D || B.D != B.D;
  bool ZF = Unordered || A.D == B.D, CF = Unordered || A.D < B.D;
  switch (K) {
  case CmpKind::Eq:
    return ZF;
  case CmpKind::Ne:
    return !ZF;
  case CmpKind::LtS:
  case CmpKind::LtU:
    return CF;
  case CmpKind::LeS:
  case CmpKind::LeU:
    return CF || ZF;
  case CmpKind::GtS:
  case CmpKind::GtU:
    return !CF && !ZF;
  case CmpKind::GeS:
  case CmpKind::GeU:
    return !CF;
  }
  return false;
}

} // namespace sem
} // namespace core
} // namespace tcc

#endif // TICKC_CORE_SEMANTICS_H
