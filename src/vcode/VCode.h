//===- vcode/VCode.h - One-pass dynamic code generation --------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VCODE abstract machine (Engler, PLDI 1996; paper §4.2/§5.1): an
/// idealized load/store RISC interface whose operations emit host binary
/// code immediately, in one pass, with no intermediate representation.
///
/// Register model (paper §5.1): getreg/putreg hand out register designators.
/// Non-negative designators name physical registers from a small pool of
/// callee-saved registers; when the pool is exhausted getreg returns a
/// *negative* designator naming a stack spill slot, and every operation
/// recognizes negative designators and brackets itself with the necessary
/// loads and stores. Clients that know their register pressure can disable
/// this per-instruction checking (setSpillingEnabled(false)), which makes
/// getreg terminate the program instead of spilling — the paper reports
/// roughly a factor of two in code generation speed for this mode.
///
/// A small number of *static* registers are additionally reserved and never
/// handed out by getreg; they are managed at static compile time by the
/// client for expression temporaries whose live ranges do not span cspec
/// composition (§5.1). Static registers are caller-saved and do not survive
/// emitted calls.
///
/// Types: the I suffix denotes 32-bit integer operations, L 64-bit
/// integer/pointer operations, D IEEE double operations.
///
/// The implementation lives in vcode/VCodeT.h, templated over the emitter;
/// VCode is its instantiation over x86::Assembler, compiled once in
/// VCode.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_VCODE_VCODE_H
#define TICKC_VCODE_VCODE_H

#include "vcode/VCodeT.h"

namespace tcc {
namespace vcode {

/// The one-pass encoder-backed VCODE machine (paper §4.2/§5.1).
using VCode = VCodeT<x86::Assembler>;

extern template class VCodeT<x86::Assembler>;

} // namespace vcode
} // namespace tcc

#endif // TICKC_VCODE_VCODE_H
