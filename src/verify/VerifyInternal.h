//===- verify/VerifyInternal.h - Shared checker machinery -------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Infrastructure shared by the IR verifier and the allocation auditor: an
/// independent per-opcode operand-signature table, an independent CFG
/// builder, and an exact per-instruction liveness solver. None of this
/// reuses FlowGraph/defsUses from src/icode — the whole point of the
/// subsystem is that the checker's model of the IR is derived separately
/// from the code being checked, so a shared misunderstanding cannot
/// self-certify.
///
/// The verify path stays off the compile hot path: the IR and allocation
/// checks run only when the user has opted in, so they use plain
/// std::vector/std::string rather than the compile path's arena machinery.
/// Admission, which every snapshot load runs, keeps its std::vectors on the
/// thread and reuses them, so a warm admission allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_VERIFY_VERIFYINTERNAL_H
#define TICKC_VERIFY_VERIFYINTERNAL_H

#include "icode/ICode.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tcc {
namespace verify {
namespace detail {

/// Interpretation of one Instr operand field (A, B, or C).
enum class FK : std::uint8_t {
  None,     ///< Must be zero.
  IntDef,   ///< Defined int-class vreg.
  FloatDef, ///< Defined float-class vreg.
  IntUse,   ///< Used int-class vreg.
  FloatUse, ///< Used float-class vreg.
  Imm,      ///< Arbitrary 32-bit immediate.
  ShiftImm, ///< Immediate restricted to 0..63.
  Pool,     ///< Constant-pool index.
  LabelId,  ///< Label id (Label defines it, branches reference it).
  ArgIdx,   ///< Integer argument index.
  FpArgIdx, ///< Float argument index (XMM0..7).
  Slot,     ///< Integer call-argument slot (0..5).
  FpSlot,   ///< Float call-argument slot (0..7).
  NumFp,    ///< Float-argument count of a call (0..8).
  Hint,     ///< Loop-nesting delta; unconstrained.
};

/// Signature of one opcode: how to read A/B/C and whether Sub carries a
/// CmpKind.
struct OpSig {
  FK A = FK::None, B = FK::None, C = FK::None;
  bool Cmp = false;
};

const OpSig &sigFor(icode::Op O);

bool isTerminator(icode::Op O);

/// Label-id operand of a branch (-1 for non-branches). Label's own id is
/// not included.
std::int32_t branchLabel(const icode::Instr &I);

/// Defs/uses extracted from the signature table (independent of
/// ICode::defsUses). Defs buffer >= 1, uses buffer >= 2.
unsigned sigDefs(const icode::Instr &I, icode::VReg *Defs);
unsigned sigUses(const icode::Instr &I, icode::VReg *Uses);

/// Independent control-flow graph over a raw instruction stream. Leaders:
/// instruction 0, every Label, and every instruction following a
/// terminator. Build only after the structural pass validated every label.
struct Cfg {
  struct Block {
    std::int32_t Begin = 0, End = 0; // [Begin, End)
    std::int32_t Succ[2] = {-1, -1};
    unsigned NumSucc = 0;
  };
  std::vector<Block> Blocks;
  std::vector<std::int32_t> BlockOf; // instruction index -> block index

  void build(const icode::Instr *Instrs, std::size_t N,
             const icode::ICode &IC);
};

/// Exact liveness over a Cfg: backward fixpoint with packed bitsets.
struct LiveSets {
  unsigned Words = 0;
  std::vector<std::uint64_t> In, Out; // Blocks.size() * Words each

  std::uint64_t *in(std::size_t B) { return In.data() + B * Words; }
  std::uint64_t *out(std::size_t B) { return Out.data() + B * Words; }

  void solve(const icode::Instr *Instrs, std::size_t N, unsigned NumRegs,
             const Cfg &G);
};

inline bool bitTest(const std::uint64_t *W, std::uint32_t I) {
  return (W[I >> 6] >> (I & 63)) & 1;
}
inline void bitSet(std::uint64_t *W, std::uint32_t I) {
  W[I >> 6] |= std::uint64_t(1) << (I & 63);
}
inline void bitClear(std::uint64_t *W, std::uint32_t I) {
  W[I >> 6] &= ~(std::uint64_t(1) << (I & 63));
}

/// Pretty-prints the instructions around \p Center (for diagnostics).
std::string dumpWindow(const icode::Instr *Instrs, std::size_t N,
                       std::size_t Center);

/// Hex dump of the bytes around \p Off.
std::string hexWindow(const std::uint8_t *Code, std::size_t Size,
                      std::size_t Off);

/// Feeds verify.admit.{blocks,calls}: the shape of one admitted region.
void recordAdmitShape(std::uint64_t Blocks, std::uint64_t Calls);

} // namespace detail
} // namespace verify
} // namespace tcc

#endif // TICKC_VERIFY_VERIFYINTERNAL_H
