//===- x86/X86Assembler.h - x86-64 instruction encoder ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch x86-64 instruction encoder. Each emit function writes the
/// binary encoding of one instruction into a caller-provided buffer, in the
/// style of VCODE's per-instruction macros: "most VCODE macros simply perform
/// bit manipulations on their arguments and write the resulting machine
/// instruction to memory" (paper §5.1).
///
/// Conventions: rr/ri/rm/mr suffixes name the operand forms; 32/64 suffixes
/// name the operation width. Memory operands are [Base + Disp32].
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_X86_X86ASSEMBLER_H
#define TICKC_X86_X86ASSEMBLER_H

#include "support/Reloc.h"
#include "x86/X86Registers.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tcc {
namespace x86 {

/// Encodes x86-64 instructions directly into a byte buffer. Every write is
/// checked against the capacity, in every build: one compare and a branch
/// to a cold path that stops the process with a "code buffer overflow"
/// fatal error rather than write past the buffer. Callers size regions
/// generously and verify with capacityLeft() in tests.
class Assembler {
public:
  Assembler(std::uint8_t *Buf, std::size_t Capacity)
      : Buf(Buf), Capacity(Capacity) {}

  /// Current emission offset from the buffer base.
  std::size_t pc() const { return Pos; }
  std::uint8_t *bufferBase() const { return Buf; }
  std::size_t capacityLeft() const { return Capacity - Pos; }

  /// Number of machine instructions emitted so far. This is the denominator
  /// of the paper's "cycles per generated instruction" metric (Table 1,
  /// Figures 6 and 7).
  unsigned instructionsEmitted() const { return NumInstrs; }

  // --- Relocation recording (persistent code cache) -----------------------
  /// Attach an external-reference side table. Null (the default) keeps
  /// recording disabled; recording never changes the emitted bytes.
  void setRelocTable(support::RelocTable *T) { Relocs = T; }

  /// Declare that the *next* 64-bit immediate emitted is an external
  /// address of kind \p K. movRI64 records the imm64's offset into the
  /// attached table and clears the arming. Callers that discover the armed
  /// value took a non-imm64 encoding must call disarmReloc() instead.
  void armReloc(support::RelocKind K) {
    if (Relocs)
      PendingReloc = K;
  }

  /// Cancel an armed relocation because the pointer escaped the imm64
  /// form (imm32/xor folding). The emitted bytes then embed an address
  /// the loader cannot re-point, so the whole compile is marked
  /// unportable — excluded from snapshots, never mis-patched.
  void disarmReloc() {
    if (Relocs && PendingReloc != support::RelocKind::None) {
      Relocs->Unportable = true;
      PendingReloc = support::RelocKind::None;
    }
  }

  // --- Raw emission -------------------------------------------------------
  void byte(std::uint8_t B) {
    if (Pos >= Capacity) [[unlikely]]
      overflow();
    Buf[Pos++] = B;
  }
  void word32(std::uint32_t W) {
    if (Capacity - Pos < 4) [[unlikely]]
      overflow();
    std::memcpy(Buf + Pos, &W, 4);
    Pos += 4;
  }
  void word64(std::uint64_t W) {
    if (Capacity - Pos < 8) [[unlikely]]
      overflow();
    std::memcpy(Buf + Pos, &W, 8);
    Pos += 8;
  }
  /// Overwrites a previously emitted 32-bit field (branch back-patching).
  void patch32(std::size_t At, std::uint32_t W) {
    assert(At + 4 <= Pos && "patch outside emitted code");
    std::memcpy(Buf + At, &W, 4);
  }
  /// Overwrites \p Len already-emitted bytes at \p At with NOPs — used to
  /// erase callee-save stores of registers a function never touched.
  void nopFill(std::size_t At, std::size_t Len) {
    assert(At + Len <= Pos && "nop fill outside emitted code");
    static const std::uint8_t Nop4[4] = {0x0F, 0x1F, 0x40, 0x00};
    while (Len >= 4) {
      std::memcpy(Buf + At, Nop4, 4);
      At += 4;
      Len -= 4;
    }
    while (Len--)
      Buf[At++] = 0x90;
  }
  std::uint32_t read32(std::size_t At) const {
    std::uint32_t W;
    std::memcpy(&W, Buf + At, 4);
    return W;
  }

  // --- Moves --------------------------------------------------------------
  void movRR32(GPR Dst, GPR Src);
  void movRR64(GPR Dst, GPR Src);
  void movRI32(GPR Dst, std::uint32_t Imm); ///< Zero-extends into the 64-bit reg.
  void movRI64(GPR Dst, std::uint64_t Imm); ///< movabs.
  /// mov Dst, imm32 sign-extended to 64 bits.
  void movRI64SExt32(GPR Dst, std::int32_t Imm);

  // --- Loads (Dst <- [Base+Disp]) and stores ([Base+Disp] <- Src) ---------
  void loadRM32(GPR Dst, GPR Base, std::int32_t Disp);
  void loadRM64(GPR Dst, GPR Base, std::int32_t Disp);
  void loadSExt8(GPR Dst, GPR Base, std::int32_t Disp);  ///< movsx r32, m8
  void loadZExt8(GPR Dst, GPR Base, std::int32_t Disp);  ///< movzx r32, m8
  void loadSExt16(GPR Dst, GPR Base, std::int32_t Disp); ///< movsx r32, m16
  void loadZExt16(GPR Dst, GPR Base, std::int32_t Disp); ///< movzx r32, m16
  void storeMR8(GPR Base, std::int32_t Disp, GPR Src);
  void storeMR16(GPR Base, std::int32_t Disp, GPR Src);
  void storeMR32(GPR Base, std::int32_t Disp, GPR Src);
  void storeMR64(GPR Base, std::int32_t Disp, GPR Src);
  void lea(GPR Dst, GPR Base, std::int32_t Disp);
  /// lock inc qword [Base+Disp] — the atomic invocation-counter bump the
  /// profiling prologue plants (observability/Profile.h).
  void lockIncM64(GPR Base, std::int32_t Disp);

  // --- Integer ALU --------------------------------------------------------
  void addRR32(GPR Dst, GPR Src);
  void addRR64(GPR Dst, GPR Src);
  void subRR32(GPR Dst, GPR Src);
  void subRR64(GPR Dst, GPR Src);
  void andRR32(GPR Dst, GPR Src);
  void orRR32(GPR Dst, GPR Src);
  void xorRR32(GPR Dst, GPR Src);
  void cmpRR32(GPR A, GPR B);
  void cmpRR64(GPR A, GPR B);
  void testRR32(GPR A, GPR B);

  void addRI32(GPR Dst, std::int32_t Imm);
  void addRI64(GPR Dst, std::int32_t Imm);
  void subRI32(GPR Dst, std::int32_t Imm);
  void andRI32(GPR Dst, std::int32_t Imm);
  void orRI32(GPR Dst, std::int32_t Imm);
  void xorRI32(GPR Dst, std::int32_t Imm);
  void cmpRI32(GPR A, std::int32_t Imm);

  void imulRR32(GPR Dst, GPR Src); ///< Dst *= Src.
  void imulRR64(GPR Dst, GPR Src);
  void imulRRI32(GPR Dst, GPR Src, std::int32_t Imm); ///< Dst = Src * Imm.
  void imulRRI64(GPR Dst, GPR Src, std::int32_t Imm);
  void negR32(GPR R);
  void notR32(GPR R);

  /// Sign-extend EAX into EDX:EAX then divide by R (32-bit signed).
  /// Quotient in EAX, remainder in EDX.
  void cdq() {
    ++NumInstrs;
    byte(0x99);
  }
  void idivR32(GPR R);
  void divR32(GPR R); ///< Unsigned; caller zeroes EDX.

  // --- Shifts -------------------------------------------------------------
  void shlCl32(GPR R);
  void shrCl32(GPR R);
  void sarCl32(GPR R);
  void shlRI32(GPR R, std::uint8_t Imm);
  void shlRI64(GPR R, std::uint8_t Imm);
  void shrRI32(GPR R, std::uint8_t Imm);
  void sarRI32(GPR R, std::uint8_t Imm);
  void sarRI64(GPR R, std::uint8_t Imm);

  // --- Widening / conversions ---------------------------------------------
  void movsxd(GPR Dst, GPR Src);   ///< r64 <- sign-extended r32.
  void movzx8RR(GPR Dst, GPR Src); ///< r32 <- zero-extended r8.

  // --- Conditions and branches --------------------------------------------
  void setcc(Cond C, GPR Dst); ///< Dst's low byte = condition; caller zexts.
  /// Emits jcc rel32 with a zero displacement; returns the offset of the
  /// 4-byte displacement field for later patch32().
  std::size_t jcc(Cond C);
  /// Emits jmp rel32 with a zero displacement; returns displacement offset.
  std::size_t jmp();
  /// Patches a jcc/jmp displacement so the branch lands at \p Target (a pc()).
  void patchBranch(std::size_t DispOffset, std::size_t Target) {
    patch32(DispOffset,
            static_cast<std::uint32_t>(static_cast<std::int64_t>(Target) -
                                       static_cast<std::int64_t>(DispOffset) -
                                       4));
  }
  /// Direct branch to an already-known target.
  void jmpTo(std::size_t Target) { patchBranch(jmp(), Target); }
  void jccTo(Cond C, std::size_t Target) { patchBranch(jcc(C), Target); }
  void callR(GPR R); ///< call *R
  void ret() {
    ++NumInstrs;
    byte(0xC3);
  }
  void nop() {
    ++NumInstrs;
    byte(0x90);
  }
  void ud2() {
    ++NumInstrs;
    byte(0x0F);
    byte(0x0B);
  }

  // --- Stack --------------------------------------------------------------
  void push(GPR R);
  void pop(GPR R);
  /// Emits `sub Dst, imm32` in the fixed-width (non-shortened) encoding and
  /// returns the offset of the immediate for later patch32() — used for
  /// frame sizes that are unknown until one-pass emission finishes.
  std::size_t subRI64Patchable(GPR Dst) {
    rex(true, false, false, Dst >= 8);
    byte(0x81);
    modrmRR(5, Dst);
    std::size_t At = pc();
    word32(0);
    return At;
  }

  // --- Scalar double (SSE2) -----------------------------------------------
  void movsdRR(XMM Dst, XMM Src);
  void movsdRM(XMM Dst, GPR Base, std::int32_t Disp);
  void movsdMR(GPR Base, std::int32_t Disp, XMM Src);
  void addsd(XMM Dst, XMM Src);
  void subsd(XMM Dst, XMM Src);
  void mulsd(XMM Dst, XMM Src);
  void divsd(XMM Dst, XMM Src);
  void sqrtsd(XMM Dst, XMM Src);
  void ucomisd(XMM A, XMM B);
  void xorpd(XMM Dst, XMM Src);
  void cvtsi2sd32(XMM Dst, GPR Src);
  void cvtsi2sd64(XMM Dst, GPR Src);
  void cvttsd2si32(GPR Dst, XMM Src);
  void cvttsd2si64(GPR Dst, XMM Src);
  void movqXR(XMM Dst, GPR Src); ///< Raw bit move GPR -> XMM.
  void movqRX(GPR Dst, XMM Src); ///< Raw bit move XMM -> GPR.

private:
  /// The one exit of a write that does not fit: a fatal error.
  [[noreturn, gnu::cold, gnu::noinline]] static void overflow();

  /// Record an armed 64-bit immediate at buffer offset \p ImmOff. No-op
  /// unless a kind is armed and a table is attached.
  void captureReloc64(std::size_t ImmOff, std::uint64_t V) {
    if (!Relocs || PendingReloc == support::RelocKind::None)
      return;
    Relocs->Entries.push_back(
        {static_cast<std::uint32_t>(ImmOff), PendingReloc, V});
    PendingReloc = support::RelocKind::None;
  }

  void rex(bool W, bool R, bool X, bool B) {
    byte(0x40 | (W << 3) | (R << 2) | (X << 1) | static_cast<int>(B));
  }
  /// Emits REX if any condition requires it (used for 32-bit forms).
  void rexOpt(bool W, std::uint8_t Reg, std::uint8_t Rm) {
    if (W || Reg >= 8 || Rm >= 8)
      rex(W, Reg >= 8, false, Rm >= 8);
  }
  /// REX for byte-register operations; SPL/BPL/SIL/DIL need a REX prefix.
  void rexByteOp(std::uint8_t Reg, std::uint8_t Rm) {
    if (Reg >= 4 || Rm >= 4)
      rex(false, Reg >= 8, false, Rm >= 8);
  }
  // Every ModRM-bearing instruction flows through exactly one of modrmRR /
  // modrmMem, so the instruction counter lives there; the handful of
  // ModRM-less encodings (mov reg,imm; push/pop; jmp/jcc rel32; ret; ...)
  // bump it explicitly.
  void modrmRR(std::uint8_t Reg, std::uint8_t Rm) {
    ++NumInstrs;
    byte(0xC0 | ((Reg & 7) << 3) | (Rm & 7));
  }
  /// ModRM (+SIB +disp) for a [Base+Disp] memory operand.
  void modrmMem(std::uint8_t Reg, GPR Base, std::int32_t Disp);
  /// Emits an ALU reg<-rm instruction: [REX] Op /r.
  void aluRR(bool W, std::uint8_t Op, GPR Dst, GPR Src) {
    rexOpt(W, Dst, Src);
    byte(Op);
    modrmRR(Dst, Src);
  }
  /// Emits 81 /Digit imm32 with optional REX.W.
  void aluRI(bool W, std::uint8_t Digit, GPR Dst, std::int32_t Imm);
  /// Emits F7 /Digit (unary group) with optional REX.W.
  void unaryR(bool W, std::uint8_t Digit, GPR R) {
    rexOpt(W, 0, R);
    byte(0xF7);
    modrmRR(Digit, R);
  }
  /// Emits D3/C1 shift-group with optional REX.W.
  void shiftCl(bool W, std::uint8_t Digit, GPR R) {
    rexOpt(W, 0, R);
    byte(0xD3);
    modrmRR(Digit, R);
  }
  void shiftRI(bool W, std::uint8_t Digit, GPR R, std::uint8_t Imm) {
    rexOpt(W, 0, R);
    byte(0xC1);
    modrmRR(Digit, R);
    byte(Imm);
  }
  /// SSE op with F2/66 prefix: Pfx [REX] 0F Op /r (register form).
  void sseRR(std::uint8_t Pfx, std::uint8_t Op, std::uint8_t Reg,
             std::uint8_t Rm, bool W = false) {
    byte(Pfx);
    if (W || Reg >= 8 || Rm >= 8)
      rex(W, Reg >= 8, false, Rm >= 8);
    byte(0x0F);
    byte(Op);
    modrmRR(Reg, Rm);
  }

  std::uint8_t *Buf;
  std::size_t Capacity;
  std::size_t Pos = 0;
  unsigned NumInstrs = 0;
  support::RelocTable *Relocs = nullptr;
  support::RelocKind PendingReloc = support::RelocKind::None;
};

} // namespace x86
} // namespace tcc

#endif // TICKC_X86_X86ASSEMBLER_H
