//===- x86/X86Decoder.cpp - Strict decoder for Assembler output -----------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Decode rules mirror the emit helpers in X86Assembler.cpp one-for-one:
//
//  * rexOpt-encoded forms may carry a REX prefix only when it has a reason
//    (W, an extended reg, or an extended rm) — a do-nothing 0x40 is rejected
//    except for the byte-register forms that genuinely need it (setcc /
//    movzx8 / movsx8 on SPL..DIL).
//  * Memory operands always use a plain base register: SIB only for RSP/R12
//    bases (and then exactly 0x24), never an index, never RIP-relative, and
//    the shortest displacement that works (disp8==0 only for RBP/R13 bases,
//    disp32 never when disp8 would fit).
//  * 0x81-with-imm32 when imm8 would fit is accepted in exactly one place:
//    the patchable frame-reserve `sub rsp, imm32` the prologue uses.
//
// Anything outside these rules is an error even if the CPU would happily
// execute it — the auditor treats "the Assembler could not have written
// this" as proof of corruption.
//
//===----------------------------------------------------------------------===//

#include "x86/X86Decoder.h"

#include <cstring>

namespace tcc {
namespace x86 {

namespace {

/// Helpers that run per decoded byte are force-inlined into decodeOne, so
/// the cursor and the instruction under construction stay in registers and
/// the caller's table entry is written once, at the end.
#define TICKC_DECODE_INLINE [[gnu::always_inline]] inline

struct Cursor {
  const std::uint8_t *P;     // Current read position.
  const std::uint8_t *End;   // One past the region.
  const std::uint8_t *Begin; // Instruction start (for Len).
  const char *Msg = "";
  DecodeStatus St = DecodeStatus::Ok;

  TICKC_DECODE_INLINE bool fail(const char *M) {
    Msg = M;
    St = DecodeStatus::Invalid;
    return false;
  }
  /// The bytes end inside the instruction.
  TICKC_DECODE_INLINE bool truncated(const char *M) {
    Msg = M;
    St = DecodeStatus::Truncated;
    return false;
  }
  TICKC_DECODE_INLINE bool peek(std::uint8_t &B) const {
    if (P >= End)
      return false;
    B = *P;
    return true;
  }
  TICKC_DECODE_INLINE bool take(std::uint8_t &B) {
    if (P >= End)
      return false;
    B = *P++;
    return true;
  }
  TICKC_DECODE_INLINE bool takeI8(std::int64_t &V) {
    std::uint8_t B;
    if (!take(B))
      return false;
    V = static_cast<std::int8_t>(B);
    return true;
  }
  TICKC_DECODE_INLINE bool takeI32(std::int64_t &V) {
    if (End - P < 4)
      return false;
    std::int32_t U;
    std::memcpy(&U, P, 4); // x86-64 hosts only: the bytes are little-endian.
    P += 4;
    V = U;
    return true;
  }
  TICKC_DECODE_INLINE bool takeU64(std::uint64_t &V) {
    if (End - P < 8)
      return false;
    std::memcpy(&V, P, 8);
    P += 8;
    return true;
  }
};

struct Prefixes {
  bool Lock = false;
  bool P66 = false;
  bool PF2 = false;
  bool HasRex = false;
  std::uint8_t Rex = 0;

  bool w() const { return (Rex & 0x08) != 0; }
  bool r() const { return (Rex & 0x04) != 0; }
  bool b() const { return (Rex & 0x01) != 0; }
};

// Condition nibbles condFor() can produce: B/AE/E/NE/BE/A and L/GE/LE/G.
TICKC_DECODE_INLINE bool condAllowed(std::uint8_t Cc) {
  switch (Cc) {
  case 0x2: case 0x3: case 0x4: case 0x5: case 0x6: case 0x7:
  case 0xC: case 0xD: case 0xE: case 0xF:
    return true;
  default:
    return false;
  }
}

/// Parses the strictly ordered prefix run: [F0] [66|F2] [REX].
TICKC_DECODE_INLINE bool readPrefixes(Cursor &C, Prefixes &P) {
  std::uint8_t B;
  if (!C.peek(B))
    return C.truncated("truncated instruction");
  if (B == 0xF0) {
    P.Lock = true;
    ++C.P;
    if (!C.peek(B))
      return C.truncated("truncated after lock prefix");
  }
  if (B == 0x66 || B == 0xF2) {
    (B == 0x66 ? P.P66 : P.PF2) = true;
    ++C.P;
    if (!C.peek(B))
      return C.truncated("truncated after operand prefix");
    if (B == 0x66 || B == 0xF2)
      return C.fail("duplicate operand-size prefix");
  }
  if ((B & 0xF0) == 0x40) {
    if (B & 0x02)
      return C.fail("REX.X set (Assembler never uses an index register)");
    P.HasRex = true;
    P.Rex = B;
    ++C.P;
  }
  return true;
}

/// Canonicality for rexOpt()-emitted forms: a REX prefix must be earning
/// its keep.
TICKC_DECODE_INLINE bool rexOptOk(const Prefixes &P) {
  return !P.HasRex || P.w() || P.r() || P.b();
}

/// Canonicality for rexByteOp()-emitted forms (setcc/movzx8/movsx8 register
/// operands): REX present exactly when a register number >= 4 is involved,
/// never with W.
TICKC_DECODE_INLINE bool rexByteOk(const Prefixes &P, std::uint8_t ExtReg,
                                   std::uint8_t ExtRm) {
  if (!P.HasRex)
    return ExtReg < 4 && ExtRm < 4;
  return !P.w() && (ExtReg >= 4 || ExtRm >= 4);
}

/// Decodes a ModRM byte plus displacement with the Assembler's exact
/// canonical-form rules. On success fills Out.Mod/Reg/Rm/IsMem/Disp.
TICKC_DECODE_INLINE bool readModRM(Cursor &C, const Prefixes &P,
                                   Decoded &Out) {
  std::uint8_t M;
  if (!C.take(M))
    return C.truncated("truncated at ModRM");
  Out.HasModRM = true;
  Out.Mod = static_cast<std::uint8_t>(M >> 6);
  std::uint8_t RegLo = (M >> 3) & 7;
  std::uint8_t RmLo = M & 7;
  Out.Reg = static_cast<std::uint8_t>(RegLo | (P.r() ? 8 : 0));
  Out.Rm = static_cast<std::uint8_t>(RmLo | (P.b() ? 8 : 0));
  if (Out.Mod == 3)
    return true;
  Out.IsMem = true;
  if (RmLo == 4) {
    std::uint8_t Sib;
    if (!C.take(Sib))
      return C.truncated("truncated at SIB");
    if (Sib != 0x24)
      return C.fail("non-canonical SIB (Assembler only emits 0x24)");
  }
  switch (Out.Mod) {
  case 0:
    if (RmLo == 5)
      return C.fail("RIP-relative operand (Assembler never emits one)");
    return true;
  case 1: {
    std::int64_t D;
    if (!C.takeI8(D))
      return C.truncated("truncated at disp8");
    if (D == 0 && RmLo != 5)
      return C.fail("non-canonical disp8 of zero");
    Out.Disp = static_cast<std::int32_t>(D);
    return true;
  }
  default: {
    std::int64_t D;
    if (!C.takeI32(D))
      return C.truncated("truncated at disp32");
    if (D >= -128 && D <= 127)
      return C.fail("non-canonical disp32 (disp8 would fit)");
    Out.Disp = static_cast<std::int32_t>(D);
    return true;
  }
  }
}

TICKC_DECODE_INLINE bool finish(Cursor &C, Decoded &Out, InstrClass Cls) {
  Out.Cls = Cls;
  Out.Len = static_cast<std::uint8_t>(C.P - C.Begin);
  return true;
}

/// Instructions behind the 0F escape byte.
TICKC_DECODE_INLINE bool decodeTwoByte(Cursor &C, Prefixes &P,
                                       Decoded &Out) {
  std::uint8_t Op;
  if (!C.take(Op))
    return C.truncated("truncated after 0F escape");
  Out.Op8 = Op;
  Out.RexW = P.w();

  // --- 66-prefixed SSE / integer forms ---------------------------------
  if (P.P66) {
    switch (Op) {
    case 0x28: // movapd xmm, xmm
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || P.w() || !rexOptOk(P))
        return C.fail("non-canonical movapd");
      return finish(C, Out, InstrClass::SseMov);
    case 0x2E: // ucomisd
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || P.w() || !rexOptOk(P))
        return C.fail("non-canonical ucomisd");
      return finish(C, Out, InstrClass::SseUcomi);
    case 0x57: // xorpd
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || P.w() || !rexOptOk(P))
        return C.fail("non-canonical xorpd");
      return finish(C, Out, InstrClass::SseXorpd);
    case 0x6E: // movq xmm, r64
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || !P.w())
        return C.fail("non-canonical movq (GPR to XMM requires REX.W)");
      return finish(C, Out, InstrClass::MovqXR);
    case 0x7E: // movq r64, xmm
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || !P.w())
        return C.fail("non-canonical movq (XMM to GPR requires REX.W)");
      return finish(C, Out, InstrClass::MovqRX);
    default:
      return C.fail("unknown 66 0F opcode");
    }
  }

  // --- F2-prefixed scalar-double forms ---------------------------------
  if (P.PF2) {
    switch (Op) {
    case 0x10: // movsd xmm, mem
    case 0x11: // movsd mem, xmm
      if (!readModRM(C, P, Out))
        return false;
      if (!Out.IsMem || P.w() || !rexOptOk(P))
        return C.fail("non-canonical movsd (register form never emitted)");
      return finish(C, Out,
                    Op == 0x10 ? InstrClass::SseLoad : InstrClass::SseStore);
    case 0x58: case 0x5C: case 0x59: case 0x5E: case 0x51:
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || P.w() || !rexOptOk(P))
        return C.fail("non-canonical SSE arithmetic");
      return finish(C, Out, InstrClass::SseArith);
    case 0x2A: // cvtsi2sd
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || !rexOptOk(P))
        return C.fail("non-canonical cvtsi2sd");
      return finish(C, Out, InstrClass::SseCvtSI2SD);
    case 0x2C: // cvttsd2si
      if (!readModRM(C, P, Out))
        return false;
      if (Out.IsMem || !rexOptOk(P))
        return C.fail("non-canonical cvttsd2si");
      return finish(C, Out, InstrClass::SseCvtSD2SI);
    default:
      return C.fail("unknown F2 0F opcode");
    }
  }

  // --- Unprefixed 0F forms ---------------------------------------------
  switch (Op) {
  case 0x0B: // ud2
    if (P.HasRex)
      return C.fail("prefixed ud2");
    return finish(C, Out, InstrClass::Ud2);
  case 0x1F: { // canonical 4-byte nop: 0F 1F 40 00
    if (P.HasRex)
      return C.fail("prefixed multi-byte nop");
    std::uint8_t M, D;
    if (!C.take(M) || !C.take(D))
      return C.truncated("truncated multi-byte nop");
    if (M != 0x40 || D != 0x00)
      return C.fail("non-canonical multi-byte nop");
    return finish(C, Out, InstrClass::Nop);
  }
  case 0xAF: // imul r, r
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !rexOptOk(P))
      return C.fail("non-canonical imul");
    return finish(C, Out, InstrClass::ImulRR);
  case 0xB6: case 0xBE: case 0xB7: case 0xBF: {
    // movzx/movsx, 8- and 16-bit source; both register and memory forms.
    if (!readModRM(C, P, Out))
      return false;
    bool Byte = (Op == 0xB6 || Op == 0xBE);
    if (Out.IsMem) {
      if (!rexOptOk(P))
        return C.fail("non-canonical widening load");
      switch (Op) {
      case 0xB6: return finish(C, Out, InstrClass::LoadZExt8);
      case 0xBE: return finish(C, Out, InstrClass::LoadSExt8);
      case 0xB7: return finish(C, Out, InstrClass::LoadZExt16);
      default:   return finish(C, Out, InstrClass::LoadSExt16);
      }
    }
    if (Byte) {
      if (!rexByteOk(P, Out.Reg, Out.Rm))
        return C.fail("non-canonical byte-register movzx/movsx");
      return finish(C, Out,
                    Op == 0xB6 ? InstrClass::Movzx8RR : InstrClass::Movsx8RR);
    }
    if (!rexOptOk(P))
      return C.fail("non-canonical movzx/movsx");
    return finish(C, Out,
                  Op == 0xB7 ? InstrClass::Movzx16RR : InstrClass::Movsx16RR);
  }
  default:
    break;
  }
  if (Op >= 0x80 && Op <= 0x8F) { // jcc rel32
    if (P.HasRex)
      return C.fail("prefixed jcc");
    Out.CondCode = static_cast<std::uint8_t>(Op & 0x0F);
    if (!condAllowed(Out.CondCode))
      return C.fail("condition code the back end never generates");
    std::int64_t R;
    if (!C.takeI32(R))
      return C.truncated("truncated jcc displacement");
    Out.Rel32 = static_cast<std::int32_t>(R);
    return finish(C, Out, InstrClass::Jcc);
  }
  if (Op >= 0x90 && Op <= 0x9F) { // setcc r8
    Out.CondCode = static_cast<std::uint8_t>(Op & 0x0F);
    if (!condAllowed(Out.CondCode))
      return C.fail("condition code the back end never generates");
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || (Out.Reg & 7) != 0)
      return C.fail("non-canonical setcc");
    if (!rexByteOk(P, 0, Out.Rm))
      return C.fail("non-canonical setcc REX");
    return finish(C, Out, InstrClass::Setcc);
  }
  return C.fail("unknown 0F opcode");
}

/// One instruction into \p Out, which must arrive zero-initialized.
TICKC_DECODE_INLINE bool decodeInto(Cursor &C, Decoded &Out) {
  Prefixes P;
  if (!readPrefixes(C, P))
    return false;

  std::uint8_t Op;
  if (!C.take(Op))
    return C.truncated("truncated at opcode");
  Out.Op8 = Op;
  Out.RexW = P.w();

  // Lock is only ever paired with the profile counter's `lock inc qword`.
  if (P.Lock) {
    if (Op != 0xFF || !P.w() || P.P66 || P.PF2)
      return C.fail("lock prefix outside `lock inc qword ptr`");
    if (!readModRM(C, P, Out))
      return false;
    if (!Out.IsMem || (Out.Reg & 7) != 0)
      return C.fail("locked FF with a non-inc digit");
    return finish(C, Out, InstrClass::LockInc);
  }
  if (Op == 0x0F) {
    if (P.P66 && P.HasRex && !P.w() && !P.r() && !P.b())
      return C.fail("pointless REX on SSE instruction");
    return decodeTwoByte(C, P, Out);
  }
  if (P.PF2)
    return C.fail("F2 prefix on a non-0F opcode");
  if (P.P66) {
    // The only 66-prefixed non-0F form is the 16-bit store.
    if (Op != 0x89)
      return C.fail("66 prefix on an opcode the Assembler never combines");
    if (!readModRM(C, P, Out))
      return false;
    if (!Out.IsMem || P.w() || !rexOptOk(P))
      return C.fail("non-canonical 16-bit store");
    return finish(C, Out, InstrClass::Store16);
  }

  if (Op >= 0x50 && Op <= 0x57) { // push r64
    if (P.HasRex && P.Rex != 0x41)
      return C.fail("non-canonical push REX");
    Out.Rm = static_cast<std::uint8_t>((Op - 0x50) | (P.b() ? 8 : 0));
    return finish(C, Out, InstrClass::Push);
  }
  if (Op >= 0x58 && Op <= 0x5F) { // pop r64
    if (P.HasRex && P.Rex != 0x41)
      return C.fail("non-canonical pop REX");
    Out.Rm = static_cast<std::uint8_t>((Op - 0x58) | (P.b() ? 8 : 0));
    return finish(C, Out, InstrClass::Pop);
  }
  if (Op >= 0xB8 && Op <= 0xBF) { // mov r, imm
    Out.Rm = static_cast<std::uint8_t>((Op - 0xB8) | (P.b() ? 8 : 0));
    if (P.w()) {
      if (P.r())
        return C.fail("non-canonical movabs REX");
      if (!C.takeU64(Out.Imm64))
        return C.truncated("truncated movabs immediate");
      return finish(C, Out, InstrClass::MovImm64);
    }
    if (P.HasRex && P.Rex != 0x41)
      return C.fail("non-canonical mov-imm32 REX");
    std::int64_t V;
    if (!C.takeI32(V))
      return C.truncated("truncated mov immediate");
    Out.Imm = V;
    return finish(C, Out, InstrClass::MovImm32);
  }

  switch (Op) {
  case 0xC3: // ret
    if (P.HasRex)
      return C.fail("prefixed ret");
    return finish(C, Out, InstrClass::Ret);
  case 0x90: // nop
    if (P.HasRex)
      return C.fail("prefixed nop");
    return finish(C, Out, InstrClass::Nop);
  case 0x99: // cdq / cqo
    if (P.HasRex && P.Rex != 0x48)
      return C.fail("non-canonical cqo REX");
    return finish(C, Out, InstrClass::Cdq);
  case 0xE9: { // jmp rel32
    if (P.HasRex)
      return C.fail("prefixed jmp");
    std::int64_t R;
    if (!C.takeI32(R))
      return C.truncated("truncated jmp displacement");
    Out.Rel32 = static_cast<std::int32_t>(R);
    return finish(C, Out, InstrClass::Jmp);
  }
  case 0x8B: // mov r, r/m
    if (!readModRM(C, P, Out))
      return false;
    if (!rexOptOk(P))
      return C.fail("non-canonical mov REX");
    return finish(C, Out, Out.IsMem ? InstrClass::Load : InstrClass::MovRR);
  case 0x89: // mov m, r (32/64-bit store)
    if (!readModRM(C, P, Out))
      return false;
    if (!Out.IsMem || !rexOptOk(P))
      return C.fail("non-canonical register-form 89 mov");
    return finish(C, Out,
                  P.w() ? InstrClass::Store64 : InstrClass::Store32);
  case 0x88: // mov m8, r8
    if (!readModRM(C, P, Out))
      return false;
    if (!Out.IsMem)
      return C.fail("register-form byte mov never emitted");
    if (P.HasRex && (P.w() || !(Out.Reg >= 4 || P.b())))
      return C.fail("non-canonical byte-store REX");
    return finish(C, Out, InstrClass::Store8);
  case 0x8D: // lea r64, m
    if (!readModRM(C, P, Out))
      return false;
    if (!Out.IsMem || !P.w())
      return C.fail("non-canonical lea");
    return finish(C, Out, InstrClass::Lea);
  case 0x03: case 0x2B: case 0x23: case 0x0B: case 0x33: case 0x3B:
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !rexOptOk(P))
      return C.fail("memory-operand ALU form never emitted");
    return finish(C, Out, InstrClass::AluRR);
  case 0x85: // test r, r
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !rexOptOk(P))
      return C.fail("non-canonical test");
    return finish(C, Out, InstrClass::TestRR);
  case 0x83: case 0x81: { // ALU r, imm
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !rexOptOk(P))
      return C.fail("memory-operand ALU-imm form never emitted");
    std::uint8_t Digit = Out.Reg & 7;
    if (Digit == 2 || Digit == 3)
      return C.fail("adc/sbb digit never emitted");
    if (Op == 0x83) {
      if (!C.takeI8(Out.Imm))
        return C.truncated("truncated imm8");
    } else {
      if (!C.takeI32(Out.Imm))
        return C.truncated("truncated imm32");
      if (Out.Imm >= -128 && Out.Imm <= 127) {
        // The only wide-immediate-that-would-fit encoding is the patchable
        // frame reserve: REX.W 81 /5 on RSP.
        if (!(P.w() && Digit == 5 && Out.Rm == 4))
          return C.fail("non-canonical imm32 (imm8 would fit)");
      }
    }
    return finish(C, Out, InstrClass::AluRI);
  }
  case 0xC7: // mov r64, simm32
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !P.w() || (Out.Reg & 7) != 0)
      return C.fail("non-canonical C7 mov");
    if (!C.takeI32(Out.Imm))
      return C.truncated("truncated C7 immediate");
    return finish(C, Out, InstrClass::MovImmSExt);
  case 0x69: // imul r, r, imm32
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !rexOptOk(P))
      return C.fail("non-canonical imul-imm");
    if (!C.takeI32(Out.Imm))
      return C.truncated("truncated imul immediate");
    return finish(C, Out, InstrClass::ImulRRI);
  case 0xF7: { // not/neg/div/idiv
    if (!readModRM(C, P, Out))
      return false;
    std::uint8_t Digit = Out.Reg & 7;
    if (Out.IsMem || !rexOptOk(P) ||
        !(Digit == 2 || Digit == 3 || Digit == 6 || Digit == 7))
      return C.fail("F7 digit the back end never generates");
    return finish(C, Out, InstrClass::UnaryGrp);
  }
  case 0xD3: { // shift by cl
    if (!readModRM(C, P, Out))
      return false;
    std::uint8_t Digit = Out.Reg & 7;
    if (Out.IsMem || !rexOptOk(P) ||
        !(Digit == 4 || Digit == 5 || Digit == 7))
      return C.fail("D3 digit the back end never generates");
    return finish(C, Out, InstrClass::ShiftCl);
  }
  case 0xC1: { // shift by imm8
    if (!readModRM(C, P, Out))
      return false;
    std::uint8_t Digit = Out.Reg & 7;
    if (Out.IsMem || !rexOptOk(P) ||
        !(Digit == 4 || Digit == 5 || Digit == 7))
      return C.fail("C1 digit the back end never generates");
    if (!C.takeI8(Out.Imm))
      return C.truncated("truncated shift immediate");
    if (Out.Imm < 0 || Out.Imm > 63)
      return C.fail("shift count out of range");
    return finish(C, Out, InstrClass::ShiftImm);
  }
  case 0x63: // movsxd
    if (!readModRM(C, P, Out))
      return false;
    if (Out.IsMem || !P.w())
      return C.fail("non-canonical movsxd");
    return finish(C, Out, InstrClass::Movsxd);
  case 0xFF: { // call/jmp indirect
    if (P.HasRex && P.Rex != 0x41)
      return C.fail("non-canonical indirect-branch REX");
    if (!readModRM(C, P, Out))
      return false;
    std::uint8_t Digit = Out.Reg & 7;
    if (Out.IsMem || !(Digit == 2 || Digit == 4))
      return C.fail("FF form the back end never generates");
    return finish(C, Out,
                  Digit == 2 ? InstrClass::CallInd : InstrClass::JmpInd);
  }
  default:
    return C.fail("opcode outside the Assembler's repertoire");
  }
}

} // namespace

DecodeStatus decodeOne(const std::uint8_t *Code, std::size_t Size,
                       std::size_t Off, Decoded &Out, const char **Err) {
  Cursor C{Code + Off, Code + Size, Code + Off};
  Decoded D;
  if (!decodeInto(C, D)) {
    if (Err)
      *Err = C.Msg;
    return C.St;
  }
  // Built in registers, stored into the caller's entry once, field by
  // field: an aggregate copy goes through the stack and reads the
  // piecewise-written fields back with wide loads, which stall on store
  // forwarding.
  static_assert(sizeof(Decoded) == 40, "copy every field of Decoded");
  Out.Cls = D.Cls;
  Out.Len = D.Len;
  Out.RexW = D.RexW;
  Out.HasModRM = D.HasModRM;
  Out.IsMem = D.IsMem;
  Out.Mod = D.Mod;
  Out.Reg = D.Reg;
  Out.Rm = D.Rm;
  Out.Disp = D.Disp;
  Out.Imm = D.Imm;
  Out.Imm64 = D.Imm64;
  Out.Rel32 = D.Rel32;
  Out.Op8 = D.Op8;
  Out.CondCode = D.CondCode;
  return DecodeStatus::Ok;
}

unsigned decodedGprWrites(const Decoded &D, std::uint8_t Out[2]) {
  switch (D.Cls) {
  // ModRM.reg destination.
  case InstrClass::MovRR:
  case InstrClass::Load:
  case InstrClass::LoadSExt8:
  case InstrClass::LoadZExt8:
  case InstrClass::LoadSExt16:
  case InstrClass::LoadZExt16:
  case InstrClass::Lea:
  case InstrClass::ImulRR:
  case InstrClass::ImulRRI:
  case InstrClass::Movsxd:
  case InstrClass::Movzx8RR:
  case InstrClass::Movsx8RR:
  case InstrClass::Movzx16RR:
  case InstrClass::Movsx16RR:
  case InstrClass::SseCvtSD2SI:
    Out[0] = D.Reg;
    return 1;
  case InstrClass::AluRR:
    if (D.Op8 == 0x3B) // cmp writes only flags
      return 0;
    Out[0] = D.Reg;
    return 1;
  // ModRM.rm / +r destination.
  case InstrClass::MovImm32:
  case InstrClass::MovImm64:
  case InstrClass::MovImmSExt:
  case InstrClass::Pop:
  case InstrClass::Setcc:
  case InstrClass::ShiftCl:
  case InstrClass::ShiftImm:
  case InstrClass::MovqRX:
    Out[0] = D.Rm;
    return 1;
  case InstrClass::AluRI:
    if ((D.Reg & 7) == 7) // cmp writes only flags
      return 0;
    Out[0] = D.Rm;
    return 1;
  case InstrClass::UnaryGrp:
    if ((D.Reg & 7) == 2 || (D.Reg & 7) == 3) { // not/neg
      Out[0] = D.Rm;
      return 1;
    }
    Out[0] = 0; // div/idiv write rax:rdx
    Out[1] = 2;
    return 2;
  case InstrClass::Cdq:
    Out[0] = 2; // edx/rdx
    return 1;
  default:
    return 0;
  }
}

const char *instrClassName(InstrClass Cl) {
  switch (Cl) {
  case InstrClass::Push: return "push";
  case InstrClass::Pop: return "pop";
  case InstrClass::Ret: return "ret";
  case InstrClass::Nop: return "nop";
  case InstrClass::Ud2: return "ud2";
  case InstrClass::MovRR: return "mov-rr";
  case InstrClass::MovImm32: return "mov-imm32";
  case InstrClass::MovImm64: return "movabs";
  case InstrClass::MovImmSExt: return "mov-simm32";
  case InstrClass::Load: return "load";
  case InstrClass::LoadSExt8: return "load-s8";
  case InstrClass::LoadZExt8: return "load-z8";
  case InstrClass::LoadSExt16: return "load-s16";
  case InstrClass::LoadZExt16: return "load-z16";
  case InstrClass::Store8: return "store8";
  case InstrClass::Store16: return "store16";
  case InstrClass::Store32: return "store32";
  case InstrClass::Store64: return "store64";
  case InstrClass::Lea: return "lea";
  case InstrClass::LockInc: return "lock-inc";
  case InstrClass::AluRR: return "alu-rr";
  case InstrClass::TestRR: return "test";
  case InstrClass::AluRI: return "alu-ri";
  case InstrClass::ImulRR: return "imul";
  case InstrClass::ImulRRI: return "imul-imm";
  case InstrClass::UnaryGrp: return "unary";
  case InstrClass::Cdq: return "cdq";
  case InstrClass::ShiftCl: return "shift-cl";
  case InstrClass::ShiftImm: return "shift-imm";
  case InstrClass::Movsxd: return "movsxd";
  case InstrClass::Movzx8RR: return "movzx8";
  case InstrClass::Movsx8RR: return "movsx8";
  case InstrClass::Movzx16RR: return "movzx16";
  case InstrClass::Movsx16RR: return "movsx16";
  case InstrClass::Setcc: return "setcc";
  case InstrClass::Jcc: return "jcc";
  case InstrClass::Jmp: return "jmp";
  case InstrClass::JmpInd: return "jmp-ind";
  case InstrClass::CallInd: return "call-ind";
  case InstrClass::SseMov: return "movapd";
  case InstrClass::SseLoad: return "movsd-load";
  case InstrClass::SseStore: return "movsd-store";
  case InstrClass::SseArith: return "sse-arith";
  case InstrClass::SseUcomi: return "ucomisd";
  case InstrClass::SseXorpd: return "xorpd";
  case InstrClass::SseCvtSI2SD: return "cvtsi2sd";
  case InstrClass::SseCvtSD2SI: return "cvttsd2si";
  case InstrClass::MovqXR: return "movq-xr";
  case InstrClass::MovqRX: return "movq-rx";
  }
  return "?";
}

} // namespace x86
} // namespace tcc
