//===- x86/X86Decoder.h - Strict decoder for Assembler output --*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately narrow x86-64 decoder covering exactly the encodings
/// x86::Assembler can produce — the read half of machine-code admission
/// (src/verify). It is strict on purpose: any byte sequence the Assembler
/// would not emit, including architecturally valid but non-canonical
/// variants (a longer-than-needed displacement, a redundant REX prefix, a
/// RIP-relative operand), is a decode error. That strictness is what gives
/// the mutation self-test its teeth: almost any flipped bit lands outside
/// the canonical encoding set and is rejected at the decode layer before
/// the structural checks even run.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_X86_X86DECODER_H
#define TICKC_X86_X86DECODER_H

#include <cstddef>
#include <cstdint>

namespace tcc {
namespace x86 {

/// One entry per distinct encoding shape the Assembler emits. Width is
/// carried by Decoded::RexW, the operation by Decoded::Op8/Reg where a
/// group shares an opcode byte.
enum class InstrClass : std::uint8_t {
  Push,       ///< 50+r
  Pop,        ///< 58+r
  Ret,        ///< C3
  Nop,        ///< 90, or the canonical 4-byte 0F 1F 40 00
  Ud2,        ///< 0F 0B
  MovRR,      ///< 8B /r (register form)
  MovImm32,   ///< B8+r imm32
  MovImm64,   ///< REX.W B8+r imm64 (movabs)
  MovImmSExt, ///< REX.W C7 /0 imm32
  Load,       ///< 8B /r [Base+Disp] (32- or 64-bit by REX.W)
  LoadSExt8,  ///< 0F BE /r mem
  LoadZExt8,  ///< 0F B6 /r mem
  LoadSExt16, ///< 0F BF /r mem
  LoadZExt16, ///< 0F B7 /r mem
  Store8,     ///< 88 /r mem
  Store16,    ///< 66 89 /r mem
  Store32,    ///< 89 /r mem
  Store64,    ///< REX.W 89 /r mem
  Lea,        ///< REX.W 8D /r mem
  LockInc,    ///< F0 REX.W FF /0 mem
  AluRR,      ///< 03/2B/23/0B/33/3B /r (register form); Op8 disambiguates
  TestRR,     ///< 85 /r (register form)
  AluRI,      ///< 83//81 /digit imm; Reg field is the group digit
  ImulRR,     ///< 0F AF /r
  ImulRRI,    ///< 69 /r imm32
  UnaryGrp,   ///< F7 /digit (not/neg/div/idiv)
  Cdq,        ///< 99 (cqo when RexW)
  ShiftCl,    ///< D3 /digit
  ShiftImm,   ///< C1 /digit imm8
  Movsxd,     ///< REX.W 63 /r
  Movzx8RR,   ///< 0F B6 /r (register form)
  Movsx8RR,   ///< 0F BE /r (register form)
  Movzx16RR,  ///< 0F B7 /r (register form)
  Movsx16RR,  ///< 0F BF /r (register form)
  Setcc,      ///< 0F 90+cc /0 (register form)
  Jcc,        ///< 0F 80+cc rel32
  Jmp,        ///< E9 rel32
  JmpInd,     ///< FF /4 (register form)
  CallInd,    ///< FF /2 (register form)
  SseMov,     ///< 66 0F 28 /r (movapd, register form)
  SseLoad,    ///< F2 0F 10 /r mem (movsd load)
  SseStore,   ///< F2 0F 11 /r mem (movsd store)
  SseArith,   ///< F2 0F 58/5C/59/5E/51 /r; Op8 disambiguates
  SseUcomi,   ///< 66 0F 2E /r
  SseXorpd,   ///< 66 0F 57 /r
  SseCvtSI2SD, ///< F2 [REX.W] 0F 2A /r
  SseCvtSD2SI, ///< F2 [REX.W] 0F 2C /r
  MovqXR,     ///< 66 REX.W 0F 6E /r (GPR -> XMM)
  MovqRX,     ///< 66 REX.W 0F 7E /r (XMM -> GPR)
};

const char *instrClassName(InstrClass C);

/// One decoded instruction. Reg/Rm are REX-extended register numbers; for
/// memory forms Rm is the base register and IsMem is set. For opcode groups
/// the /digit lands in Reg.
struct Decoded {
  InstrClass Cls = InstrClass::Nop;
  std::uint8_t Len = 0;
  bool RexW = false;
  bool HasModRM = false;
  bool IsMem = false;  ///< ModRM mod != 3 (Rm is a base register).
  std::uint8_t Mod = 0;
  std::uint8_t Reg = 0;
  std::uint8_t Rm = 0;
  std::int32_t Disp = 0;   ///< Memory displacement.
  std::int64_t Imm = 0;    ///< imm8/imm32 payload, sign-extended.
  std::uint64_t Imm64 = 0; ///< movabs payload.
  std::int32_t Rel32 = 0;  ///< Branch displacement (Jmp/Jcc).
  std::uint8_t Op8 = 0;    ///< Raw (last) opcode byte.
  std::uint8_t CondCode = 0; ///< Condition nibble (Jcc/Setcc).
};

/// Outcome of decoding one instruction. Truncated means the bytes end
/// inside an instruction whose bytes so far are canonical: a region cut at
/// the wrong length, not a corrupted encoding.
enum class DecodeStatus : std::uint8_t { Ok, Invalid, Truncated };

/// Decodes the instruction at \p Off. Anything x86::Assembler cannot have
/// emitted is Invalid or Truncated, with \p Err (when given) pointing at a
/// static message; \p Out is then left unspecified. Fields an accepted
/// instruction does not use read as zero.
DecodeStatus decodeOne(const std::uint8_t *Code, std::size_t Size,
                       std::size_t Off, Decoded &Out,
                       const char **Err = nullptr);

/// General-purpose registers \p D explicitly writes (REX-extended numbers),
/// filled into \p Out; returns the count (0..2). Implicit stack-pointer
/// adjustment by push/pop and the ABI clobbers of an indirect call are
/// deliberately excluded — they are calling-convention policy, which the
/// admission verifier models itself. Partial writes (setcc's byte, a 32-bit
/// mov's zero-extension) count as writes of the full register.
unsigned decodedGprWrites(const Decoded &D, std::uint8_t Out[2]);

} // namespace x86
} // namespace tcc

#endif // TICKC_X86_X86DECODER_H
