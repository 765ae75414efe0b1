//===- x86/X86Assembler.cpp -----------------------------------------------==//

#include "x86/X86Assembler.h"

#include "support/Error.h"

using namespace tcc;
using namespace tcc::x86;

void Assembler::overflow() { reportFatalError("code buffer overflow"); }

void Assembler::modrmMem(std::uint8_t Reg, GPR Base, std::int32_t Disp) {
  ++NumInstrs;
  std::uint8_t Rm = Base & 7;
  bool NeedSib = (Rm == 4); // RSP/R12 bases require a SIB byte.
  // RBP/R13 cannot use the mod=00 no-displacement form.
  bool NeedDisp8 = (Disp != 0 || Rm == 5) && Disp >= -128 && Disp <= 127;
  bool NeedDisp32 = (Disp != 0 || Rm == 5) && !NeedDisp8;
  std::uint8_t Mod = NeedDisp32 ? 2 : (NeedDisp8 ? 1 : 0);
  byte((Mod << 6) | ((Reg & 7) << 3) | Rm);
  if (NeedSib)
    byte(0x24); // scale=0, index=none, base=rsp-class.
  if (NeedDisp8)
    byte(static_cast<std::uint8_t>(Disp));
  else if (NeedDisp32)
    word32(static_cast<std::uint32_t>(Disp));
}

void Assembler::aluRI(bool W, std::uint8_t Digit, GPR Dst, std::int32_t Imm) {
  rexOpt(W, 0, Dst);
  if (Imm >= -128 && Imm <= 127) {
    byte(0x83);
    modrmRR(Digit, Dst);
    byte(static_cast<std::uint8_t>(Imm));
    return;
  }
  byte(0x81);
  modrmRR(Digit, Dst);
  word32(static_cast<std::uint32_t>(Imm));
}

// --- Moves ----------------------------------------------------------------

void Assembler::movRR32(GPR Dst, GPR Src) { aluRR(false, 0x8B, Dst, Src); }
void Assembler::movRR64(GPR Dst, GPR Src) { aluRR(true, 0x8B, Dst, Src); }

void Assembler::movRI32(GPR Dst, std::uint32_t Imm) {
  ++NumInstrs;
  if (Dst >= 8)
    rex(false, false, false, true);
  byte(0xB8 + (Dst & 7));
  word32(Imm);
}

void Assembler::movRI64(GPR Dst, std::uint64_t Imm) {
  ++NumInstrs;
  rex(true, false, false, Dst >= 8);
  byte(0xB8 + (Dst & 7));
  word64(Imm);
  captureReloc64(Pos - 8, Imm);
}

void Assembler::movRI64SExt32(GPR Dst, std::int32_t Imm) {
  rex(true, false, false, Dst >= 8);
  byte(0xC7);
  modrmRR(0, Dst);
  word32(static_cast<std::uint32_t>(Imm));
}

// --- Loads and stores -------------------------------------------------------

void Assembler::loadRM32(GPR Dst, GPR Base, std::int32_t Disp) {
  rexOpt(false, Dst, Base);
  byte(0x8B);
  modrmMem(Dst, Base, Disp);
}

void Assembler::loadRM64(GPR Dst, GPR Base, std::int32_t Disp) {
  rex(true, Dst >= 8, false, Base >= 8);
  byte(0x8B);
  modrmMem(Dst, Base, Disp);
}

void Assembler::loadSExt8(GPR Dst, GPR Base, std::int32_t Disp) {
  rexOpt(false, Dst, Base);
  byte(0x0F);
  byte(0xBE);
  modrmMem(Dst, Base, Disp);
}

void Assembler::loadZExt8(GPR Dst, GPR Base, std::int32_t Disp) {
  rexOpt(false, Dst, Base);
  byte(0x0F);
  byte(0xB6);
  modrmMem(Dst, Base, Disp);
}

void Assembler::loadSExt16(GPR Dst, GPR Base, std::int32_t Disp) {
  rexOpt(false, Dst, Base);
  byte(0x0F);
  byte(0xBF);
  modrmMem(Dst, Base, Disp);
}

void Assembler::loadZExt16(GPR Dst, GPR Base, std::int32_t Disp) {
  rexOpt(false, Dst, Base);
  byte(0x0F);
  byte(0xB7);
  modrmMem(Dst, Base, Disp);
}

void Assembler::storeMR8(GPR Base, std::int32_t Disp, GPR Src) {
  // Byte stores of SPL/BPL/SIL/DIL need a REX prefix even without REX.B/R.
  if (Src >= 4 || Base >= 8)
    rex(false, Src >= 8, false, Base >= 8);
  byte(0x88);
  modrmMem(Src, Base, Disp);
}

void Assembler::storeMR16(GPR Base, std::int32_t Disp, GPR Src) {
  byte(0x66);
  rexOpt(false, Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void Assembler::storeMR32(GPR Base, std::int32_t Disp, GPR Src) {
  rexOpt(false, Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void Assembler::storeMR64(GPR Base, std::int32_t Disp, GPR Src) {
  rex(true, Src >= 8, false, Base >= 8);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void Assembler::lea(GPR Dst, GPR Base, std::int32_t Disp) {
  rex(true, Dst >= 8, false, Base >= 8);
  byte(0x8D);
  modrmMem(Dst, Base, Disp);
}

void Assembler::lockIncM64(GPR Base, std::int32_t Disp) {
  byte(0xF0); // lock
  rex(true, false, false, Base >= 8);
  byte(0xFF);
  modrmMem(0, Base, Disp); // /0 = inc
}

// --- Integer ALU ------------------------------------------------------------

void Assembler::addRR32(GPR Dst, GPR Src) { aluRR(false, 0x03, Dst, Src); }
void Assembler::addRR64(GPR Dst, GPR Src) { aluRR(true, 0x03, Dst, Src); }
void Assembler::subRR32(GPR Dst, GPR Src) { aluRR(false, 0x2B, Dst, Src); }
void Assembler::subRR64(GPR Dst, GPR Src) { aluRR(true, 0x2B, Dst, Src); }
void Assembler::andRR32(GPR Dst, GPR Src) { aluRR(false, 0x23, Dst, Src); }
void Assembler::orRR32(GPR Dst, GPR Src) { aluRR(false, 0x0B, Dst, Src); }
void Assembler::xorRR32(GPR Dst, GPR Src) { aluRR(false, 0x33, Dst, Src); }
void Assembler::cmpRR32(GPR A, GPR B) { aluRR(false, 0x3B, A, B); }
void Assembler::cmpRR64(GPR A, GPR B) { aluRR(true, 0x3B, A, B); }

void Assembler::testRR32(GPR A, GPR B) {
  rexOpt(false, B, A);
  byte(0x85);
  modrmRR(B, A);
}

void Assembler::addRI32(GPR Dst, std::int32_t Imm) { aluRI(false, 0, Dst, Imm); }
void Assembler::addRI64(GPR Dst, std::int32_t Imm) { aluRI(true, 0, Dst, Imm); }
void Assembler::subRI32(GPR Dst, std::int32_t Imm) { aluRI(false, 5, Dst, Imm); }
void Assembler::andRI32(GPR Dst, std::int32_t Imm) { aluRI(false, 4, Dst, Imm); }
void Assembler::orRI32(GPR Dst, std::int32_t Imm) { aluRI(false, 1, Dst, Imm); }
void Assembler::xorRI32(GPR Dst, std::int32_t Imm) { aluRI(false, 6, Dst, Imm); }
void Assembler::cmpRI32(GPR A, std::int32_t Imm) { aluRI(false, 7, A, Imm); }

void Assembler::imulRR32(GPR Dst, GPR Src) {
  rexOpt(false, Dst, Src);
  byte(0x0F);
  byte(0xAF);
  modrmRR(Dst, Src);
}
void Assembler::imulRR64(GPR Dst, GPR Src) {
  rex(true, Dst >= 8, false, Src >= 8);
  byte(0x0F);
  byte(0xAF);
  modrmRR(Dst, Src);
}
void Assembler::imulRRI32(GPR Dst, GPR Src, std::int32_t Imm) {
  rexOpt(false, Dst, Src);
  byte(0x69);
  modrmRR(Dst, Src);
  word32(static_cast<std::uint32_t>(Imm));
}
void Assembler::imulRRI64(GPR Dst, GPR Src, std::int32_t Imm) {
  rex(true, Dst >= 8, false, Src >= 8);
  byte(0x69);
  modrmRR(Dst, Src);
  word32(static_cast<std::uint32_t>(Imm));
}

void Assembler::negR32(GPR R) { unaryR(false, 3, R); }
void Assembler::notR32(GPR R) { unaryR(false, 2, R); }
void Assembler::idivR32(GPR R) { unaryR(false, 7, R); }
void Assembler::divR32(GPR R) { unaryR(false, 6, R); }

// --- Shifts -----------------------------------------------------------------

void Assembler::shlCl32(GPR R) { shiftCl(false, 4, R); }
void Assembler::shrCl32(GPR R) { shiftCl(false, 5, R); }
void Assembler::sarCl32(GPR R) { shiftCl(false, 7, R); }
void Assembler::shlRI32(GPR R, std::uint8_t Imm) { shiftRI(false, 4, R, Imm); }
void Assembler::shlRI64(GPR R, std::uint8_t Imm) { shiftRI(true, 4, R, Imm); }
void Assembler::shrRI32(GPR R, std::uint8_t Imm) { shiftRI(false, 5, R, Imm); }
void Assembler::sarRI32(GPR R, std::uint8_t Imm) { shiftRI(false, 7, R, Imm); }
void Assembler::sarRI64(GPR R, std::uint8_t Imm) { shiftRI(true, 7, R, Imm); }

// --- Widening ---------------------------------------------------------------

void Assembler::movsxd(GPR Dst, GPR Src) {
  rex(true, Dst >= 8, false, Src >= 8);
  byte(0x63);
  modrmRR(Dst, Src);
}
void Assembler::movzx8RR(GPR Dst, GPR Src) {
  rexByteOp(Dst, Src);
  byte(0x0F);
  byte(0xB6);
  modrmRR(Dst, Src);
}

// --- Conditions and branches -------------------------------------------------

void Assembler::setcc(Cond C, GPR Dst) {
  rexByteOp(0, Dst);
  byte(0x0F);
  byte(0x90 + static_cast<std::uint8_t>(C));
  modrmRR(0, Dst);
}

std::size_t Assembler::jcc(Cond C) {
  ++NumInstrs;
  byte(0x0F);
  byte(0x80 + static_cast<std::uint8_t>(C));
  std::size_t At = Pos;
  word32(0);
  return At;
}

std::size_t Assembler::jmp() {
  ++NumInstrs;
  byte(0xE9);
  std::size_t At = Pos;
  word32(0);
  return At;
}

void Assembler::callR(GPR R) {
  if (R >= 8)
    rex(false, false, false, true);
  byte(0xFF);
  modrmRR(2, R);
}

// --- Stack --------------------------------------------------------------------

void Assembler::push(GPR R) {
  ++NumInstrs;
  if (R >= 8)
    rex(false, false, false, true);
  byte(0x50 + (R & 7));
}

void Assembler::pop(GPR R) {
  ++NumInstrs;
  if (R >= 8)
    rex(false, false, false, true);
  byte(0x58 + (R & 7));
}

// --- Scalar double (SSE2) ------------------------------------------------------

void Assembler::movsdRR(XMM Dst, XMM Src) {
  // movapd, not movsd: the scalar form merges into the destination's upper
  // lane, adding a false dependency that serializes FP dependency chains.
  sseRR(0x66, 0x28, Dst, Src);
}

void Assembler::movsdRM(XMM Dst, GPR Base, std::int32_t Disp) {
  byte(0xF2);
  if (Dst >= 8 || Base >= 8)
    rex(false, Dst >= 8, false, Base >= 8);
  byte(0x0F);
  byte(0x10);
  modrmMem(Dst, Base, Disp);
}

void Assembler::movsdMR(GPR Base, std::int32_t Disp, XMM Src) {
  byte(0xF2);
  if (Src >= 8 || Base >= 8)
    rex(false, Src >= 8, false, Base >= 8);
  byte(0x0F);
  byte(0x11);
  modrmMem(Src, Base, Disp);
}

void Assembler::addsd(XMM Dst, XMM Src) { sseRR(0xF2, 0x58, Dst, Src); }
void Assembler::subsd(XMM Dst, XMM Src) { sseRR(0xF2, 0x5C, Dst, Src); }
void Assembler::mulsd(XMM Dst, XMM Src) { sseRR(0xF2, 0x59, Dst, Src); }
void Assembler::divsd(XMM Dst, XMM Src) { sseRR(0xF2, 0x5E, Dst, Src); }
void Assembler::sqrtsd(XMM Dst, XMM Src) { sseRR(0xF2, 0x51, Dst, Src); }
void Assembler::ucomisd(XMM A, XMM B) { sseRR(0x66, 0x2E, A, B); }
void Assembler::xorpd(XMM Dst, XMM Src) { sseRR(0x66, 0x57, Dst, Src); }

void Assembler::cvtsi2sd32(XMM Dst, GPR Src) { sseRR(0xF2, 0x2A, Dst, Src); }
void Assembler::cvtsi2sd64(XMM Dst, GPR Src) {
  sseRR(0xF2, 0x2A, Dst, Src, /*W=*/true);
}
void Assembler::cvttsd2si32(GPR Dst, XMM Src) { sseRR(0xF2, 0x2C, Dst, Src); }
void Assembler::cvttsd2si64(GPR Dst, XMM Src) {
  sseRR(0xF2, 0x2C, Dst, Src, /*W=*/true);
}
void Assembler::movqXR(XMM Dst, GPR Src) {
  sseRR(0x66, 0x6E, Dst, Src, /*W=*/true);
}
void Assembler::movqRX(GPR Dst, XMM Src) {
  // movq r/m64, xmm encodes the XMM register in the reg field.
  sseRR(0x66, 0x7E, Src, Dst, /*W=*/true);
}
