//===- tests/x86_test.cpp - x86-64 encoder tests --------------------------===//
//
// Two strategies: golden-byte checks against hand-verified encodings, and
// end-to-end execution of small assembled functions.
//
//===----------------------------------------------------------------------===//

#include "x86/X86Assembler.h"
#include "x86/X86Decoder.h"

#include "support/CodeBuffer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace tcc;
using namespace tcc::x86;

namespace {

std::vector<std::uint8_t> capture(void (*Emit)(Assembler &)) {
  std::uint8_t Buf[64];
  Assembler A(Buf, sizeof(Buf));
  Emit(A);
  return std::vector<std::uint8_t>(Buf, Buf + A.pc());
}

#define EXPECT_BYTES(EMIT, ...)                                                \
  do {                                                                         \
    std::vector<std::uint8_t> Got = capture([](Assembler &A) { EMIT; });       \
    std::vector<std::uint8_t> Want = {__VA_ARGS__};                            \
    EXPECT_EQ(Got, Want);                                                      \
  } while (0)

TEST(X86Golden, MovRegReg) {
  EXPECT_BYTES(A.movRR64(RAX, RBX), 0x48, 0x8B, 0xC3);
  EXPECT_BYTES(A.movRR32(RCX, RDX), 0x8B, 0xCA);
  EXPECT_BYTES(A.movRR64(R8, R9), 0x4D, 0x8B, 0xC1);
  EXPECT_BYTES(A.movRR64(RAX, R15), 0x49, 0x8B, 0xC7);
}

TEST(X86Golden, MovImm) {
  EXPECT_BYTES(A.movRI32(RAX, 0x2A), 0xB8, 0x2A, 0x00, 0x00, 0x00);
  EXPECT_BYTES(A.movRI32(R10, 1), 0x41, 0xBA, 0x01, 0x00, 0x00, 0x00);
  EXPECT_BYTES(A.movRI64(RAX, 0x1122334455667788ull), 0x48, 0xB8, 0x88, 0x77,
               0x66, 0x55, 0x44, 0x33, 0x22, 0x11);
  EXPECT_BYTES(A.movRI64SExt32(RBX, -1), 0x48, 0xC7, 0xC3, 0xFF, 0xFF, 0xFF,
               0xFF);
}

TEST(X86Golden, Alu) {
  EXPECT_BYTES(A.addRR32(RCX, RDX), 0x03, 0xCA);
  EXPECT_BYTES(A.subRR64(RAX, RBX), 0x48, 0x2B, 0xC3);
  EXPECT_BYTES(A.imulRR32(RBX, RCX), 0x0F, 0xAF, 0xD9);
  EXPECT_BYTES(A.addRI32(RAX, 5), 0x83, 0xC0, 0x05);
  EXPECT_BYTES(A.addRI32(RAX, 300), 0x81, 0xC0, 0x2C, 0x01, 0x00, 0x00);
  EXPECT_BYTES(A.cmpRI32(RBX, -2), 0x83, 0xFB, 0xFE);
}

TEST(X86Golden, MemoryOperands) {
  // RBP base forces a displacement byte even when zero.
  EXPECT_BYTES(A.loadRM32(RAX, RBP, 0), 0x8B, 0x45, 0x00);
  // RSP base forces a SIB byte.
  EXPECT_BYTES(A.loadRM32(RAX, RSP, 8), 0x8B, 0x44, 0x24, 0x08);
  EXPECT_BYTES(A.storeMR64(RBP, -8, RAX), 0x48, 0x89, 0x45, 0xF8);
  EXPECT_BYTES(A.loadRM64(RCX, RBX, 0), 0x48, 0x8B, 0x0B);
  // disp32 form.
  EXPECT_BYTES(A.loadRM32(RAX, RBX, 1024), 0x8B, 0x83, 0x00, 0x04, 0x00, 0x00);
  // R13 is an RBP-class base and needs the disp8 form too.
  EXPECT_BYTES(A.loadRM64(RAX, R13, 0), 0x49, 0x8B, 0x45, 0x00);
  // R12 is an RSP-class base and needs a SIB byte.
  EXPECT_BYTES(A.loadRM64(RAX, R12, 0), 0x49, 0x8B, 0x04, 0x24);
}

TEST(X86Golden, PushPopRet) {
  EXPECT_BYTES(A.push(RBP), 0x55);
  EXPECT_BYTES(A.push(R12), 0x41, 0x54);
  EXPECT_BYTES(A.pop(R15), 0x41, 0x5F);
  EXPECT_BYTES(A.ret(), 0xC3);
}

TEST(X86Golden, SetccAndShift) {
  EXPECT_BYTES(A.setcc(Cond::E, RBX), 0x0F, 0x94, 0xC3);
  // SIL needs a REX prefix for byte addressing.
  EXPECT_BYTES(A.setcc(Cond::L, RSI), 0x40, 0x0F, 0x9C, 0xC6);
  EXPECT_BYTES(A.shlRI32(RAX, 4), 0xC1, 0xE0, 0x04);
  EXPECT_BYTES(A.sarCl32(RBX), 0xD3, 0xFB);
}

TEST(X86Golden, Branches) {
  std::uint8_t Buf[64];
  Assembler A(Buf, sizeof(Buf));
  std::size_t Disp = A.jcc(Cond::NE); // 0F 85 <4 bytes>
  A.nop();
  A.patchBranch(Disp, A.pc());
  EXPECT_EQ(Buf[0], 0x0F);
  EXPECT_EQ(Buf[1], 0x85);
  EXPECT_EQ(A.read32(Disp), 1u) << "branch over one nop";
}

TEST(X86AssemblerDeathTest, WritePastCapacityIsFatalInEveryBuild) {
  // The bound is a check, not an assert: Release builds define NDEBUG and
  // must still stop before writing past the buffer.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::uint8_t Buf[16] = {};
  {
    Assembler A(Buf, 10);
    A.movRI64(RAX, 0x1122334455667788ull); // Exactly fills the buffer.
    EXPECT_EQ(A.capacityLeft(), 0u);
  }
  EXPECT_DEATH(
      {
        Assembler A(Buf, 2);
        A.byte(1);
        A.byte(2);
        A.byte(3);
      },
      "code buffer overflow");
  EXPECT_DEATH(
      {
        Assembler A(Buf, 7);
        A.word64(0);
      },
      "code buffer overflow");
  EXPECT_DEATH(
      {
        Assembler A(Buf, 9);
        A.movRI64(RAX, 0x1122334455667788ull);
      },
      "code buffer overflow");
}

TEST(X86Golden, InstructionCounter) {
  std::uint8_t Buf[64];
  Assembler A(Buf, sizeof(Buf));
  A.movRI32(RAX, 1);
  A.addRR32(RAX, RBX);
  A.loadRM32(RCX, RBP, -4);
  A.ret();
  EXPECT_EQ(A.instructionsEmitted(), 4u);
}

// --- Execution tests --------------------------------------------------------

/// Assembles through \p Emit and runs the result as int64(*)(int64, int64).
std::int64_t run2(void (*Emit)(Assembler &), std::int64_t X, std::int64_t Y) {
  CodeRegion R(4096);
  Assembler A(R.base(), R.capacity());
  Emit(A);
  R.makeExecutable();
  return reinterpret_cast<std::int64_t (*)(std::int64_t, std::int64_t)>(
      R.base())(X, Y);
}

TEST(X86Exec, AddArgs) {
  auto Emit = [](Assembler &A) {
    A.movRR64(RAX, RDI);
    A.addRR64(RAX, RSI);
    A.ret();
  };
  EXPECT_EQ(run2(Emit, 2, 3), 5);
  EXPECT_EQ(run2(Emit, -100, 1), -99);
}

TEST(X86Exec, MulImm) {
  auto Emit = [](Assembler &A) {
    A.imulRRI64(RAX, RDI, 7);
    A.ret();
  };
  EXPECT_EQ(run2(Emit, 6, 0), 42);
  EXPECT_EQ(run2(Emit, -3, 0), -21);
}

TEST(X86Exec, DivSigned32) {
  auto Emit = [](Assembler &A) {
    A.movRR32(RAX, RDI);
    A.cdq();
    A.idivR32(RSI);
    A.ret();
  };
  EXPECT_EQ(static_cast<std::int32_t>(run2(Emit, 42, 5)), 8);
  EXPECT_EQ(static_cast<std::int32_t>(run2(Emit, -42, 5)), -8)
      << "C truncation semantics";
}

TEST(X86Exec, LoadStore) {
  auto Emit = [](Assembler &A) {
    // *(int64*)rdi = 99; return *(int64*)rdi + rsi
    A.movRI64SExt32(RAX, 99);
    A.storeMR64(RDI, 0, RAX);
    A.loadRM64(RAX, RDI, 0);
    A.addRR64(RAX, RSI);
    A.ret();
  };
  std::int64_t Cell = 0;
  EXPECT_EQ(run2(Emit, reinterpret_cast<std::int64_t>(&Cell), 1), 100);
  EXPECT_EQ(Cell, 99);
}

TEST(X86Exec, ConditionalBranch) {
  // return x < y ? 1 : 2  (signed)
  auto Emit = [](Assembler &A) {
    A.cmpRR64(RDI, RSI);
    std::size_t TakeOne = A.jcc(Cond::L);
    A.movRI32(RAX, 2);
    A.ret();
    A.patchBranch(TakeOne, A.pc());
    A.movRI32(RAX, 1);
    A.ret();
  };
  EXPECT_EQ(run2(Emit, 1, 2), 1);
  EXPECT_EQ(run2(Emit, 2, 1), 2);
  EXPECT_EQ(run2(Emit, -5, 0), 1);
}

TEST(X86Exec, DoubleArith) {
  // double f(double a, double b) { return a * b + a; }
  CodeRegion R(4096);
  Assembler A(R.base(), R.capacity());
  A.movsdRR(XMM2, XMM0);
  A.mulsd(XMM2, XMM1);
  A.addsd(XMM2, XMM0);
  A.movsdRR(XMM0, XMM2);
  A.ret();
  R.makeExecutable();
  auto Fn = reinterpret_cast<double (*)(double, double)>(R.base());
  EXPECT_DOUBLE_EQ(Fn(3.0, 4.0), 15.0);
  EXPECT_DOUBLE_EQ(Fn(-1.5, 2.0), -4.5);
}

TEST(X86Exec, IntToDoubleAndBack) {
  CodeRegion R(4096);
  Assembler A(R.base(), R.capacity());
  // return (int64)((double)rdi / 2.0)
  A.cvtsi2sd64(XMM0, RDI);
  double Half = 2.0;
  std::uint64_t Bits;
  std::memcpy(&Bits, &Half, 8);
  A.movRI64(RAX, Bits);
  A.movqXR(XMM1, RAX);
  A.divsd(XMM0, XMM1);
  A.cvttsd2si64(RAX, XMM0);
  A.ret();
  R.makeExecutable();
  auto Fn = reinterpret_cast<std::int64_t (*)(std::int64_t)>(R.base());
  EXPECT_EQ(Fn(9), 4);
  EXPECT_EQ(Fn(-9), -4);
}

TEST(X86Exec, MovqRoundTrip) {
  CodeRegion R(4096);
  Assembler A(R.base(), R.capacity());
  A.movqXR(XMM3, RDI);
  A.movqRX(RAX, XMM3);
  A.ret();
  R.makeExecutable();
  auto Fn = reinterpret_cast<std::int64_t (*)(std::int64_t)>(R.base());
  EXPECT_EQ(Fn(0x123456789ABCDEF0ll), 0x123456789ABCDEF0ll);
}

// --- Strict-decoder coverage of the encoder's operand-class vocabulary -----
//
// Every operand class VCODE drives this encoder with (immediate widths,
// displacement classes, the condition nibbles of its compares) must decode
// strictly, and the forms the back end never generates must stay rejected:
// admission decodes every emitted byte, so the two may not drift apart.
// (The "Stencil" test names date from the copy-and-patch back end, whose
// pre-rendered templates were made of exactly these forms.)

std::vector<std::uint8_t> emit(void (*Emit)(Assembler &)) {
  std::uint8_t Buf[64];
  Assembler A(Buf, sizeof(Buf));
  Emit(A);
  return std::vector<std::uint8_t>(Buf, Buf + A.pc());
}

bool decodesAs(const std::vector<std::uint8_t> &Code, InstrClass Want) {
  Decoded D;
  if (decodeOne(Code.data(), Code.size(), 0, D) != DecodeStatus::Ok)
    return false;
  return D.Cls == Want && D.Len == Code.size();
}

TEST(Decoder, AcceptsStencilImmediateForms) {
  // Both ALU immediate widths (83 /digit ib and 81 /digit id).
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.addRI32(RBX, 5); }),
                        InstrClass::AluRI));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.addRI32(RBX, 100000); }),
                        InstrClass::AluRI));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.cmpRI32(R12, -129); }),
                        InstrClass::AluRI));
  // Shift-by-immediate is always C1 /digit ib — never the shift-by-1 short
  // form — so every count has one encoding.
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.shlRI32(RBX, 1); }),
                        InstrClass::ShiftImm));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.sarRI32(R13, 31); }),
                        InstrClass::ShiftImm));
  // The three mov-immediate size classes (setI / setL).
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.movRI32(R14, 7); }),
                        InstrClass::MovImm32));
  EXPECT_TRUE(
      decodesAs(emit([](Assembler &A) { A.movRI64SExt32(R14, -7); }),
                InstrClass::MovImmSExt));
  EXPECT_TRUE(decodesAs(
      emit([](Assembler &A) { A.movRI64(R14, 0x0123456789ABCDEFull); }),
      InstrClass::MovImm64));
}

TEST(Decoder, AcceptsStencilMemoryForms) {
  // All three displacement classes over pool registers, including the two
  // encoder specials: R12 base forces a SIB byte, R13 base forces a
  // displacement even when zero.
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.loadRM32(RBX, R15, 0); }),
                        InstrClass::Load));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.loadRM32(RBX, R15, 8); }),
                        InstrClass::Load));
  EXPECT_TRUE(
      decodesAs(emit([](Assembler &A) { A.loadRM32(RBX, R15, 1000); }),
                InstrClass::Load));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.loadRM32(RBX, R12, 0); }),
                        InstrClass::Load));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.loadRM32(RBX, R13, 0); }),
                        InstrClass::Load));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.storeMR32(R13, 0, RBX); }),
                        InstrClass::Store32));
  EXPECT_TRUE(decodesAs(emit([](Assembler &A) { A.storeMR64(R12, 40, R8); }),
                        InstrClass::Store64));
}

TEST(Decoder, AcceptsStencilSetccForBackendConditions) {
  // setcc+movzx over the condition nibbles the back end's compare lowering
  // produces.
  for (Cond C : {Cond::B, Cond::AE, Cond::E, Cond::NE, Cond::BE, Cond::A,
                 Cond::L, Cond::GE, Cond::LE, Cond::G}) {
    std::uint8_t Buf[16];
    Assembler A(Buf, sizeof(Buf));
    A.setcc(C, RBX);
    Decoded D;
    const char *Err = nullptr;
    ASSERT_EQ(decodeOne(Buf, A.pc(), 0, D, &Err), DecodeStatus::Ok)
        << "cond " << static_cast<int>(C) << ": " << (Err ? Err : "");
    EXPECT_EQ(D.Cls, InstrClass::Setcc);
  }
}

TEST(Decoder, RejectsConditionsTheRendererSkips) {
  // 0F 90+cc with a nibble outside the back end's set (O/NO/S/NS/P/NP):
  // no back end emits these, and the decoder keeps rejecting the raw
  // encodings.
  for (std::uint8_t Nibble : {0x0, 0x1, 0x8, 0x9, 0xA, 0xB}) {
    const std::uint8_t Code[] = {0x0F, static_cast<std::uint8_t>(0x90 | Nibble),
                                 0xC3};
    Decoded D;
    EXPECT_EQ(decodeOne(Code, sizeof(Code), 0, D), DecodeStatus::Invalid)
        << "nibble " << static_cast<int>(Nibble);
  }
}

TEST(Decoder, RejectsOutOfRangeShiftImmediate) {
  // C1 /4 with a count the encoder can never produce (> 63). A corrupted
  // count byte is caught at the machine-audit layer.
  const std::uint8_t Code[] = {0xC1, 0xE0, 64};
  Decoded D;
  EXPECT_EQ(decodeOne(Code, sizeof(Code), 0, D), DecodeStatus::Invalid);
}

TEST(Decoder, ExhaustiveThreeBytePrefixFingerprint) {
  // Every 3-byte prefix, padded with one fixed 12-byte tail, is decoded
  // twice: at the full 15 bytes (room for any instruction the Assembler
  // emits) and cut to the prefix alone (where most accepted shapes end
  // truncated). The status of each decode, and every field of each
  // accepted one, fold into one hash. The pinned value pins the strict
  // accept set, the decoded fields and the truncated/invalid split, so a
  // faster decoder must reproduce the reference decoder bit for bit.
  static const std::uint8_t Tail[12] = {0x45, 0xF8, 0x90, 0x01, 0x00, 0x00,
                                        0x88, 0x77, 0x66, 0x55, 0x44, 0x33};
  std::uint8_t Buf[15];
  std::memcpy(Buf + 3, Tail, sizeof(Tail));
  std::uint64_t H = 0;
  auto Mix = [&](std::uint64_t V) {
    H = (H ^ V) * 0x9E3779B97F4A7C15ull;
    H ^= H >> 29;
  };
  std::uint64_t Accepted = 0, Truncated = 0;
  for (std::uint32_t P = 0; P < (1u << 24); ++P) {
    Buf[0] = static_cast<std::uint8_t>(P);
    Buf[1] = static_cast<std::uint8_t>(P >> 8);
    Buf[2] = static_cast<std::uint8_t>(P >> 16);
    for (std::size_t Size : {sizeof(Buf), std::size_t(3)}) {
      Decoded D;
      DecodeStatus St = decodeOne(Buf, Size, 0, D);
      Mix(St == DecodeStatus::Ok ? 0 : St == DecodeStatus::Truncated ? 2 : 1);
      Truncated += St == DecodeStatus::Truncated;
      if (St != DecodeStatus::Ok)
        continue;
      ++Accepted;
      Mix(std::uint64_t(D.Cls) | std::uint64_t(D.Len) << 8 |
          std::uint64_t(D.RexW) << 16 | std::uint64_t(D.HasModRM) << 24 |
          std::uint64_t(D.IsMem) << 32 | std::uint64_t(D.Mod) << 40 |
          std::uint64_t(D.Reg) << 48 | std::uint64_t(D.Rm) << 56);
      Mix(std::uint64_t(static_cast<std::uint32_t>(D.Disp)) |
          std::uint64_t(static_cast<std::uint32_t>(D.Rel32)) << 32);
      Mix(static_cast<std::uint64_t>(D.Imm));
      Mix(D.Imm64);
      Mix(std::uint64_t(D.Op8) | std::uint64_t(D.CondCode) << 8);
    }
  }
  EXPECT_EQ(Accepted, 3671725u);
  EXPECT_EQ(Truncated, 938977u);
  EXPECT_EQ(H, 0x110c8fce0bbf379eull);
}

TEST(X86Exec, CallThroughRegister) {
  CodeRegion R(4096);
  Assembler A(R.base(), R.capacity());
  // Forward rdi to a helper and add 1 to its result.
  auto Helper = +[](std::int64_t X) { return X * 10; };
  A.push(RBX); // keep stack 16-byte aligned at the call
  A.movRI64(RAX, reinterpret_cast<std::uintptr_t>(Helper));
  A.callR(RAX);
  A.addRI64(RAX, 1);
  A.pop(RBX);
  A.ret();
  R.makeExecutable();
  auto Fn = reinterpret_cast<std::int64_t (*)(std::int64_t)>(R.base());
  EXPECT_EQ(Fn(4), 41);
}

} // namespace
