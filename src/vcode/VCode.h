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
/// All register-designator handling, spill bracketing, value-dependent
/// instruction selection and label fixup logic lives in this header, in
/// class VCode; x86::Assembler is the encoder that puts machine bytes in
/// the buffer.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_VCODE_VCODE_H
#define TICKC_VCODE_VCODE_H

#include "support/Arena.h"
#include "support/Error.h"
#include "x86/X86Assembler.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

namespace tcc {
namespace vcode {

/// Integer register designator: >= 0 physical, < 0 spill slot.
using Reg = int;
/// Floating-point register designator: >= 0 physical, < 0 spill slot.
using FReg = int;

/// Comparison kinds shared by compare-and-set and compare-and-branch forms.
enum class CmpKind : std::uint8_t {
  Eq,
  Ne,
  LtS,
  LeS,
  GtS,
  GeS,
  LtU,
  LeU,
  GtU,
  GeU,
};

/// Returns the comparison with operands swapped (a OP b == b OP' a).
CmpKind swapOperands(CmpKind K);
/// Returns the negated comparison (!(a OP b) == a OP' b).
CmpKind negate(CmpKind K);

/// Granlund/Montgomery magic constant for signed division by \p Divisor
/// (non-zero, not INT32_MIN): {multiplier, post-shift}.
std::pair<std::int32_t, int> signedDivisionMagicImpl(std::int32_t Divisor);

/// Branch-target handle. Labels may be bound before or after being used as
/// jump targets; forward references are back-patched.
struct Label {
  unsigned Id = ~0u;
  bool valid() const { return Id != ~0u; }
};

namespace detail {

/// Physical register assignment, two integer pools. Neither holds an
/// emission scratch register: R10/R11/RAX are scratch, and RDX/RCX are
/// written implicitly by division and variable shifts.
///
/// IntPoolPhys is callee-saved, so values survive calls emitted into
/// dynamic code. Every VCODE function and every ICODE function that makes a
/// call uses it; R8/R9 are its reserved static registers (paper §5.1).
inline constexpr x86::GPR IntPoolPhys[7] = {x86::RBX, x86::R12, x86::R13,
                                            x86::R14, x86::R15, x86::R8,
                                            x86::R9};
/// The pool of a call-free ICODE function (VCode::useCallerSavedPool):
/// caller-saved registers first, so such a function saves nothing unless it
/// needs a fifth register. It has no static registers.
inline constexpr x86::GPR LeafPoolPhys[5] = {x86::RDI, x86::RSI, x86::R8,
                                             x86::R9, x86::RBX};
/// Pool indices of LeafPoolPhys that are caller-saved.
inline constexpr std::uint32_t LeafCallerSavedMask = 0xF;

/// Frame offset of a callee-saved pool register's save slot: rbx, r12..r15
/// at [rbp-8], [rbp-16], ... whichever pool the function uses, so the save
/// area keeps one layout (admission checks it).
constexpr std::int32_t saveSlotOffset(x86::GPR R) {
  for (int I = 0; I < 5; ++I)
    if (IntPoolPhys[I] == R)
      return -8 * (I + 1);
  return 0;
}

inline constexpr x86::GPR ScratchA = x86::R10;
inline constexpr x86::GPR ScratchB = x86::R11;
inline constexpr x86::GPR ScratchAux = x86::RAX;

inline constexpr x86::XMM FloatPoolPhys[12] = {
    x86::XMM4,  x86::XMM5,  x86::XMM6,  x86::XMM7,  x86::XMM8,  x86::XMM9,
    x86::XMM10, x86::XMM11, x86::XMM12, x86::XMM13, x86::XMM14, x86::XMM15};
inline constexpr x86::XMM FScratchA = x86::XMM2;
inline constexpr x86::XMM FScratchB = x86::XMM3;
inline constexpr x86::XMM FScratchAux = x86::XMM1;

/// x86 condition for an integer comparison.
inline x86::Cond condFor(CmpKind K) {
  using x86::Cond;
  switch (K) {
  case CmpKind::Eq:
    return Cond::E;
  case CmpKind::Ne:
    return Cond::NE;
  case CmpKind::LtS:
    return Cond::L;
  case CmpKind::LeS:
    return Cond::LE;
  case CmpKind::GtS:
    return Cond::G;
  case CmpKind::GeS:
    return Cond::GE;
  case CmpKind::LtU:
    return Cond::B;
  case CmpKind::LeU:
    return Cond::BE;
  case CmpKind::GtU:
    return Cond::A;
  case CmpKind::GeU:
    return Cond::AE;
  }
  tcc_unreachable("bad CmpKind");
}

/// x86 condition after ucomisd (which sets flags like an unsigned compare).
/// NaN operands take the "unordered" outcome; like the original tcc we do
/// not emit the extra parity check.
inline x86::Cond condForDouble(CmpKind K) {
  using x86::Cond;
  switch (K) {
  case CmpKind::Eq:
    return Cond::E;
  case CmpKind::Ne:
    return Cond::NE;
  case CmpKind::LtS:
  case CmpKind::LtU:
    return Cond::B;
  case CmpKind::LeS:
  case CmpKind::LeU:
    return Cond::BE;
  case CmpKind::GtS:
  case CmpKind::GtU:
    return Cond::A;
  case CmpKind::GeS:
  case CmpKind::GeU:
    return Cond::AE;
  }
  tcc_unreachable("bad CmpKind");
}

} // namespace detail

/// One incoming parameter for VCode::bindArgs: SysV argument \p Index of
/// its class (integer, or double when \p Fp) into designator \p Dst.
struct ArgBind {
  unsigned Index = 0;
  int Dst = 0;
  bool Fp = false;
};

/// One-pass code generator. Construct over a writable code buffer, emit
/// operations, then call finish(); the caller flips the buffer executable.
class VCode {
public:
  /// Number of integer registers getreg() can hand out.
  static constexpr int NumIntPool = 5;
  /// Number of reserved static integer registers (see staticReg()).
  static constexpr int NumStaticRegs = 2;
  /// Number of double registers getfreg() can hand out.
  static constexpr int NumFloatPool = 12;
  /// Bytes of the callee-save area below the frame pointer (save slots of
  /// rbx, r12..r15; the rbp push is accounted separately). Every frame
  /// reserves it, whichever pool the function uses; spill slots start below
  /// it, and admission's spill fact keys off it.
  static constexpr std::int32_t CalleeSaveBytes = 40;

  /// Designator for spill slot \p Slot (0-based).
  static constexpr Reg spillReg(int Slot) { return -Slot - 1; }
  /// Slot index of a spilled designator.
  static constexpr int spillSlot(Reg R) { return -R - 1; }
  static constexpr bool isSpill(Reg R) { return R < 0; }

  /// Construct over a writable code buffer. \p ScratchArena, when given,
  /// backs the label/fixup/spill-slot tables (the compiling thread's
  /// CompileContext arena on the steady-state compile path); without one
  /// the VCode owns a small private arena.
  VCode(std::uint8_t *Buf, std::size_t Capacity, Arena *ScratchArena = nullptr)
      : Asm(Buf, Capacity),
        OwnedScratch(ScratchArena ? nullptr : new Arena(4096)),
        Scratch(ScratchArena ? ScratchArena : OwnedScratch.get()),
        FreeIntMask((1u << NumIntPool) - 1),
        FreeFloatMask((1u << NumFloatPool) - 1), FreeSpillSlots(*Scratch),
        Labels(*Scratch), RestoreSitePcs(*Scratch) {}

  // --- Register management (paper §5.1) -----------------------------------
  /// Allocates an integer register; returns a spill designator under
  /// pressure (or aborts if spilling was disabled).
  Reg getreg() {
    if (FreeIntMask) {
      int Idx = std::countr_zero(FreeIntMask);
      FreeIntMask &= FreeIntMask - 1;
      return Idx;
    }
    if (!SpillingEnabled)
      reportFatalError(
          "getreg: register pool exhausted with spilling disabled");
    if (!FreeSpillSlots.empty()) {
      int Slot = FreeSpillSlots.back();
      FreeSpillSlots.pop_back();
      return spillReg(Slot);
    }
    return spillReg(allocSlot());
  }

  void putreg(Reg R) {
    if (isSpill(R)) {
      FreeSpillSlots.push_back(spillSlot(R));
      return;
    }
    assert(R < NumIntPool && "putreg on a static register");
    assert(!(FreeIntMask & (1u << R)) && "double putreg");
    FreeIntMask |= 1u << R;
  }

  FReg getfreg() {
    if (FreeFloatMask) {
      int Idx = std::countr_zero(FreeFloatMask);
      FreeFloatMask &= FreeFloatMask - 1;
      return Idx;
    }
    if (!SpillingEnabled)
      reportFatalError(
          "getfreg: register pool exhausted with spilling disabled");
    if (!FreeSpillSlots.empty()) {
      int Slot = FreeSpillSlots.back();
      FreeSpillSlots.pop_back();
      return spillReg(Slot);
    }
    return spillReg(allocSlot());
  }

  void putfreg(FReg R) {
    if (isSpill(R)) {
      FreeSpillSlots.push_back(spillSlot(R));
      return;
    }
    assert(!(FreeFloatMask & (1u << R)) && "double putfreg");
    FreeFloatMask |= 1u << R;
  }

  /// Static register \p I (0 <= I < NumStaticRegs); never tracked, does not
  /// survive emitted calls. Only the callee-saved pool has them.
  static constexpr Reg staticReg(int I) { return NumIntPool + I; }
  /// When disabled, getreg aborts instead of spilling, and operations skip
  /// the per-operand spill checks (the paper's fast path).
  void setSpillingEnabled(bool Enabled) { SpillingEnabled = Enabled; }
  /// Number of integer registers currently free in the pool.
  int freeIntRegs() const { return std::popcount(FreeIntMask); }
  /// Bitmask of float pool registers currently handed out by getfreg().
  /// Clients use it to save caller-saved doubles around emitted calls.
  std::uint32_t allocatedFpMask() const {
    return ~FreeFloatMask & ((1u << NumFloatPool) - 1);
  }

  /// Reserves a fresh 8-byte stack slot (used by the ICODE register
  /// allocator to place spilled virtual registers).
  int allocSlot() { return NumSlots++; }

  /// Granlund/Montgomery magic constant for signed division by \p Divisor
  /// (non-zero, not INT32_MIN): {multiplier, post-shift}. Exposed for
  /// testing; divII uses it to avoid idiv for run-time constant divisors.
  static std::pair<std::int32_t, int> signedDivisionMagic(
      std::int32_t Divisor) {
    return signedDivisionMagicImpl(Divisor);
  }

  // --- Function boundaries -------------------------------------------------
  /// Switches this function to the caller-saved-first pool
  /// (detail::LeafPoolPhys) with exact save sites. For a body that emits no
  /// call, whose register use is known before its first byte (ICODE
  /// allocates before it emits): \p UsedMask holds the pool indices the
  /// body uses. enter() and every epilogue save and restore only its
  /// callee-saved members, and getreg() afterwards hands out only
  /// caller-saved or saved registers, so code emitted later in the same
  /// frame (a page-guarded function's fallback) stays inside the saved set.
  /// Call before enter(); no call may be emitted afterwards.
  void useCallerSavedPool(std::uint32_t UsedMask) {
    assert(!FramePatchOffset && "pool chosen after enter()");
    Pool = detail::LeafPoolPhys;
    LeafPool = true;
    SavedMask = UsedMask & ~detail::LeafCallerSavedMask;
    FreeIntMask = detail::LeafCallerSavedMask | SavedMask;
  }

  /// Emits the prologue. Bind the incoming parameters (bindArgs, or
  /// bindArgI/bindArgD one by one) immediately afterwards, before any other
  /// operation.
  void enter() {
    Asm.push(x86::RBP);
    Asm.movRR64(x86::RBP, x86::RSP);
    FramePatchOffset = Asm.subRI64Patchable(x86::RSP);
    if (LeafPool) {
      forEachSaved([&](x86::GPR P) {
        Asm.storeMR64(x86::RBP, detail::saveSlotOffset(P), P);
      });
      return;
    }
    // Callee-saved pool registers are preserved with rbp-relative stores
    // (fixed 4-byte encodings) rather than pushes, so that finish() can
    // erase the ones this function never used — keeping small dynamic
    // functions' prologues lean without a second pass.
    for (int I = 0; I < NumIntPool; ++I) {
      SaveSitePc[I] = Asm.pc();
      Asm.storeMR64(x86::RBP, -8 * (I + 1), detail::IntPoolPhys[I]);
      assert(Asm.pc() - SaveSitePc[I] == 4 && "save store must be 4 bytes");
    }
  }

  /// Plants the opt-in profiling hook (observability/Profile.h): one
  /// `lock inc qword [Counter]` on a 64-bit invocation counter that must
  /// outlive the generated code. Call between enter() and the bindArg*
  /// sequence; only scratch state is clobbered.
  void profileEntry(const void *Counter) {
    Asm.armReloc(support::RelocKind::Profile);
    Asm.movRI64(detail::ScratchA, reinterpret_cast<std::uint64_t>(Counter));
    Asm.lockIncM64(detail::ScratchA, 0);
  }

  /// Plants one unit of a page guard right after enter(): branches to
  /// \p Fallback unless the \p Span bytes at `arg[Index] + Lo` lie inside
  /// one 4 KiB page, i.e. unless `((arg + Lo) & 4095) + Span <= 4096`.
  /// Reads no memory and clobbers only scratch; the argument registers
  /// still hold the caller's values.
  void pageGuard(unsigned Index, std::int32_t Lo, std::uint32_t Span,
                 Label Fallback) {
    assert(Index < 6 && Span >= 1 && Span <= 4096 && "bad page guard");
    Asm.lea(detail::ScratchA, x86::IntArgRegs[Index], Lo);
    Asm.andRI32(detail::ScratchA, 4095);
    Asm.cmpRI32(detail::ScratchA, static_cast<std::int32_t>(4096 - Span));
    branchOn(x86::Cond::A, Fallback);
  }

  /// One frame, two bodies (a page-guarded ICODE body and its fallback):
  /// after shareExit(L) the next epilogue binds \p L, and after
  /// exitThrough() every epilogue is a jump to it instead.
  void shareExit(Label L) { SharedExit = L; }
  void exitThrough() {
    assert(ExitBound && "no epilogue to share");
    ExitJumps = true;
  }

  /// Moves integer argument \p Index (0-based, SysV) into \p Dst. Safe on
  /// its own only while no pool register is an argument register; see
  /// bindArgs.
  void bindArgI(unsigned Index, Reg Dst) { bindOne({Index, Dst, false}, -1); }

  /// Moves double argument \p Index (0-based among FP args) into \p Dst.
  void bindArgD(unsigned Index, FReg Dst) { bindOne({Index, Dst, true}, -1); }

  /// Binds the \p N incoming parameters \p Binds as one parallel move: no
  /// argument register is written while a binding that reads it is still
  /// pending. Bindings that conflict with nothing keep their order, so
  /// where no destination is an argument register (the callee-saved pool)
  /// this emits exactly the bindArgI/bindArgD sequence. A cycle, which
  /// needs destinations among the argument registers, is broken by parking
  /// one source in a free scratch register.
  void bindArgs(const ArgBind *Binds, unsigned N) {
    assert(N <= 64 && "too many parameters for one parallel move");
    std::uint64_t Left =
        N == 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << N) - 1;
    int Parked = -1, ParkedIn = -1; // The binding whose source was parked.
    auto srcOf = [&](int I) {
      return I == Parked ? ParkedIn : argSource(Binds[I]);
    };
    // The pending binding other than \p I that reads register key R, or -1.
    auto readerOf = [&](int R, int I) {
      for (std::uint64_t M = R < 0 ? 0 : Left; M; M &= M - 1)
        if (int J = std::countr_zero(M); J != I && srcOf(J) == R)
          return J;
      return -1;
    };
    while (Left) {
      bool Progress = false;
      for (int I = 0; I < static_cast<int>(N); ++I) {
        if (!(Left >> I & 1) || readerOf(argClobber(Binds[I]), I) >= 0)
          continue;
        bindOne(Binds[I], I == Parked ? ParkedIn : -1,
                readerOf(FpKey + detail::FScratchA, I) >= 0);
        Left &= ~(std::uint64_t(1) << I);
        Progress = true;
      }
      if (Progress || !Left)
        continue;
      // Every pending binding writes a register another one reads. Park
      // the source the first one waits for in a register no binding reads
      // or writes; that unblocks it, and the cycle unwinds. Each register
      // is written by at most one binding and read by at most one, so the
      // previous park is done by now, and a cycle leaves a free xmm: at
      // most 8 sources and 8 destinations, two of them shared.
      assert((Parked < 0 || !(Left >> Parked & 1)) && "two parks pending");
      int First = std::countr_zero(Left);
      Parked = readerOf(argClobber(Binds[First]), First);
      int Src = argSource(Binds[Parked]);
      if (!Binds[Parked].Fp) {
        ParkedIn = detail::ScratchB; // No binding writes or reads it.
        Asm.movRR64(detail::ScratchB, static_cast<x86::GPR>(Src));
        continue;
      }
      for (ParkedIn = FpKey;; ++ParkedIn) {
        assert(ParkedIn < FpKey + 16 && "no free xmm to park in");
        bool Busy = false;
        for (unsigned I = 0; I < N && !Busy; ++I)
          Busy = argSource(Binds[I]) == ParkedIn ||
                 argClobber(Binds[I]) == ParkedIn;
        if (!Busy)
          break;
      }
      Asm.movsdRR(static_cast<x86::XMM>(ParkedIn - FpKey),
                  static_cast<x86::XMM>(Src - FpKey));
    }
  }

  /// Emits epilogue + return with no value.
  void retVoid() { epilogue(); }

  void retI(Reg R) {
    x86::GPR P = srcI(R, detail::ScratchA);
    Asm.movRR32(x86::RAX, P);
    epilogue();
  }

  void retL(Reg R) {
    x86::GPR P = srcI(R, detail::ScratchA);
    if (P != x86::RAX)
      Asm.movRR64(x86::RAX, P);
    epilogue();
  }

  void retD(FReg R) {
    x86::XMM P = srcD(R, detail::FScratchA);
    if (P != x86::XMM0)
      Asm.movsdRR(x86::XMM0, P);
    epilogue();
  }

  /// Patches the frame size; returns the entry point. No operations may be
  /// emitted afterwards.
  void *finish() {
    assert(!Finished && "finish called twice");
#ifndef NDEBUG
    for (const LabelInfo &L : Labels)
      assert(L.Bound && "unbound label at finish");
#endif
    std::uint32_t Frame =
        CalleeSaveBytes + 8 * static_cast<std::uint32_t>(NumSlots);
    Frame = (Frame + 15) & ~15u; // Keep calls 16-byte aligned.
    Asm.patch32(FramePatchOffset, Frame);
    Finished = true;
    if (LeafPool) // Exact save sites: nothing to erase.
      return Asm.bufferBase();
    // Erase callee-save traffic for pool registers never handed out.
    for (int I = 0; I < NumIntPool; ++I) {
      if (UsedPoolMask & (1u << I))
        continue;
      Asm.nopFill(SaveSitePc[I], 4);
      for (std::size_t E = 0; E < RestoreSitePcs.size(); E += NumIntPool)
        Asm.nopFill(RestoreSitePcs[E + static_cast<std::size_t>(I)], 4);
    }
    return Asm.bufferBase();
  }

  // --- Moves and constants -------------------------------------------------
  void setI(Reg D, std::int32_t Imm) {
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Imm == 0)
      Asm.xorRR32(Pd, Pd);
    else
      Asm.movRI32(Pd, static_cast<std::uint32_t>(Imm));
    writeBackI(D, Pd);
  }

  void setL(Reg D, std::int64_t Imm) {
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Imm == 0)
      Asm.xorRR32(Pd, Pd);
    else if (Imm >= INT32_MIN && Imm <= INT32_MAX)
      Asm.movRI64SExt32(Pd, static_cast<std::int32_t>(Imm));
    else
      Asm.movRI64(Pd, static_cast<std::uint64_t>(Imm));
    writeBackI(D, Pd);
  }

  void setP(Reg D, const void *Ptr) {
    // Captured addresses that fold to xor/imm32 leave the pending arming
    // set; the trailing disarm then marks the compile unportable rather
    // than letting an unpatchable encoding reach a snapshot.
    Asm.armReloc(support::RelocKind::Ptr);
    setL(D, reinterpret_cast<std::intptr_t>(Ptr));
    Asm.disarmReloc();
  }

  void setD(FReg D, double Imm) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &Imm, 8);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Bits == 0) {
      Asm.xorpd(Pd, Pd);
    } else {
      Asm.movRI64(detail::ScratchA, Bits);
      Asm.movqXR(Pd, detail::ScratchA);
    }
    writeBackD(D, Pd);
  }

  void movI(Reg D, Reg S) { movL(D, S); }

  void movL(Reg D, Reg S) {
    if (D == S)
      return;
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Ps)
      Asm.movRR64(Pd, Ps);
    writeBackI(D, Pd);
  }

  void movD(FReg D, FReg S) {
    if (D == S)
      return;
    x86::XMM Ps = srcD(S, detail::FScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd != Ps)
      Asm.movsdRR(Pd, Ps);
    writeBackD(D, Pd);
  }

  // --- Integer arithmetic (32-bit) -----------------------------------------
  void addI(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::addRR32, true);
  }
  void subI(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::subRR32, false);
  }
  void mulI(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::imulRR32, true);
  }
  void andI(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::andRR32, true);
  }
  void orI(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::orRR32, true);
  }
  void xorI(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::xorRR32, true);
  }
  void addL(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::addRR64, true);
  }
  void subL(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::subRR64, false);
  }
  void mulL(Reg D, Reg A, Reg B) {
    binI(D, A, B, &x86::Assembler::imulRR64, true);
  }

  void divI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, false, false); }
  void modI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, true, false); }
  void divUI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, false, true); }
  void modUI(Reg D, Reg A, Reg B) { divModCommon(D, A, B, true, true); }

  void shlI(Reg D, Reg A, Reg B) { shiftI(D, A, B, &x86::Assembler::shlCl32); }
  void shrI(Reg D, Reg A, Reg B) { shiftI(D, A, B, &x86::Assembler::sarCl32); }
  void ushrI(Reg D, Reg A, Reg B) { shiftI(D, A, B, &x86::Assembler::shrCl32); }

  void negI(Reg D, Reg A) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.negR32(Pd);
    writeBackI(D, Pd);
  }

  void notI(Reg D, Reg A) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.notR32(Pd);
    writeBackI(D, Pd);
  }

  // --- Integer op-with-immediate forms. mulII/divII/modII strength-reduce
  // run-time-constant operands (paper §4.4: "rather than emitting a fixed
  // sequence of instructions, it first checks the value of its immediate
  // operand"). --------------------------------------------------------------
  void addII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    binII(D, A, Imm, &x86::Assembler::addRI32, false);
  }
  void subII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    binII(D, A, Imm, &x86::Assembler::subRI32, false);
  }
  void andII(Reg D, Reg A, std::int32_t Imm) {
    binII(D, A, Imm, &x86::Assembler::andRI32, false);
  }
  void orII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    binII(D, A, Imm, &x86::Assembler::orRI32, false);
  }
  void xorII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    binII(D, A, Imm, &x86::Assembler::xorRI32, false);
  }
  void addLI(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 0) {
      movL(D, A);
      return;
    }
    binII(D, A, Imm, &x86::Assembler::addRI64, true);
  }

  void shlII(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.shlRI32(Pd, Imm);
    writeBackI(D, Pd);
  }

  void shrII(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.sarRI32(Pd, Imm);
    writeBackI(D, Pd);
  }

  void ushrII(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movI(D, A);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.shrRI32(Pd, Imm);
    writeBackI(D, Pd);
  }

  void shlLI(Reg D, Reg A, std::uint8_t Imm) {
    if (Imm == 0) {
      movL(D, A);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    Asm.shlRI64(Pd, Imm);
    writeBackI(D, Pd);
  }

  void mulII(Reg D, Reg A, std::int32_t Imm) {
    // Strength reduction on the run-time-constant operand (paper §4.4).
    if (Imm == 0) {
      setI(D, 0);
      return;
    }
    if (Imm == 1) {
      movI(D, A);
      return;
    }
    if (Imm == -1) {
      negI(D, A);
      return;
    }
    bool Negate = Imm < 0;
    std::uint32_t M = Negate ? static_cast<std::uint32_t>(-std::int64_t(Imm))
                             : static_cast<std::uint32_t>(Imm);
    if (std::has_single_bit(M)) {
      std::uint8_t K = static_cast<std::uint8_t>(std::countr_zero(M));
      x86::GPR Pa = srcI(A, detail::ScratchA);
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      Asm.shlRI32(Pd, K);
      if (Negate)
        Asm.negR32(Pd);
      writeBackI(D, Pd);
      return;
    }
    if (std::popcount(M) == 2) {
      // a*(2^hi + 2^lo) = (a<<hi) + (a<<lo).
      int Hi = 31 - std::countl_zero(M);
      int Lo = std::countr_zero(M);
      x86::GPR Pa = srcI(A, detail::ScratchA);
      Asm.movRR64(detail::ScratchB, Pa);
      Asm.shlRI32(detail::ScratchB, static_cast<std::uint8_t>(Hi));
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      if (Lo != 0)
        Asm.shlRI32(Pd, static_cast<std::uint8_t>(Lo));
      Asm.addRR32(Pd, detail::ScratchB);
      if (Negate)
        Asm.negR32(Pd);
      writeBackI(D, Pd);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.imulRRI32(Pd, Pa, Imm);
    writeBackI(D, Pd);
  }

  void mulLI(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 1) {
      movL(D, A);
      return;
    }
    if (Imm > 0 && std::has_single_bit(static_cast<std::uint32_t>(Imm))) {
      shlLI(D, A,
            static_cast<std::uint8_t>(
                std::countr_zero(static_cast<std::uint32_t>(Imm))));
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.imulRRI64(Pd, Pa, Imm);
    writeBackI(D, Pd);
  }

  void divII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm == 1) {
      movI(D, A);
      return;
    }
    if (Imm > 1 && std::has_single_bit(static_cast<std::uint32_t>(Imm))) {
      // Signed division by 2^k with the rounding-toward-zero bias:
      //   d = (a + ((a >> 31) >>> (32-k))) >> k.
      int K = std::countr_zero(static_cast<std::uint32_t>(Imm));
      x86::GPR Pa = srcI(A, detail::ScratchA);
      Asm.movRR64(detail::ScratchB, Pa);
      Asm.sarRI32(detail::ScratchB, 31);
      Asm.shrRI32(detail::ScratchB, static_cast<std::uint8_t>(32 - K));
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      Asm.addRR32(Pd, detail::ScratchB);
      Asm.sarRI32(Pd, static_cast<std::uint8_t>(K));
      writeBackI(D, Pd);
      return;
    }
    // General divisors: Granlund/Montgomery magic-number multiplication —
    // the natural endpoint of the paper's "emit different machine
    // instructions depending on the value of the immediate operand".
    // Divisors 0 and -1 keep the idiv below: it raises the #DE trap on
    // x / 0 and INT32_MIN / -1, which negation or a magic multiply would
    // silently wrap.
    if (Imm != 0 && Imm != -1 && Imm != INT32_MIN) {
      auto [Magic, Shift] = signedDivisionMagic(Imm);
      x86::GPR Pa = srcI(A, detail::ScratchA);
      // rdx:rax = magic * a (signed 64-bit via imul on sign-extended values).
      Asm.movsxd(detail::ScratchB, Pa);
      Asm.imulRRI64(detail::ScratchB, detail::ScratchB, Magic);
      // q0 = high32(product) (+ a if magic < 0, - a if divisor < 0 handled
      // by the magic's construction); then arithmetic shift and sign fixup.
      Asm.sarRI64(detail::ScratchB, 32);
      if (Magic < 0 && Imm > 0)
        Asm.addRR32(detail::ScratchB, Pa);
      if (Magic > 0 && Imm < 0)
        Asm.subRR32(detail::ScratchB, Pa);
      if (Shift > 0)
        Asm.sarRI32(detail::ScratchB, static_cast<std::uint8_t>(Shift));
      // q += (q >> 31) & 1  — add the sign bit to round toward zero.
      Asm.movRR32(x86::RAX, detail::ScratchB);
      Asm.shrRI32(x86::RAX, 31);
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != detail::ScratchB)
        Asm.movRR64(Pd, detail::ScratchB);
      Asm.addRR32(Pd, x86::RAX);
      writeBackI(D, Pd);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.movRR64(x86::RAX, Pa);
    Asm.movRI64SExt32(detail::ScratchB, Imm);
    Asm.cdq();
    Asm.idivR32(detail::ScratchB);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != x86::RAX)
      Asm.movRR64(Pd, x86::RAX);
    writeBackI(D, Pd);
  }

  void modII(Reg D, Reg A, std::int32_t Imm) {
    if (Imm > 1 && std::has_single_bit(static_cast<std::uint32_t>(Imm))) {
      // Signed remainder by 2^k: m = a - (((a + bias) >> k) << k) with the
      // same rounding bias as division.
      int K = std::countr_zero(static_cast<std::uint32_t>(Imm));
      x86::GPR Pa = srcI(A, detail::ScratchA);
      Asm.movRR64(detail::ScratchB, Pa);
      Asm.sarRI32(detail::ScratchB, 31);
      Asm.shrRI32(detail::ScratchB, static_cast<std::uint8_t>(32 - K));
      Asm.addRR32(detail::ScratchB, Pa);
      Asm.sarRI32(detail::ScratchB, static_cast<std::uint8_t>(K));
      Asm.shlRI32(detail::ScratchB, static_cast<std::uint8_t>(K));
      x86::GPR Pd = dstI(D, detail::ScratchA);
      if (Pd != Pa)
        Asm.movRR64(Pd, Pa);
      Asm.subRR32(Pd, detail::ScratchB);
      writeBackI(D, Pd);
      return;
    }
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.movRR64(x86::RAX, Pa);
    Asm.movRI64SExt32(detail::ScratchB, Imm);
    Asm.cdq();
    Asm.idivR32(detail::ScratchB);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != x86::RDX)
      Asm.movRR64(Pd, x86::RDX);
    writeBackI(D, Pd);
  }

  /// D = sign-extension of the 32-bit value in S.
  void sextIToL(Reg D, Reg S) {
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.movsxd(Pd, Ps);
    writeBackI(D, Pd);
  }

  // --- Double arithmetic ---------------------------------------------------
  void addD(FReg D, FReg A, FReg B) {
    binD(D, A, B, &x86::Assembler::addsd, true);
  }
  void subD(FReg D, FReg A, FReg B) {
    binD(D, A, B, &x86::Assembler::subsd, false);
  }
  void mulD(FReg D, FReg A, FReg B) {
    binD(D, A, B, &x86::Assembler::mulsd, true);
  }
  void divD(FReg D, FReg A, FReg B) {
    binD(D, A, B, &x86::Assembler::divsd, false);
  }

  void negD(FReg D, FReg A) {
    x86::XMM Pa = srcD(A, detail::FScratchA);
    Asm.xorpd(detail::FScratchB, detail::FScratchB);
    Asm.subsd(detail::FScratchB, Pa);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd != detail::FScratchB)
      Asm.movsdRR(Pd, detail::FScratchB);
    writeBackD(D, Pd);
  }

  void cvtIToD(FReg D, Reg S) {
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    Asm.cvtsi2sd32(Pd, Ps);
    writeBackD(D, Pd);
  }

  void cvtLToD(FReg D, Reg S) {
    x86::GPR Ps = srcI(S, detail::ScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    Asm.cvtsi2sd64(Pd, Ps);
    writeBackD(D, Pd);
  }

  void cvtDToI(Reg D, FReg S) { ///< Truncating.
    x86::XMM Ps = srcD(S, detail::FScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.cvttsd2si32(Pd, Ps);
    writeBackI(D, Pd);
  }

  // --- Comparison producing 0/1 --------------------------------------------
  void cmpSetI(CmpKind K, Reg D, Reg A, Reg B) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR32(Pa, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condFor(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  void cmpSetII(CmpKind K, Reg D, Reg A, std::int32_t Imm) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.cmpRI32(Pa, Imm);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condFor(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  void cmpSetL(CmpKind K, Reg D, Reg A, Reg B) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR64(Pa, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condFor(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  void cmpSetD(CmpKind K, Reg D, FReg A, FReg B) {
    x86::XMM Pa = srcD(A, detail::FScratchA);
    x86::XMM Pb = srcD(B, detail::FScratchB);
    Asm.ucomisd(Pa, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.setcc(detail::condForDouble(K), Pd);
    Asm.movzx8RR(Pd, Pd);
    writeBackI(D, Pd);
  }

  // --- Memory --------------------------------------------------------------
  void ldI(Reg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadRM32(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldL(Reg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadRM64(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI8s(Reg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadSExt8(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI8u(Reg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadZExt8(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI16s(Reg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadSExt16(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldI16u(Reg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    Asm.loadZExt16(Pd, Pb, Off);
    writeBackI(D, Pd);
  }

  void ldD(FReg D, Reg Base, std::int32_t Off) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    Asm.movsdRM(Pd, Pb, Off);
    writeBackD(D, Pd);
  }

  void stI(Reg Base, std::int32_t Off, Reg S) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR32(Pb, Off, Ps);
  }

  void stL(Reg Base, std::int32_t Off, Reg S) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR64(Pb, Off, Ps);
  }

  void stI8(Reg Base, std::int32_t Off, Reg S) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR8(Pb, Off, Ps);
  }

  void stI16(Reg Base, std::int32_t Off, Reg S) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::GPR Ps = srcI(S, detail::ScratchB);
    Asm.storeMR16(Pb, Off, Ps);
  }

  void stD(Reg Base, std::int32_t Off, FReg S) {
    x86::GPR Pb = srcI(Base, detail::ScratchA);
    x86::XMM Ps = srcD(S, detail::FScratchA);
    Asm.movsdMR(Pb, Off, Ps);
  }

  // --- Control flow --------------------------------------------------------
  Label newLabel() {
    LabelInfo LI;
    LI.Fixups = ArenaVector<std::size_t>(*Scratch);
    Labels.push_back(LI);
    return Label{static_cast<unsigned>(Labels.size() - 1)};
  }

  void bindLabel(Label L) {
    assert(L.valid() && L.Id < Labels.size() && "bad label");
    LabelInfo &Info = Labels[L.Id];
    assert(!Info.Bound && "label bound twice");
    Info.Bound = true;
    Info.Pc = Asm.pc();
    for (std::size_t Fixup : Info.Fixups)
      Asm.patchBranch(Fixup, Info.Pc);
    Info.Fixups.clear();
  }

  void jump(Label L) {
    assert(L.valid() && L.Id < Labels.size() && "bad label");
    LabelInfo &Info = Labels[L.Id];
    if (Info.Bound)
      Asm.jmpTo(Info.Pc);
    else
      Info.Fixups.push_back(Asm.jmp());
  }

  void brCmpI(CmpKind K, Reg A, Reg B, Label L) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR32(Pa, Pb);
    branchOn(detail::condFor(K), L);
  }

  void brCmpII(CmpKind K, Reg A, std::int32_t Imm, Label L) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.cmpRI32(Pa, Imm);
    branchOn(detail::condFor(K), L);
  }

  void brCmpL(CmpKind K, Reg A, Reg B, Label L) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.cmpRR64(Pa, Pb);
    branchOn(detail::condFor(K), L);
  }

  void brCmpD(CmpKind K, FReg A, FReg B, Label L) {
    x86::XMM Pa = srcD(A, detail::FScratchA);
    x86::XMM Pb = srcD(B, detail::FScratchB);
    Asm.ucomisd(Pa, Pb);
    branchOn(detail::condForDouble(K), L);
  }

  void brTrueI(Reg A, Label L) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.testRR32(Pa, Pa);
    branchOn(x86::Cond::NE, L);
  }

  void brFalseI(Reg A, Label L) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    Asm.testRR32(Pa, Pa);
    branchOn(x86::Cond::E, L);
  }

  // --- Calls ---------------------------------------------------------------
  // Argument slots are SysV positions; prepare all arguments, then emitCall.
  // Sources must be pool registers or spill slots (not static registers in
  // slots >= 4, which alias the argument registers).
  void prepareCallArgI(unsigned Slot, Reg Src) {
    assert(Slot < 6 && "stack-passed call arguments not supported");
    assert(!LeafPool && "call emitted with the caller-saved pool");
    if (isSpill(Src)) {
      Asm.loadRM64(x86::IntArgRegs[Slot], x86::RBP,
                   slotOffset(spillSlot(Src)));
      return;
    }
    x86::GPR Ps = intPhys(Src);
    if (Ps != x86::IntArgRegs[Slot])
      Asm.movRR64(x86::IntArgRegs[Slot], Ps);
  }

  void prepareCallArgP(unsigned Slot, const void *Ptr) {
    assert(Slot < 6 && "stack-passed call arguments not supported");
    assert(!LeafPool && "call emitted with the caller-saved pool");
    Asm.armReloc(support::RelocKind::Ptr);
    Asm.movRI64(x86::IntArgRegs[Slot], reinterpret_cast<std::uintptr_t>(Ptr));
  }

  void prepareCallArgII(unsigned Slot, std::int64_t Imm) {
    assert(Slot < 6 && "stack-passed call arguments not supported");
    assert(!LeafPool && "call emitted with the caller-saved pool");
    Asm.movRI64(x86::IntArgRegs[Slot], static_cast<std::uint64_t>(Imm));
  }

  void prepareCallArgD(unsigned FpSlot, FReg Src) {
    assert(FpSlot < 8 && "stack-passed call arguments not supported");
    assert(!LeafPool && "call emitted with the caller-saved pool");
    if (isSpill(Src)) {
      Asm.movsdRM(x86::FloatArgRegs[FpSlot], x86::RBP,
                  slotOffset(spillSlot(Src)));
      return;
    }
    x86::XMM Ps = fpPhys(Src);
    if (Ps != x86::FloatArgRegs[FpSlot])
      Asm.movsdRR(x86::FloatArgRegs[FpSlot], Ps);
  }

  /// Calls \p Fn. \p NumFpArgs is the number of vector-register arguments
  /// (needed in AL for variadic callees such as printf).
  void emitCall(const void *Fn, unsigned NumFpArgs = 0) {
    assert(!LeafPool && "call emitted with the caller-saved pool");
    Asm.armReloc(support::RelocKind::Callee);
    Asm.movRI64(detail::ScratchA, reinterpret_cast<std::uintptr_t>(Fn));
    Asm.movRI32(x86::RAX, NumFpArgs); // AL = #vector args (variadic ABI).
    Asm.callR(detail::ScratchA);
  }

  /// Calls through a function pointer held in \p Src.
  void emitCallIndirect(Reg Src, unsigned NumFpArgs = 0) {
    assert(!LeafPool && "call emitted with the caller-saved pool");
    x86::GPR Ps = srcI(Src, detail::ScratchA);
    if (Ps != detail::ScratchA)
      Asm.movRR64(detail::ScratchA, Ps);
    Asm.movRI32(x86::RAX, NumFpArgs);
    Asm.callR(detail::ScratchA);
  }

  void resultToI(Reg D) {
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != x86::RAX)
      Asm.movRR64(Pd, x86::RAX);
    writeBackI(D, Pd);
  }

  void resultToL(Reg D) { resultToI(D); }

  void resultToD(FReg D) {
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd != x86::XMM0)
      Asm.movsdRR(Pd, x86::XMM0);
    writeBackD(D, Pd);
  }

  // --- Statistics ----------------------------------------------------------
  unsigned instructionsEmitted() const { return Asm.instructionsEmitted(); }
  std::size_t codeBytes() const { return Asm.pc(); }
  int slotsUsed() const { return NumSlots; }
  x86::Assembler &assembler() { return Asm; }

private:
  struct LabelInfo {
    bool Bound = false;
    std::size_t Pc = 0;
    ArenaVector<std::size_t> Fixups;
  };

  /// Physical register for a non-spill designator; also records pool
  /// registers as touched so finish() keeps their callee-save stores.
  x86::GPR intPhys(Reg R) {
    assert(R >= 0 && R < NumIntPool + NumStaticRegs &&
           "bad register designator");
    if (R >= NumIntPool) {
      assert(!LeafPool && "the caller-saved pool has no static registers");
      return detail::IntPoolPhys[R];
    }
    assert((!LeafPool ||
            ((detail::LeafCallerSavedMask | SavedMask) >> R & 1)) &&
           "callee-saved register used but not saved");
    UsedPoolMask |= 1u << R;
    return Pool[R];
  }

  /// Calls \p Fn(phys) for each callee-saved register the caller-saved
  /// pool saves, in pool order.
  template <class FnT> void forEachSaved(FnT Fn) const {
    for (std::uint32_t M = SavedMask; M; M &= M - 1)
      Fn(Pool[std::countr_zero(M)]);
  }

  /// bindArgs' register keys: a GPR's number, an XMM's number + FpKey, or
  /// -1 for no register.
  static constexpr int FpKey = 16;

  /// The register binding \p B reads (-1: a stack-passed argument).
  static int argSource(const ArgBind &B) {
    if (B.Fp)
      return FpKey + x86::FloatArgRegs[B.Index];
    return B.Index < 6 ? static_cast<int>(x86::IntArgRegs[B.Index]) : -1;
  }

  /// The argument register binding \p B writes: its destination register,
  /// or -1 for a spill slot (a spilled integer passes through r10, which
  /// no binding reads; a spilled double avoids xmm2 while a binding still
  /// reads it, see bindOne).
  int argClobber(const ArgBind &B) const {
    if (isSpill(B.Dst))
      return -1;
    return B.Fp ? FpKey + detail::FloatPoolPhys[B.Dst] : Pool[B.Dst];
  }

  /// Emits one binding, reading register key \p Parked instead of the
  /// argument's own register when >= 0. A move of a register to itself is
  /// omitted. A spilled double is stored through xmm2 (FScratchA), or,
  /// while \p Xmm2Unread (a pending binding still reads the third double
  /// argument), straight from its source.
  void bindOne(const ArgBind &B, int Parked, bool Xmm2Unread = false) {
    if (B.Fp) {
      assert(B.Index < 8 && "stack-passed double arguments not supported");
      x86::XMM Src = Parked >= 0 ? static_cast<x86::XMM>(Parked - FpKey)
                                 : x86::FloatArgRegs[B.Index];
      if (!isSpill(B.Dst)) {
        if (fpPhys(B.Dst) != Src)
          Asm.movsdRR(fpPhys(B.Dst), Src);
      } else if (Xmm2Unread) {
        writeBackD(B.Dst, Src);
      } else {
        Asm.movsdRR(detail::FScratchA, Src);
        writeBackD(B.Dst, detail::FScratchA);
      }
      return;
    }
    x86::GPR Pd = dstI(B.Dst, detail::ScratchA);
    if (Parked >= 0 || B.Index < 6) {
      x86::GPR Src = Parked >= 0 ? static_cast<x86::GPR>(Parked)
                                 : x86::IntArgRegs[B.Index];
      if (Pd != Src)
        Asm.movRR64(Pd, Src);
    } else {
      Asm.loadRM64(Pd, x86::RBP,
                   16 + 8 * static_cast<std::int32_t>(B.Index - 6));
    }
    writeBackI(B.Dst, Pd);
  }

  x86::XMM fpPhys(FReg R) const {
    assert(R >= 0 && R < NumFloatPool && "bad register designator");
    return detail::FloatPoolPhys[R];
  }

  std::int32_t slotOffset(int Slot) const {
    assert(Slot >= 0 && "bad spill slot");
    return -(CalleeSaveBytes + 8 * (Slot + 1));
  }

  /// Physical register holding R's value: pool register, or a load into
  /// \p Scratch for spilled designators.
  x86::GPR srcI(Reg R, x86::GPR Scratch) {
    if (!isSpill(R))
      return intPhys(R);
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.loadRM64(Scratch, x86::RBP, slotOffset(Slot));
    return Scratch;
  }

  x86::XMM srcD(FReg R, x86::XMM Scratch) {
    if (!isSpill(R))
      return fpPhys(R);
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.movsdRM(Scratch, x86::RBP, slotOffset(Slot));
    return Scratch;
  }

  /// Physical destination for R (Scratch when spilled); pair with writeBack.
  x86::GPR dstI(Reg R, x86::GPR Scratch) {
    return isSpill(R) ? Scratch : intPhys(R);
  }

  x86::XMM dstD(FReg R, x86::XMM Scratch) const {
    return isSpill(R) ? Scratch : fpPhys(R);
  }

  void writeBackI(Reg R, x86::GPR Phys) {
    if (!isSpill(R))
      return;
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.storeMR64(x86::RBP, slotOffset(Slot), Phys);
  }

  void writeBackD(FReg R, x86::XMM Phys) {
    if (!isSpill(R))
      return;
    int Slot = spillSlot(R);
    if (Slot >= NumSlots)
      NumSlots = Slot + 1;
    Asm.movsdMR(x86::RBP, slotOffset(Slot), Phys);
  }

  // Member-pointer op arguments name x86::Assembler encoders.
  using BinOp = void (x86::Assembler::*)(x86::GPR, x86::GPR);
  using FBinOp = void (x86::Assembler::*)(x86::XMM, x86::XMM);

  void binI(Reg D, Reg A, Reg B, BinOp Op, bool Commutative) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd == Pb && Pd != Pa) {
      if (Commutative) {
        (Asm.*Op)(Pd, Pa);
        writeBackI(D, Pd);
        return;
      }
      Asm.movRR64(detail::ScratchAux, Pb);
      Pb = detail::ScratchAux;
    }
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    (Asm.*Op)(Pd, Pb);
    writeBackI(D, Pd);
  }

  void binII(Reg D, Reg A, std::int32_t Imm,
             void (x86::Assembler::*Op)(x86::GPR, std::int32_t), bool) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    (Asm.*Op)(Pd, Imm);
    writeBackI(D, Pd);
  }

  void shiftI(Reg D, Reg A, Reg B, void (x86::Assembler::*Op)(x86::GPR)) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.movRR64(x86::RCX, Pb);
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Pa)
      Asm.movRR64(Pd, Pa);
    (Asm.*Op)(Pd);
    writeBackI(D, Pd);
  }

  void divModCommon(Reg D, Reg A, Reg B, bool WantRemainder, bool Unsigned) {
    x86::GPR Pa = srcI(A, detail::ScratchA);
    x86::GPR Pb = srcI(B, detail::ScratchB);
    Asm.movRR64(x86::RAX, Pa);
    if (Unsigned) {
      Asm.xorRR32(x86::RDX, x86::RDX);
      Asm.divR32(Pb);
    } else {
      Asm.cdq();
      Asm.idivR32(Pb);
    }
    x86::GPR Res = WantRemainder ? x86::RDX : x86::RAX;
    x86::GPR Pd = dstI(D, detail::ScratchA);
    if (Pd != Res)
      Asm.movRR64(Pd, Res);
    writeBackI(D, Pd);
  }

  void binD(FReg D, FReg A, FReg B, FBinOp Op, bool Commutative) {
    x86::XMM Pa = srcD(A, detail::FScratchA);
    x86::XMM Pb = srcD(B, detail::FScratchB);
    x86::XMM Pd = dstD(D, detail::FScratchA);
    if (Pd == Pb && Pd != Pa) {
      if (Commutative) {
        (Asm.*Op)(Pd, Pa);
        writeBackD(D, Pd);
        return;
      }
      Asm.movsdRR(detail::FScratchAux, Pb);
      Pb = detail::FScratchAux;
    }
    if (Pd != Pa)
      Asm.movsdRR(Pd, Pa);
    (Asm.*Op)(Pd, Pb);
    writeBackD(D, Pd);
  }

  void branchOn(x86::Cond C, Label L) {
    assert(L.valid() && L.Id < Labels.size() && "bad label");
    LabelInfo &Info = Labels[L.Id];
    if (Info.Bound)
      Asm.jccTo(C, Info.Pc);
    else
      Info.Fixups.push_back(Asm.jcc(C));
  }

  void epilogue() {
    if (ExitJumps) {
      jump(SharedExit);
      return;
    }
    if (SharedExit.valid() && !ExitBound) {
      bindLabel(SharedExit);
      ExitBound = true;
    }
    if (LeafPool) {
      forEachSaved([&](x86::GPR P) {
        Asm.loadRM64(P, x86::RBP, detail::saveSlotOffset(P));
      });
    } else {
      for (int I = 0; I < NumIntPool; ++I) {
        RestoreSitePcs.push_back(Asm.pc());
        Asm.loadRM64(detail::IntPoolPhys[I], x86::RBP, -8 * (I + 1));
      }
    }
    Asm.movRR64(x86::RSP, x86::RBP);
    Asm.pop(x86::RBP);
    Asm.ret();
  }

  x86::Assembler Asm;
  /// Private fallback when no scratch arena was injected (kept small: the
  /// one-pass backend's bookkeeping is a few hundred bytes).
  std::unique_ptr<Arena> OwnedScratch;
  Arena *Scratch;
  bool SpillingEnabled = true;
  std::uint32_t FreeIntMask;
  std::uint32_t FreeFloatMask;
  ArenaVector<int> FreeSpillSlots;
  int NumSlots = 0;
  ArenaVector<LabelInfo> Labels;
  Label SharedExit;
  bool ExitBound = false, ExitJumps = false;
  std::size_t FramePatchOffset = 0;
  bool Finished = false;
  /// This function's integer pool: detail::IntPoolPhys, or LeafPoolPhys
  /// after useCallerSavedPool().
  const x86::GPR *Pool = detail::IntPoolPhys;
  bool LeafPool = false;
  /// Caller-saved pool only: the callee-saved pool indices enter() saved.
  std::uint32_t SavedMask = 0;
  /// Pool registers actually handed to emitted code; unused ones get their
  /// callee-save stores/reloads erased at finish().
  std::uint32_t UsedPoolMask = 0;
  std::size_t SaveSitePc[NumIntPool] = {};
  ArenaVector<std::size_t> RestoreSitePcs; ///< NumIntPool entries/epilogue.
};

} // namespace vcode
} // namespace tcc

#endif // TICKC_VCODE_VCODE_H
