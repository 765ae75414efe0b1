//===- verify/AdmissionVerify.cpp - Flow-sensitive code admission ---------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Layer 3: proof-before-execute admission of finalized machine code, in the
// spirit of SFI/NaCl-style static validators, and the only analyzer of
// emitted bytes. One strict decode feeds a few linear facts and a recovered
// control-flow graph, over which path-sensitive properties are proven by
// worklist abstract interpretation:
//
//  * linear facts — the profiling hook increments exactly the registered
//    counter (or is absent when profiling is off), every `pop rbp` pairs
//    with a ret, and, on fresh ICODE compiles, every instruction is
//    explainable by an opcode the link-time-pruning usage table recorded,
//    so the assembler and the pruning table cannot drift apart silently;
//  * CFG recovery — every relative branch lands on an instruction boundary
//    inside the region, the region ends in a terminator (no fallthrough off
//    the end), and indirect jumps are never admitted. Unreachable ranges
//    are admitted but proven inert (no reachable transfer can enter them),
//    since the walkers legitimately emit dead jumps and epilogue tails
//    after explicit returns;
//  * stack discipline — an abstract stack depth (bytes below the entry rsp)
//    is computed per block; paths may only join at equal depth, every ret
//    is proven to unwind to exactly the entry depth with the frame pointer
//    restored, and every indirect call happens at an ABI-aligned depth;
//  * frame integrity — rsp/rbp are written only by the canonical frame
//    protocol, their values never escape into a general or xmm register,
//    into arithmetic, or into memory (any of which would open a
//    store-to-own-stack laundering channel), rsp-based memory operands are
//    never admitted, and rbp-relative accesses are checked as *byte
//    ranges* [Disp, Disp+width): every store must land entirely inside the
//    reserved frame (a qword store at [rbp-1] that would reach the saved
//    rbp is rejected, not just stores with non-negative displacements),
//    and loads may touch only the frame or the caller's stack-passed
//    arguments at [rbp+16) and up — the saved rbp and the return address
//    are unreachable for both reads and writes;
//  * callee-saved obligations — rbx/r12..r15 must be stored to their
//    canonical save slots before being written (a call-free ICODE
//    function's pool is rdi/rsi/r8/r9, which carry no obligation, then
//    rbx, which it saves only if used), every may-clobbered
//    register is proven restored from its slot on all paths to every ret,
//    and while a save slot is live (its register is must-saved on every
//    path) no other store — aligned, misaligned, or partial — may overlap
//    it, so the restored value is provably the entry value;
//  * call-target confinement — with a relocation side table in hand (every
//    snapshot load has one), each reloc must land exactly on a decoded
//    movabs payload, and an indirect call may only target a value that is
//    either computed at run time or materialized by a Callee/Ptr reloc slot
//    (an address the loader's own SpecKey walk declared). A stray embedded
//    imm64 used as a call target — the patched-but-hostile-record attack —
//    is rejected. Provenance is tracked through register moves, through
//    arithmetic (the result of an ALU op, shift, multiply, or widening
//    move is the join of its register inputs, and an immediate operand
//    joins as Plain, so `movabs; add r, 0` cannot bleach a stray target),
//    through the xmm file (movq/cvt round-trips preserve values), and
//    byte-accurately through rbp-relative frame cells of every access
//    width (two dword stores cannot assemble a stray target inside a
//    qword spill slot);
//  * spill discipline (ICODE fresh compiles only) — a must-initialized bit
//    per tracked frame cell, intersected where paths join, proves every
//    load from a spill slot is preceded on all paths by a store to it: the
//    machine-level proof that spilled uses reload initialized memory;
//  * page guards — in a page-guarded ICODE function, the VCODE fallback
//    behind the guard is entered only through it and never by falling
//    through, and the ICODE-only facts stop where it starts.
//
// The abstract state lattice is documented in DESIGN.md ("Machine-code
// admission"); rejection diagnostics carry a hex window plus a CFG +
// abstract-state dump.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"
#include "verify/VerifyInternal.h"

#include "observability/Events.h"
#include "support/Reloc.h"
#include "x86/X86Decoder.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace tcc {
namespace verify {

using icode::Op;
using x86::Decoded;
using x86::InstrClass;

namespace {

constexpr std::uint8_t RegRAX = 0, RegRBX = 3, RegRSP = 4, RegRBP = 5,
                       RegR10 = 10;

/// Byte offset of the first spill slot below the frame pointer: the 40-byte
/// callee-save area comes first, slots follow (VCode::slotOffset).
constexpr std::int32_t FirstSlotOff = -48;

/// Callee-saved registers and their canonical save slots below rbp
/// (vcode::detail::IntPoolPhys order: rbx, r12..r15 at [rbp-8(i+1)]). Every
/// frame keeps this layout whichever pool it uses (vcode::detail::
/// saveSlotOffset): a call-free ICODE function saves only the rbx it
/// uses, at [rbp-8].
constexpr std::uint8_t CalleeSavedRegs[5] = {RegRBX, 12, 13, 14, 15};

constexpr std::uint16_t calleeBit(std::uint8_t R) {
  return static_cast<std::uint16_t>(1u << R);
}

constexpr std::uint16_t CalleeSavedMask =
    calleeBit(RegRBX) | calleeBit(12) | calleeBit(13) | calleeBit(14) |
    calleeBit(15);

std::uint8_t calleeRegForSlot(std::int32_t Disp) {
  for (unsigned I = 0; I < 5; ++I)
    if (Disp == -8 * static_cast<std::int32_t>(I + 1))
      return CalleeSavedRegs[I];
  return 0xff;
}

bool isIntArgReg(std::uint8_t R) {
  // rdi, rsi, rdx, rcx, r8, r9
  return R == 7 || R == 6 || R == 2 || R == 1 || R == 8 || R == 9;
}

/// Which ICODE opcodes can account for one decoded instruction. Scaffold
/// instructions (frame setup, register shuffling, nop fill) are emitted for
/// bookkeeping regardless of the IR content.
struct Just {
  bool Scaffold = false;
  Op Ops[8];
  unsigned N = 0;

  void add(Op O) { Ops[N++] = O; }
};

Just justify(const Decoded &D) {
  Just J;
  switch (D.Cls) {
  case InstrClass::Push:
  case InstrClass::Pop:
  case InstrClass::Ret:
  case InstrClass::Nop:
  case InstrClass::MovRR:
  case InstrClass::SseMov:
    J.Scaffold = true;
    break;
  case InstrClass::MovImm32:
    J.add(Op::SetI);
    if (D.Rm == RegRAX) { // `mov eax, nfp` before a vararg-ABI call
      J.add(Op::Call);
      J.add(Op::CallIndirect);
    }
    break;
  case InstrClass::MovImm64:
    if (D.Rm == 10 || D.Rm == 11) { // scratch: call targets, wide constants
      J.Scaffold = true;
      break;
    }
    J.add(Op::SetL);
    J.add(Op::SetP);
    if (isIntArgReg(D.Rm)) { // an outgoing argument (rdi, rsi, r8 and r9
      J.add(Op::CallArgP);   // are also caller-saved pool registers)
      J.add(Op::CallArgII);
    }
    break;
  case InstrClass::MovImmSExt:
    J.add(Op::SetL);
    J.add(Op::SetP);
    J.add(Op::DivII);
    J.add(Op::ModII);
    break;
  case InstrClass::Load:
    if (D.Rm == RegRBP)
      J.Scaffold = true; // spill reload / stack-arg bind / save-area restore
    else
      J.add(D.RexW ? Op::LdL : Op::LdI);
    break;
  case InstrClass::LoadSExt8: J.add(Op::LdI8s); break;
  case InstrClass::LoadZExt8: J.add(Op::LdI8u); break;
  case InstrClass::LoadSExt16: J.add(Op::LdI16s); break;
  case InstrClass::LoadZExt16: J.add(Op::LdI16u); break;
  case InstrClass::Store8: J.add(Op::StI8); break;
  case InstrClass::Store16: J.add(Op::StI16); break;
  case InstrClass::Store32: J.add(Op::StI); break;
  case InstrClass::Store64:
    if (D.Rm == RegRBP)
      J.Scaffold = true; // spill store / callee-save
    else
      J.add(Op::StL);
    break;
  case InstrClass::LockInc:
    J.add(Op::ProfileInc);
    break;
  case InstrClass::AluRR:
    switch (D.Op8) {
    case 0x03:
      J.add(Op::AddI); J.add(Op::AddL);
      J.add(Op::MulII); J.add(Op::DivII); J.add(Op::ModII);
      break;
    case 0x2B:
      J.add(Op::SubI); J.add(Op::SubL);
      J.add(Op::MulII); J.add(Op::DivII); J.add(Op::ModII);
      break;
    case 0x23: J.add(Op::AndI); break;
    case 0x0B: J.add(Op::OrI); break;
    case 0x33:
      J.add(Op::XorI); J.add(Op::SetI); J.add(Op::SetL); J.add(Op::SetP);
      J.add(Op::DivUI); J.add(Op::ModUI);
      J.add(Op::Call); J.add(Op::CallIndirect); // xor eax,eax for nfp=0
      break;
    default: // 0x3B cmp
      J.add(Op::CmpSetI); J.add(Op::CmpSetL);
      J.add(Op::BrCmpI); J.add(Op::BrCmpL);
      break;
    }
    break;
  case InstrClass::TestRR:
    J.add(Op::BrTrue);
    J.add(Op::BrFalse);
    break;
  case InstrClass::AluRI:
    switch (D.Reg & 7) {
    case 0: J.add(Op::AddII); J.add(Op::AddLI); break;
    case 1: J.add(Op::OrII); break;
    case 4: J.add(Op::AndII); break;
    case 5:
      if (D.RexW && D.Rm == RegRSP)
        J.Scaffold = true; // the patchable frame reserve
      else
        J.add(Op::SubII);
      break;
    case 6: J.add(Op::XorII); break;
    default: J.add(Op::CmpSetII); J.add(Op::BrCmpII); break; // 7 cmp
    }
    break;
  case InstrClass::ImulRR:
    J.add(Op::MulI);
    J.add(Op::MulL);
    break;
  case InstrClass::ImulRRI:
    if (D.RexW) {
      J.add(Op::MulLI); J.add(Op::DivII); J.add(Op::ModII);
    } else
      J.add(Op::MulII);
    break;
  case InstrClass::UnaryGrp:
    switch (D.Reg & 7) {
    case 2: J.add(Op::NotI); break;
    case 3:
      J.add(Op::NegI); J.add(Op::MulII);
      J.add(Op::DivII); J.add(Op::ModII);
      break;
    case 6: J.add(Op::DivUI); J.add(Op::ModUI); break;
    default: // 7 idiv
      J.add(Op::DivI); J.add(Op::ModI);
      J.add(Op::DivII); J.add(Op::ModII);
      break;
    }
    break;
  case InstrClass::Cdq:
    if (!D.RexW) {
      J.add(Op::DivI); J.add(Op::ModI);
      J.add(Op::DivII); J.add(Op::ModII);
    }
    break;
  case InstrClass::ShiftCl:
    switch (D.Reg & 7) {
    case 4: J.add(Op::ShlI); break;
    case 5: J.add(Op::UShrI); break;
    default: J.add(Op::ShrI); break;
    }
    break;
  case InstrClass::ShiftImm:
    J.add(Op::ShlII); J.add(Op::ShrII); J.add(Op::UShrII); J.add(Op::ShlLI);
    J.add(Op::MulII); J.add(Op::MulLI); J.add(Op::DivII); J.add(Op::ModII);
    break;
  case InstrClass::Movsxd:
    J.add(Op::SextIToL);
    J.add(Op::DivII);
    J.add(Op::ModII);
    break;
  case InstrClass::Movzx8RR:
    J.add(Op::CmpSetI); J.add(Op::CmpSetII);
    J.add(Op::CmpSetL); J.add(Op::CmpSetD);
    break;
  case InstrClass::Setcc:
    J.add(Op::CmpSetI); J.add(Op::CmpSetII);
    J.add(Op::CmpSetL); J.add(Op::CmpSetD);
    break;
  case InstrClass::Jcc:
    J.add(Op::BrCmpI); J.add(Op::BrCmpII); J.add(Op::BrCmpL);
    J.add(Op::BrCmpD); J.add(Op::BrTrue); J.add(Op::BrFalse);
    break;
  case InstrClass::Jmp:
    J.add(Op::Jump);
    break;
  case InstrClass::CallInd:
    J.add(Op::Call);
    J.add(Op::CallIndirect);
    break;
  case InstrClass::SseLoad:
    if (D.Rm == RegRBP)
      J.Scaffold = true;
    else
      J.add(Op::LdD);
    break;
  case InstrClass::SseStore:
    if (D.Rm == RegRBP)
      J.Scaffold = true;
    else
      J.add(Op::StD);
    break;
  case InstrClass::SseArith:
    switch (D.Op8) {
    case 0x58: J.add(Op::AddD); break;
    case 0x5C: J.add(Op::SubD); J.add(Op::NegD); break;
    case 0x59: J.add(Op::MulD); break;
    case 0x5E: J.add(Op::DivD); break;
    default: break; // sqrtsd: never generated from ICODE
    }
    break;
  case InstrClass::SseUcomi:
    J.add(Op::CmpSetD);
    J.add(Op::BrCmpD);
    break;
  case InstrClass::SseXorpd:
    J.add(Op::SetD);
    J.add(Op::NegD);
    break;
  case InstrClass::SseCvtSI2SD:
    J.add(D.RexW ? Op::CvtLToD : Op::CvtIToD);
    break;
  case InstrClass::SseCvtSD2SI:
    if (!D.RexW)
      J.add(Op::CvtDToI);
    break;
  case InstrClass::MovqXR:
    J.add(Op::SetD);
    break;
  // Assembler surface the back ends never reach: no justification, so an
  // occurrence under the cross-check is itself the finding.
  case InstrClass::Ud2:
  case InstrClass::Lea:
  case InstrClass::Movsx8RR:
  case InstrClass::Movzx16RR:
  case InstrClass::Movsx16RR:
  case InstrClass::JmpInd:
  case InstrClass::MovqRX:
    break;
  }
  return J;
}

/// Provenance of a 64-bit value, for the call-target confinement proof.
/// Ordered so that join = max:
///   Trusted  — materialized by a reloc-slot movabs (Callee/Ptr kind): an
///              address the loader's SpecKey walk declared. Admissible as
///              an indirect-call target.
///   Computed — produced at run time (loads, arithmetic, call results).
///              Admissible: this is how emitCallIndirect feeds fn pointers.
///   Plain    — an embedded immediate outside the reloc table (or a profile
///              slot, or a popped/unknown stack cell). Using one as a call
///              target means the record transfers somewhere the key never
///              declared — rejected.
enum class Prov : std::uint8_t { Trusted = 0, Computed = 1, Plain = 2 };

Prov provJoin(Prov A, Prov B) { return A > B ? A : B; }

/// A tracked frame cell's abstract value in one byte: its provenance in the
/// low bits, plus InitBit once the cell is stored on all paths (spill fact
/// only).
constexpr std::uint8_t CellProvMask = 0x03, InitBit = 0x80;

Prov cellProv(std::uint8_t V) { return static_cast<Prov>(V & CellProvMask); }

/// A block's abstract state. Fixed-size, so visiting a block copies bytes;
/// the per-cell values sit beside it in Admission::CellVals.
struct AbsState {
  bool Valid = false;          ///< Block has received an entry state.
  std::int64_t Depth = 0;      ///< Bytes below the entry rsp.
  std::int64_t RbpDepth = -1;  ///< Depth captured in rbp; -1 = not a frame.
  std::uint16_t Saved = 0;     ///< Must-saved callee regs (∩ at joins).
  std::uint16_t Restored = 0;  ///< Must-restored callee regs (∩ at joins).
  std::uint16_t Clobbered = 0; ///< May-clobbered callee regs (∪ at joins).
  Prov Reg[16] = {};           ///< Per-GPR value provenance.
  Prov Xmm[16] = {};           ///< Per-XMM value provenance (movq round
                               ///< trips and cvtsi2sd/cvttsd2si preserve
                               ///< 48-bit pointers exactly, so the xmm
                               ///< file is a laundering channel too).

  bool sameShape(const AbsState &O) const {
    return Depth == O.Depth && RbpDepth == O.RbpDepth;
  }
};

/// Grows \p V to at least \p N elements; never shrinks, so a reused array
/// keeps its capacity.
template <typename T> void grow(std::vector<T> &V, std::size_t N) {
  if (V.size() < N)
    V.resize(N);
}

/// Offset map entries (Admission::At): the index of the instruction that
/// starts at a byte, PayloadTag | index on a movabs imm64 payload, NoIdx
/// anywhere else.
constexpr std::uint32_t NoIdx = UINT32_MAX, PayloadTag = 0x80000000u;

/// Regions up to this size keep their arrays on the thread after the call.
constexpr std::size_t ScratchKeepBytes = 64 * 1024;

/// One admission's analysis. A thread reuses one instance for every call
/// (verifyAdmission), so the arrays below keep their capacity and a
/// steady-state admission allocates nothing. They are sized up, never
/// shrunk, and each entry is written before it is read: [0, NI) for the
/// per-instruction arrays, [0, Size) for At, [0, Blocks.size()) for the
/// per-block ones.
struct Admission {
  const AdmissionInputs *In = nullptr;
  Result *R = nullptr;

  std::size_t NI = 0; ///< Decoded instructions.
  std::vector<Decoded> Ins;
  std::vector<std::uint32_t> Starts; ///< Starts[NI] is the region size.
  std::vector<std::uint32_t> At;     ///< Byte offset -> instruction.
  std::vector<std::uint8_t> Leader;  ///< Instruction starts a block.
  /// jcc, jmp and indirect-jump instructions, in stream order.
  std::vector<std::uint32_t> Transfers;

  // Per decoded movabs: the reloc kind of the slot its payload sits on, or
  // None when the immediate is outside the table.
  std::vector<support::RelocKind> ImmSlotKind;

  // Linear-fact tallies from the decode loop.
  std::uint64_t Calls = 0; ///< Indirect-call sites (verify.admit.calls).
  unsigned Hooks = 0, Pops = 0, Rets = 0;

  std::int64_t Reserve = 0; ///< Prologue frame reserve (sub rsp, imm).
  // A page-guarded ICODE function (findGuard): guard units occupy
  // instructions [GuardBegin, GuardEnd), and the fallback body they branch
  // to starts at instruction TwinIdx (NI when there is none).
  std::size_t GuardBegin = 0, GuardEnd = 0, TwinIdx = 0;

  // Tracked rbp-relative frame cells (provenance flows through them,
  // byte-accurately: a cell records the widest access at its displacement,
  // and stores that only partially cover a cell weak-update it).
  struct Cell {
    std::int32_t Disp = 0;
    std::int32_t Width = 0; ///< Bytes, widest access seen at Disp.
  };
  std::vector<Cell> Cells;
  // Per instruction: the cell of its spill-slot qword access, or -1 (filled
  // only when the spill fact is on).
  std::vector<std::int32_t> SpillCell;

  struct Blk {
    std::uint32_t Begin = 0, End = 0; // [Begin, End) instruction indices
    std::uint32_t Succ[2] = {0, 0};
    std::uint8_t NumSucc = 0;
    std::uint8_t DfsNext = 0; ///< Next successor the order walk follows.
    bool Reachable = false;
    bool JoinReported = false;
  };
  std::vector<Blk> Blocks;
  std::vector<std::uint32_t> BlockOf;
  std::vector<std::uint32_t> Order;  ///< Reachable blocks, reverse post-order.
  std::vector<std::uint32_t> Stack;  ///< Order walk.
  std::vector<std::uint8_t> Pending; ///< Block's entry state changed.
  std::vector<AbsState> InState;
  /// Cells.size() bytes per row: block BI's entry cells in row BI, the
  /// visit's working cells in the row after the last block.
  std::vector<std::uint8_t> CellVals;
  /// Some fixpoint visit hit a violation, so the reporting pass must run.
  bool Flagged = false;

  std::string CfgDump; // Built lazily on first flow failure.

  std::uint8_t *cellsOf(std::size_t Row) {
    return CellVals.data() + Row * Cells.size();
  }

  void fail(std::size_t Off, const char *Cat, std::string Msg,
            bool WithCfg = false) {
    if (R->diags().size() > 16)
      return;
    std::string Dump = detail::hexWindow(In->Code, In->Size, Off);
    if (WithCfg) {
      if (CfgDump.empty())
        CfgDump = renderCfg();
      Dump += CfgDump;
    }
    R->fail(Layer::Admit, Cat,
            Msg + " (at offset 0x" + [&] {
              char B[16];
              std::snprintf(B, sizeof(B), "%zx", Off);
              return std::string(B);
            }() + ")",
            std::move(Dump));
  }

  //===--------------------------------------------------------------------===
  // Phase 1: strict decode.
  //===--------------------------------------------------------------------===

  /// The one pass over the bytes. Besides the instruction table it fills
  /// the offset map (instruction starts and movabs payloads), the leaders
  /// that follow a terminator, the control transfers, the frame cells and
  /// the linear-fact tallies, so no later phase walks the stream for them.
  bool decodeAll() {
    std::size_t Size = In->Size;
    if (Size == 0) {
      fail(0, "boundary", "empty code region");
      return false;
    }
    grow(Ins, Size);
    grow(Starts, Size + 1);
    grow(Leader, Size);
    grow(ImmSlotKind, Size);
    if (In->ICodeFacts)
      grow(SpillCell, Size);
    grow(At, Size);
    std::fill_n(At.begin(), Size, NoIdx);
    bool AfterTerm = true; // Instruction 0 leads the entry block.
    for (std::size_t Off = 0; Off < Size; ++NI) {
      Decoded &D = Ins[NI];
      const char *Err = "";
      x86::DecodeStatus St = x86::decodeOne(In->Code, Size, Off, D, &Err);
      if (St != x86::DecodeStatus::Ok) {
        fail(Off,
             St == x86::DecodeStatus::Truncated ? "boundary" : "decode", Err);
        return false;
      }
      auto Idx = static_cast<std::uint32_t>(NI);
      Starts[NI] = static_cast<std::uint32_t>(Off);
      At[Off] = Idx;
      Leader[NI] = AfterTerm;
      AfterTerm = false;
      switch (D.Cls) {
      case InstrClass::Ret:
        ++Rets;
        AfterTerm = true;
        break;
      case InstrClass::Jcc:
      case InstrClass::Jmp:
        AfterTerm = true;
        Transfers.push_back(Idx);
        break;
      case InstrClass::JmpInd:
        Transfers.push_back(Idx);
        break;
      case InstrClass::Pop:
        ++Pops;
        break;
      case InstrClass::CallInd:
        ++Calls;
        break;
      case InstrClass::LockInc:
        ++Hooks;
        break;
      case InstrClass::MovImm64:
        At[Off + D.Len - 8] = PayloadTag | Idx;
        ImmSlotKind[NI] = support::RelocKind::None;
        break;
      default:
        break;
      }
      if (In->ICodeFacts)
        SpillCell[NI] = -1;
      if (D.IsMem && D.Rm == RegRBP && D.Disp < 0)
        noteCell(NI, D);
      Off += D.Len;
    }
    Starts[NI] = static_cast<std::uint32_t>(Size);
    return true;
  }

  /// Tracks the frame cell an rbp-relative access at a negative
  /// displacement touches.
  void noteCell(std::size_t I, const Decoded &D) {
    std::int32_t W = memWidth(D);
    if (W == 0)
      return;
    auto It = std::find_if(Cells.begin(), Cells.end(),
                           [&](const Cell &C) { return C.Disp == D.Disp; });
    if (It == Cells.end())
      It = Cells.insert(Cells.end(), Cell{D.Disp, W});
    else
      It->Width = std::max(It->Width, W);
    if (In->ICodeFacts && isSpillAccess(D))
      SpillCell[I] = static_cast<std::int32_t>(It - Cells.begin());
  }

  /// A page-guarded ICODE function is one frame with two bodies: the
  /// prologue, guard units `lea r10, [arg+lo]; and r10d, 4095;
  /// cmp r10d, k; ja twin` (vcode::VCode::pageGuard), the branch-free
  /// body, then the short-circuit fallback whose epilogues jump back to the
  /// body's exit. The backend's own facts hold for the body only; the
  /// fallback is VCODE output and gets what a VCODE compile gets. The
  /// fallback must be reachable only through the guard, and nothing may
  /// fall into it.
  void findGuard() {
    GuardBegin = GuardEnd = 0;
    TwinIdx = NI;
    // The guard follows the frame setup and its callee-save slots.
    std::size_t I = 3;
    while (I < NI && I < 8 &&
           (Ins[I].Cls == InstrClass::Nop ||
            (Ins[I].Cls == InstrClass::Store64 && Ins[I].Rm == RegRBP)))
      ++I;
    auto isR10Imm = [&](std::size_t K, std::uint8_t Digit) {
      const Decoded &E = Ins[K];
      return E.Cls == InstrClass::AluRI && !E.RexW && !E.IsMem &&
             E.Rm == RegR10 && (E.Reg & 7) == Digit;
    };
    std::int64_t Twin = -1;
    std::size_t End = I;
    for (; End + 4 <= NI; End += 4) {
      const Decoded &L = Ins[End];
      if (!(L.Cls == InstrClass::Lea && L.RexW && L.Reg == RegR10 &&
            isIntArgReg(L.Rm) && isR10Imm(End + 1, 4) &&
            Ins[End + 1].Imm == 4095 && isR10Imm(End + 2, 7) &&
            Ins[End + 2].Imm >= 0 && Ins[End + 2].Imm < 4096 &&
            Ins[End + 3].Cls == InstrClass::Jcc &&
            Ins[End + 3].CondCode == 0x7))
        break;
      std::int64_t T = branchTarget(End + 3);
      if (Twin >= 0 && T != Twin) {
        fail(Starts[End + 3], "guard", "page-guard units branch apart");
        return;
      }
      Twin = T;
    }
    if (Twin < 0)
      return; // No guard: one body.
    if (Twin >= static_cast<std::int64_t>(In->Size) ||
        Twin <= static_cast<std::int64_t>(Starts[End]) ||
        At[static_cast<std::size_t>(Twin)] & PayloadTag)
      return; // buildCfg rejects the branch itself.
    GuardBegin = I;
    GuardEnd = End;
    TwinIdx = At[static_cast<std::size_t>(Twin)];
    const Decoded &Before = Ins[TwinIdx - 1];
    if (Before.Cls != InstrClass::Ret && Before.Cls != InstrClass::Jmp)
      fail(Starts[TwinIdx], "cfg-fallthrough",
           "the guarded body falls through into its fallback");
    for (std::uint32_t K : Transfers) {
      if (K >= TwinIdx || (K >= GuardBegin && K < GuardEnd))
        continue;
      std::int64_t T = branchTarget(K);
      if (T >= Twin && T < static_cast<std::int64_t>(In->Size))
        fail(Starts[K], "guard",
             "the fallback is entered other than through the page guard");
    }
    if (In->ICodeFacts)
      std::fill(SpillCell.begin() + static_cast<std::ptrdiff_t>(TwinIdx),
                SpillCell.begin() + static_cast<std::ptrdiff_t>(NI), -1);
  }

  //===--------------------------------------------------------------------===
  // Phase 2: linear facts over the decoded stream.
  //===--------------------------------------------------------------------===

  /// The facts that need no CFG. None of them stops the analysis: the
  /// structural phases below still run and report their own findings. The
  /// decode loop tallied what they count; the stream is walked again only
  /// when some instruction needs a closer look.
  void checkLinearFacts() {
    const icode::EmitterUsage *Usage =
        In->ICodeFacts ? &icode::ICode::emitterUsage() : nullptr;
    if (Usage || Hooks)
      for (std::size_t I = 0; I < NI; ++I) {
        const Decoded &D = Ins[I];
        if (Usage && I < TwinIdx) {
          Just J = justify(D);
          bool Ok = J.Scaffold || (I >= GuardBegin && I < GuardEnd);
          for (unsigned K = 0; K < J.N && !Ok; ++K)
            Ok = Usage->isUsed(J.Ops[K]);
          if (!Ok)
            fail(Starts[I], "emitter-usage",
                 std::string("decoded `") + x86::instrClassName(D.Cls) +
                     "` has no recorded ICODE opcode that could have "
                     "emitted it (assembler/pruning-table drift)");
        }
        if (D.Cls == InstrClass::LockInc)
          checkProfileHook(I);
      }
    // Every epilogue is `mov rsp, rbp; pop rbp; ret`, so a ret that lost
    // its pairing (smashed to a nop, say) shows up here even when the CFG
    // phase would only see a fallthrough or a dead tail.
    if (Pops != Rets)
      fail(0, "stack-balance",
           "pop/ret imbalance: " + std::to_string(Pops) + " pop, " +
               std::to_string(Rets) + " ret");
    if (In->ExpectProfile && Hooks == 0)
      fail(0, "profile", "profiling requested but no hook was planted");
  }

  void checkProfileHook(std::size_t I) {
    if (!In->ExpectProfile) {
      fail(Starts[I], "profile", "profiling hook present but profiling is off");
      return;
    }
    if (Ins[I].Rm != RegR10 || Ins[I].Disp != 0) {
      fail(Starts[I], "profile",
           "counter increment does not use the planted [r10] form");
      return;
    }
    if (I == 0 || Ins[I - 1].Cls != InstrClass::MovImm64 ||
        Ins[I - 1].Rm != RegR10) {
      fail(Starts[I], "profile",
           "counter increment not preceded by `movabs r10, counter`");
      return;
    }
    auto Want = reinterpret_cast<std::uint64_t>(In->ProfileCounter);
    if (Ins[I - 1].Imm64 != Want)
      fail(Starts[I - 1], "profile",
           "profiling hook targets a counter that was never registered");
  }

  //===--------------------------------------------------------------------===
  // Phase 3: prologue shape + reloc-shape.
  //===--------------------------------------------------------------------===

  bool checkPrologue() {
    if (NI < 4) {
      fail(0, "prologue", "region too short for a frame setup");
      return false;
    }
    bool Ok = true;
    if (Ins[0].Cls != InstrClass::Push || Ins[0].Rm != RegRBP) {
      fail(Starts[0], "prologue", "function does not start with `push rbp`");
      Ok = false;
    }
    const Decoded &M = Ins[1];
    if (M.Cls != InstrClass::MovRR || !M.RexW || M.Reg != RegRBP ||
        M.Rm != RegRSP) {
      fail(Starts[1], "prologue", "missing `mov rbp, rsp`");
      Ok = false;
    }
    const Decoded &S = Ins[2];
    if (S.Cls != InstrClass::AluRI || !S.RexW || (S.Reg & 7) != 5 ||
        S.Rm != RegRSP || S.IsMem) {
      fail(Starts[2], "prologue", "missing frame reserve `sub rsp, imm`");
      Ok = false;
    } else if (S.Imm < 40 || (S.Imm & 15) != 0) {
      fail(Starts[2], "prologue",
           "frame reserve " + std::to_string(S.Imm) +
               " is not a 16-aligned size covering the callee-save area");
      Ok = false;
    } else {
      Reserve = S.Imm;
    }
    return Ok;
  }

  /// Every reloc offset must land exactly on the imm64 payload of a decoded
  /// movabs. This closes the hole where a hostile record's reloc *offset*
  /// (patching happens before admission) rewrites opcode bytes or splices a
  /// target into a displacement.
  bool checkRelocShape() {
    if (!In->HaveRelocs)
      return true;
    bool Ok = true;
    for (std::size_t I = 0; I < In->NumRelocs; ++I) {
      std::uint32_t Off = In->Relocs[I].Offset;
      std::uint32_t A = Off < In->Size ? At[Off] : NoIdx;
      if (A == NoIdx || !(A & PayloadTag)) {
        fail(Off < In->Size ? Off : 0, "reloc-shape",
             "relocation slot does not land on a movabs imm64 payload");
        Ok = false;
        continue;
      }
      ImmSlotKind[A & ~PayloadTag] = In->Relocs[I].Kind;
    }
    return Ok;
  }

  //===--------------------------------------------------------------------===
  // Phase 4: CFG recovery.
  //===--------------------------------------------------------------------===

  bool isTerm(const Decoded &D) const {
    return D.Cls == InstrClass::Jmp || D.Cls == InstrClass::Jcc ||
           D.Cls == InstrClass::Ret;
  }

  std::int64_t branchTarget(std::size_t I) const {
    return static_cast<std::int64_t>(Starts[I]) + Ins[I].Len + Ins[I].Rel32;
  }

  bool buildCfg() {
    bool Ok = true;

    // Branch-target validation.
    for (std::uint32_t I : Transfers) {
      if (Ins[I].Cls == InstrClass::JmpInd) {
        fail(Starts[I], "branch-target",
             "indirect jump is never admitted (computed control transfer "
             "cannot be proven confined)");
        Ok = false;
        continue;
      }
      std::int64_t T = branchTarget(I);
      if (T < 0 || T >= static_cast<std::int64_t>(In->Size)) {
        fail(Starts[I], "branch-target",
             "relative branch leaves the region (target " + std::to_string(T) +
                 ")");
        Ok = false;
      } else if (At[static_cast<std::size_t>(T)] & PayloadTag) {
        fail(Starts[I], "branch-target",
             "branch target 0x" + [&] {
               char B[16];
               std::snprintf(B, sizeof(B), "%llx",
                             static_cast<unsigned long long>(T));
               return std::string(B);
             }() + " is not an instruction boundary");
        Ok = false;
      }
    }
    if (!isTerm(Ins[NI - 1]) || Ins[NI - 1].Cls == InstrClass::Jcc) {
      fail(Starts[NI - 1], "cfg-fallthrough",
           "region does not end in `ret` or `jmp` — execution would fall "
           "off the end");
      Ok = false;
    }
    if (!Ok)
      return false;

    // Leaders: entry and the instruction after any terminator (marked by
    // the decode loop), and branch targets.
    auto TargetIdx = [&](std::size_t I) {
      return At[static_cast<std::size_t>(branchTarget(I))];
    };
    for (std::uint32_t I : Transfers)
      Leader[TargetIdx(I)] = 1;

    grow(BlockOf, NI);
    for (std::uint32_t I = 0; I < NI; ++I) {
      if (Leader[I]) {
        if (!Blocks.empty())
          Blocks.back().End = I;
        Blocks.push_back(Blk{I, 0});
      }
      BlockOf[I] = static_cast<std::uint32_t>(Blocks.size() - 1);
    }
    Blocks.back().End = static_cast<std::uint32_t>(NI);
    for (Blk &B : Blocks) {
      const Decoded &Last = Ins[B.End - 1];
      bool Fall = Last.Cls != InstrClass::Jmp && Last.Cls != InstrClass::Ret;
      if (Fall && B.End < NI)
        B.Succ[B.NumSucc++] = BlockOf[B.End];
      if (Last.Cls == InstrClass::Jcc || Last.Cls == InstrClass::Jmp) {
        std::uint32_t TB = BlockOf[TargetIdx(B.End - 1)];
        if (B.NumSucc == 0 || B.Succ[0] != TB)
          B.Succ[B.NumSucc++] = TB;
      }
    }

    // Reachability from the entry, and the reverse post-order the fixpoint
    // visits blocks in. Unreachable ranges are *admitted but proven inert*:
    // the walkers legitimately emit dead code (a jump over an else-arm
    // after a `return`-terminated then-arm, dead epilogue tails), so
    // rejecting it would reject the compilers' own output. Inertness holds
    // because every control transfer in reachable code has just been
    // proven to land on an instruction boundary — a target makes its block
    // reachable by definition, so a range that ends up dead can never gain
    // control. Dead bytes still had to decode canonically and contain no
    // indirect jump (both checked above over the whole region), which
    // bounds what can even be parked there; the abstract interpretation
    // below runs over reachable blocks only.
    Blocks[0].Reachable = true;
    Stack.push_back(0);
    while (!Stack.empty()) {
      Blk &B = Blocks[Stack.back()];
      if (B.DfsNext < B.NumSucc) {
        std::uint32_t S = B.Succ[B.DfsNext++];
        if (!Blocks[S].Reachable) {
          Blocks[S].Reachable = true;
          Stack.push_back(S);
        }
        continue;
      }
      Order.push_back(Stack.back());
      Stack.pop_back();
    }
    std::reverse(Order.begin(), Order.end());
    return Ok;
  }

  //===--------------------------------------------------------------------===
  // Phase 5: worklist abstract interpretation.
  //===--------------------------------------------------------------------===

  /// Bytes the memory operand of \p D touches; 0 for classes that carry a
  /// memory *form* without a data access of interest (lea) or none at all.
  static std::int32_t memWidth(const Decoded &D) {
    switch (D.Cls) {
    case InstrClass::Store8:
    case InstrClass::LoadSExt8:
    case InstrClass::LoadZExt8:
      return 1;
    case InstrClass::Store16:
    case InstrClass::LoadSExt16:
    case InstrClass::LoadZExt16:
      return 2;
    case InstrClass::Store32:
      return 4;
    case InstrClass::Load:
      return D.RexW ? 8 : 4;
    case InstrClass::Store64:
    case InstrClass::SseLoad:
    case InstrClass::SseStore:
    case InstrClass::LockInc:
      return 8;
    default:
      return 0;
    }
  }

  static bool isStoreCls(InstrClass C) {
    return C == InstrClass::Store8 || C == InstrClass::Store16 ||
           C == InstrClass::Store32 || C == InstrClass::Store64 ||
           C == InstrClass::SseStore || C == InstrClass::LockInc;
  }

  static bool isLoadCls(InstrClass C) {
    return C == InstrClass::Load || C == InstrClass::LoadSExt8 ||
           C == InstrClass::LoadZExt8 || C == InstrClass::LoadSExt16 ||
           C == InstrClass::LoadZExt16 || C == InstrClass::SseLoad;
  }

  /// A qword spill-slot store or reload: the accesses the spill fact
  /// tracks (the callee-save area above FirstSlotOff is not a spill slot).
  static bool isSpillAccess(const Decoded &D) {
    bool Qword = D.Cls == InstrClass::Store64 ||
                 D.Cls == InstrClass::SseStore ||
                 (D.Cls == InstrClass::Load && D.RexW) ||
                 D.Cls == InstrClass::SseLoad;
    return Qword && D.IsMem && D.Rm == RegRBP && D.Disp <= FirstSlotOff;
  }

  /// Weak/strong update of every tracked cell the store range overlaps.
  void storeToFrame(std::uint8_t *CV, std::int32_t Disp, std::int32_t W,
                    Prov P) const {
    for (std::size_t CI = 0; CI < Cells.size(); ++CI) {
      const Cell &C = Cells[CI];
      if (Disp >= C.Disp + C.Width || Disp + W <= C.Disp)
        continue;
      bool Covers = Disp <= C.Disp && Disp + W >= C.Disp + C.Width;
      Prov N = Covers ? P : provJoin(cellProv(CV[CI]), P);
      CV[CI] = static_cast<std::uint8_t>((CV[CI] & InitBit) |
                                         static_cast<std::uint8_t>(N));
    }
  }

  /// Provenance of a load range: the join of every overlapped cell over a
  /// Computed base (unwritten frame memory holds run-time values).
  Prov loadFromFrame(const std::uint8_t *CV, std::int32_t Disp,
                     std::int32_t W) const {
    Prov P = Prov::Computed;
    for (std::size_t CI = 0; CI < Cells.size(); ++CI) {
      const Cell &C = Cells[CI];
      if (Disp < C.Disp + C.Width && Disp + W > C.Disp)
        P = provJoin(P, cellProv(CV[CI]));
    }
    return P;
  }

  /// Provenance of the movabs at instruction \p I.
  Prov immProv(std::size_t I) const {
    if (!In->HaveRelocs)
      return Prov::Trusted; // Fresh compile, no table: the emitter's own.
    support::RelocKind Kind = ImmSlotKind[I];
    if (Kind == support::RelocKind::Callee || Kind == support::RelocKind::Ptr)
      return Prov::Trusted;
    // Outside the table, or a profile slot (whose target is a counter, not
    // code): never admissible as a call target.
    return Prov::Plain;
  }

  /// One instruction's transfer on \p S and its frame cells \p CV. A
  /// violation sets Flagged, and becomes a diagnostic when \p Report is
  /// set; the fixpoint iterations run with it clear. Returns false when the
  /// state is too broken to keep interpreting the block.
  bool step(AbsState &S, std::uint8_t *CV, std::size_t I, bool Report) {
    const Decoded &D = Ins[I];
    auto Bad = [&](const char *Cat, std::string Msg) {
      Flagged = true;
      if (Report)
        fail(Starts[I], Cat, std::move(Msg), /*WithCfg=*/true);
      return false;
    };

    // A write to a callee-saved register other than its canonical restore.
    auto clobberCheck = [&](std::uint8_t Reg) {
      std::uint16_t Bit = calleeBit(Reg);
      if (!(Bit & CalleeSavedMask))
        return true;
      if (!(S.Saved & Bit))
        return Bad("callee-saved",
                   std::string("callee-saved ") + "register r" +
                       std::to_string(Reg) +
                       " written before being saved to its slot");
      S.Clobbered = static_cast<std::uint16_t>(S.Clobbered | Bit);
      S.Restored = static_cast<std::uint16_t>(S.Restored & ~Bit);
      return true;
    };

    auto isFrameReg = [](std::uint8_t Rg) {
      return Rg == RegRSP || Rg == RegRBP;
    };
    auto dispStr = [](std::int32_t Disp) {
      std::string S = std::to_string(Disp);
      if (Disp >= 0)
        S.insert(S.begin(), '+');
      return S;
    };
    // An immediate operand's contribution to a result's provenance: under
    // a reloc table an embedded constant is Plain, and arithmetic joins it
    // in, so `add r, imm` / `shl r, imm` chains can never bleach a stray
    // value into an admissible call target — nor assemble one from imm32
    // pieces.
    const Prov ImmP = In->HaveRelocs ? Prov::Plain : Prov::Trusted;

    // Spill discipline: a store initializes its slot on this path; a reload
    // must find the slot initialized on every path reaching it. A finding,
    // not a broken state — interpretation continues.
    if (In->ICodeFacts && SpillCell[I] >= 0) {
      std::uint8_t &Cv = CV[SpillCell[I]];
      if (isStoreCls(D.Cls)) {
        Cv |= InitBit;
      } else if (!(Cv & InitBit)) {
        Flagged = true;
        if (Report)
          fail(Starts[I], "spill-reload",
               "load from spill slot [rbp" + dispStr(D.Disp) +
                   "] that is not initialized on all paths",
               /*WithCfg=*/true);
      }
    }

    // Frame-integrity gates on the memory operand, checked as byte ranges
    // [Disp, Disp+width): a qword store at [rbp-1] reaches the saved rbp
    // even though its displacement is negative.
    if (D.IsMem) {
      if (D.Rm == RegRSP)
        return Bad("frame-escape",
                   "rsp-based memory operand is never admitted");
      bool IsStore = isStoreCls(D.Cls);
      if (D.Rm == RegRBP && (IsStore || isLoadCls(D.Cls))) {
        std::int64_t W = memWidth(D);
        if (S.RbpDepth < 0)
          return Bad("frame-escape",
                     "rbp-relative access while rbp does not hold the frame");
        if (IsStore) {
          if (D.Disp < -Reserve || D.Disp + W > 0)
            return Bad("frame-escape",
                       "store at [rbp" + dispStr(D.Disp) + "] (width " +
                           std::to_string(W) +
                           ") touches bytes outside the reserved frame "
                           "(saved rbp and return address are off limits)");
          // While a callee-saved register is must-saved, its slot holds
          // the value the restore proof hands back to the caller: only
          // the exact canonical re-save of the still-unclobbered register
          // may touch it. Anything else — aligned, misaligned, or partial
          // — would corrupt what ret restores.
          for (unsigned CI = 0; CI < 5; ++CI) {
            std::int32_t Sd = -8 * static_cast<std::int32_t>(CI + 1);
            if (D.Disp >= Sd + 8 || D.Disp + W <= Sd)
              continue;
            std::uint8_t Rr = CalleeSavedRegs[CI];
            if (!(S.Saved & calleeBit(Rr)))
              continue;
            bool Canonical = D.Cls == InstrClass::Store64 && D.Disp == Sd &&
                             D.Reg == Rr && !(S.Clobbered & calleeBit(Rr));
            if (!Canonical)
              return Bad("callee-saved",
                         "store at [rbp" + dispStr(D.Disp) +
                             "] overlaps the live save slot of r" +
                             std::to_string(Rr));
          }
        } else if (!(D.Disp >= 16 ||
                     (D.Disp >= -Reserve && D.Disp + W <= 0))) {
          // Reads of the frame and of the caller's stack-passed arguments
          // ([rbp+16) and up) are fine; the saved rbp and the return
          // address in between are not.
          return Bad("frame-escape",
                     "load at [rbp" + dispStr(D.Disp) + "] (width " +
                         std::to_string(W) +
                         ") reads the saved rbp or the return address");
        }
      }
    }

    switch (D.Cls) {
    case InstrClass::Push:
      // The only admitted push is the prologue's `push rbp` at the entry
      // depth — anything else would open an untracked stack cell the
      // provenance analysis cannot see.
      if (D.Rm != RegRBP || S.Depth != 0)
        return Bad("stack-balance", "push outside the canonical prologue");
      S.Depth += 8;
      return true;
    case InstrClass::Pop:
      if (D.Rm != RegRBP)
        return Bad("stack-balance", "pop of a register other than rbp");
      if (S.Depth != 8)
        return Bad("stack-balance",
                   "`pop rbp` at depth " + std::to_string(S.Depth) +
                       " (frame not unwound)");
      S.Depth = 0;
      S.RbpDepth = -1; // rbp holds the caller's value again.
      return true;
    case InstrClass::Ret:
      if (S.Depth != 0)
        return Bad("stack-balance",
                   "ret at depth " + std::to_string(S.Depth) +
                       " — stack not balanced on this path");
      if (S.RbpDepth >= 0)
        return Bad("stack-balance", "ret with rbp still holding the frame");
      if (S.Clobbered & ~S.Restored)
        return Bad("callee-saved",
                   "ret on a path where a clobbered callee-saved register "
                   "was not restored");
      return true;
    case InstrClass::AluRI:
      if (!D.IsMem && D.Rm == RegRSP) {
        if (!D.RexW)
          return Bad("stack-balance", "32-bit arithmetic on rsp");
        std::uint8_t Digit = D.Reg & 7;
        if (Digit == 5)
          S.Depth += D.Imm;
        else if (Digit == 0)
          S.Depth -= D.Imm;
        else
          return Bad("stack-balance", "non add/sub arithmetic on rsp");
        if (S.Depth < 0)
          return Bad("stack-balance",
                     "stack depth went above the entry rsp");
        return true;
      }
      if (!D.IsMem && D.Rm == RegRBP && (D.Reg & 7) != 7)
        return Bad("stack-balance", "arithmetic writes rbp");
      break;
    case InstrClass::MovRR:
      if (D.Reg == RegRSP) {
        if (!(D.RexW && D.Rm == RegRBP))
          return Bad("stack-balance", "rsp written from a non-rbp source");
        if (S.RbpDepth < 0)
          return Bad("stack-balance",
                     "`mov rsp, rbp` while rbp does not hold the frame");
        S.Depth = S.RbpDepth;
        return true;
      }
      if (D.Reg == RegRBP) {
        if (!(D.RexW && D.Rm == RegRSP))
          return Bad("stack-balance", "rbp written from a non-rsp source");
        S.RbpDepth = S.Depth;
        return true;
      }
      if (D.Rm == RegRSP || D.Rm == RegRBP)
        return Bad("frame-escape",
                   "frame/stack pointer value copied into a general "
                   "register");
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = S.Reg[D.Rm];
      return true;
    case InstrClass::Lea:
      if (D.Rm == RegRSP || D.Rm == RegRBP)
        return Bad("frame-escape",
                   "lea materializes a frame/stack address in a general "
                   "register");
      break;
    case InstrClass::Load:
      if (D.Reg == RegRSP || D.Reg == RegRBP)
        return Bad("stack-balance", "load writes the stack/frame pointer");
      if (D.Rm == RegRBP) {
        // Canonical callee-saved restore?
        if (D.RexW && calleeRegForSlot(D.Disp) == D.Reg) {
          std::uint16_t Bit = calleeBit(D.Reg);
          if (!(S.Saved & Bit))
            return Bad("callee-saved",
                       "restore load from a slot that was never saved");
          S.Restored = static_cast<std::uint16_t>(S.Restored | Bit);
          S.Clobbered = static_cast<std::uint16_t>(S.Clobbered & ~Bit);
          S.Reg[D.Reg] = Prov::Computed;
          return true;
        }
        if (!clobberCheck(D.Reg))
          return false;
        S.Reg[D.Reg] = loadFromFrame(CV, D.Disp, memWidth(D));
        return true;
      }
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = Prov::Computed;
      return true;
    case InstrClass::LoadSExt8:
    case InstrClass::LoadZExt8:
    case InstrClass::LoadSExt16:
    case InstrClass::LoadZExt16:
      if (D.Reg == RegRSP || D.Reg == RegRBP)
        return Bad("stack-balance", "load writes the stack/frame pointer");
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = D.Rm == RegRBP ? loadFromFrame(CV, D.Disp, memWidth(D))
                                    : Prov::Computed;
      return true;
    case InstrClass::Store8:
    case InstrClass::Store16:
    case InstrClass::Store32:
    case InstrClass::Store64:
      if (isFrameReg(D.Reg))
        return Bad("frame-escape",
                   "frame/stack pointer value stored to memory");
      if (D.Rm == RegRBP) {
        // Canonical callee-saved save? Only counts while the register still
        // holds its entry value.
        if (D.Cls == InstrClass::Store64 && calleeRegForSlot(D.Disp) == D.Reg &&
            !(S.Clobbered & calleeBit(D.Reg)))
          S.Saved = static_cast<std::uint16_t>(S.Saved | calleeBit(D.Reg));
        storeToFrame(CV, D.Disp, memWidth(D), S.Reg[D.Reg]);
      }
      return true;
    case InstrClass::SseStore:
      if (D.Rm == RegRBP)
        storeToFrame(CV, D.Disp, 8, S.Xmm[D.Reg]);
      return true;
    case InstrClass::SseLoad:
      S.Xmm[D.Reg] =
          D.Rm == RegRBP ? loadFromFrame(CV, D.Disp, 8) : Prov::Computed;
      return true;
    case InstrClass::MovqXR:
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer value copied into an xmm register");
      S.Xmm[D.Reg] = S.Reg[D.Rm];
      return true;
    case InstrClass::MovqRX:
      if (isFrameReg(D.Rm))
        return Bad("stack-balance",
                   "instruction writes the stack/frame pointer");
      if (!clobberCheck(D.Rm))
        return false;
      S.Reg[D.Rm] = S.Xmm[D.Reg];
      return true;
    case InstrClass::SseMov:
      S.Xmm[D.Reg] = S.Xmm[D.Rm];
      return true;
    case InstrClass::SseArith:
    case InstrClass::SseXorpd:
      S.Xmm[D.Reg] = provJoin(S.Xmm[D.Reg], S.Xmm[D.Rm]);
      return true;
    case InstrClass::SseCvtSI2SD:
      // cvtsi2sd represents any 48-bit pointer exactly; it propagates, not
      // launders.
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer value converted into an xmm "
                   "register");
      S.Xmm[D.Reg] = S.Reg[D.Rm];
      return true;
    case InstrClass::SseCvtSD2SI:
      if (isFrameReg(D.Reg))
        return Bad("stack-balance",
                   "instruction writes the stack/frame pointer");
      if (!clobberCheck(D.Reg))
        return false;
      S.Reg[D.Reg] = S.Xmm[D.Rm];
      return true;
    case InstrClass::MovImm64:
      if (D.Rm == RegRSP || D.Rm == RegRBP)
        return Bad("stack-balance", "immediate written to rsp/rbp");
      if (!clobberCheck(D.Rm))
        return false;
      S.Reg[D.Rm] = immProv(I);
      return true;
    case InstrClass::CallInd: {
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "indirect call through the stack/frame pointer");
      if ((S.Depth & 15) != 8)
        return Bad("stack-balance",
                   "indirect call at depth " + std::to_string(S.Depth) +
                       " — rsp not 16-byte aligned at the call");
      if (S.Reg[D.Rm] == Prov::Plain)
        return Bad("call-target",
                   "indirect call through an immediate that is not a "
                   "declared Callee/Ptr relocation slot — the record would "
                   "transfer outside the key's declared callees");
      // SysV: caller-saved GPRs and the whole xmm file are dead across the
      // call.
      for (std::uint8_t Rg : {std::uint8_t(0), std::uint8_t(1),
                              std::uint8_t(2), std::uint8_t(6),
                              std::uint8_t(7), std::uint8_t(8),
                              std::uint8_t(9), std::uint8_t(10),
                              std::uint8_t(11)})
        S.Reg[Rg] = Prov::Computed;
      for (unsigned X = 0; X < 16; ++X)
        S.Xmm[X] = Prov::Computed;
      return true;
    }
    default:
      break;
    }

    // rsp/rbp as a *data source* of a value-producing op would hand the
    // frame address to a general register (`add rax, rbp` is a mov-escape
    // with extra steps); cmp/test read it into flags only and are inert.
    switch (D.Cls) {
    case InstrClass::AluRR:
      if (D.Op8 != 0x3B && isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer used as an arithmetic operand");
      break;
    case InstrClass::ImulRR:
    case InstrClass::ImulRRI:
    case InstrClass::Movsxd:
    case InstrClass::Movzx8RR:
    case InstrClass::Movsx8RR:
    case InstrClass::Movzx16RR:
    case InstrClass::Movsx16RR:
      if (isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer used as an arithmetic operand");
      break;
    case InstrClass::UnaryGrp:
      if (((D.Reg & 7) == 6 || (D.Reg & 7) == 7) && isFrameReg(D.Rm))
        return Bad("frame-escape",
                   "frame/stack pointer used as an arithmetic operand");
      break;
    default:
      break;
    }

    // Result provenance: the join of the instruction's register inputs
    // (including the destination for read-modify-write ops), with an
    // immediate operand joining as ImmP. A Plain value therefore stays
    // Plain through mov/add/shift/imul/widening chains — arithmetic
    // cannot launder a stray embedded constant into a Computed call
    // target, and imm32 pieces cannot be assembled into a fresh one.
    Prov ResP = Prov::Computed;
    switch (D.Cls) {
    case InstrClass::MovImm32:
    case InstrClass::MovImmSExt:
      ResP = ImmP;
      break;
    case InstrClass::AluRR:
    case InstrClass::ImulRR:
      ResP = provJoin(S.Reg[D.Reg], S.Reg[D.Rm]);
      break;
    case InstrClass::AluRI:
    case InstrClass::ShiftImm:
    case InstrClass::ImulRRI:
      ResP = provJoin(S.Reg[D.Rm], ImmP);
      break;
    case InstrClass::ShiftCl:
      ResP = provJoin(S.Reg[D.Rm], S.Reg[1]); // rcx holds the count.
      break;
    case InstrClass::UnaryGrp:
      ResP = (D.Reg & 7) == 2 || (D.Reg & 7) == 3
                 ? S.Reg[D.Rm] // not/neg: RMW on the operand.
                 : provJoin(provJoin(S.Reg[0], S.Reg[2]),
                            S.Reg[D.Rm]); // div/idiv: rdx:rax op src.
      break;
    case InstrClass::Movsxd:
    case InstrClass::Movzx8RR:
    case InstrClass::Movsx8RR:
    case InstrClass::Movzx16RR:
    case InstrClass::Movsx16RR:
      ResP = S.Reg[D.Rm];
      break;
    case InstrClass::Lea:
      // lea dst, [base+disp] is base+disp arithmetic (the base is proven
      // non-frame above).
      ResP = D.Disp == 0 ? S.Reg[D.Rm] : provJoin(S.Reg[D.Rm], ImmP);
      break;
    default:
      // setcc/cdq produce 0/1 or a sign fill — incapable of carrying an
      // embedded pointer — and everything else is a genuine run-time
      // value.
      break;
    }

    // Generic register writes (provenance + callee-saved obligation).
    std::uint8_t W[2];
    unsigned NW = x86::decodedGprWrites(D, W);
    for (unsigned K = 0; K < NW; ++K) {
      if (W[K] == RegRSP || W[K] == RegRBP)
        return Bad("stack-balance",
                   "instruction writes the stack/frame pointer");
      if (!clobberCheck(W[K]))
        return false;
      S.Reg[W[K]] = ResP;
    }
    return true;
  }

  /// Join \p Out (with frame cells \p OutCV) into block \p BI's entry
  /// state. Returns true when the entry state changed (block must be
  /// (re)visited).
  bool joinInto(std::size_t BI, const AbsState &Out,
                const std::uint8_t *OutCV) {
    AbsState &T = InState[BI];
    std::uint8_t *TC = cellsOf(BI);
    std::size_t NC = Cells.size();
    if (!T.Valid) {
      T = Out;
      T.Valid = true;
      std::copy_n(OutCV, NC, TC);
      return true;
    }
    if (!T.sameShape(Out)) {
      if (!Blocks[BI].JoinReported) {
        Blocks[BI].JoinReported = true;
        fail(Starts[Blocks[BI].Begin], "stack-balance",
             "paths join at different stack depths (" +
                 std::to_string(T.Depth) + " vs " + std::to_string(Out.Depth) +
                 ") — unbalanced path",
             /*WithCfg=*/true);
      }
      return false;
    }
    bool Changed = false;
    auto mergeMask = [&](std::uint16_t &Dst, std::uint16_t Src, bool Union) {
      std::uint16_t N = Union ? static_cast<std::uint16_t>(Dst | Src)
                              : static_cast<std::uint16_t>(Dst & Src);
      if (N != Dst) {
        Dst = N;
        Changed = true;
      }
    };
    mergeMask(T.Saved, Out.Saved, false);
    mergeMask(T.Restored, Out.Restored, false);
    mergeMask(T.Clobbered, Out.Clobbered, true);
    for (unsigned Rg = 0; Rg < 16; ++Rg) {
      Prov N = provJoin(T.Reg[Rg], Out.Reg[Rg]);
      if (N != T.Reg[Rg]) {
        T.Reg[Rg] = N;
        Changed = true;
      }
      Prov NX = provJoin(T.Xmm[Rg], Out.Xmm[Rg]);
      if (NX != T.Xmm[Rg]) {
        T.Xmm[Rg] = NX;
        Changed = true;
      }
    }
    // Provenance joins by max, the init bit by intersection.
    for (std::size_t CI = 0; CI < NC; ++CI) {
      auto N = static_cast<std::uint8_t>(
          std::max(TC[CI] & CellProvMask, OutCV[CI] & CellProvMask) |
          (TC[CI] & OutCV[CI] & InitBit));
      if (N != TC[CI]) {
        TC[CI] = N;
        Changed = true;
      }
    }
    return Changed;
  }

  /// Runs \p BI's instructions on the state \p S and cells \p CV; false
  /// when a step found the path broken.
  bool visit(std::size_t BI, AbsState &S, std::uint8_t *CV, bool Report) {
    std::copy_n(cellsOf(BI), Cells.size(), CV);
    for (std::size_t I = Blocks[BI].Begin; I < Blocks[BI].End; ++I)
      if (!step(S, CV, I, Report))
        return false;
    return true;
  }

  void interpret() {
    std::size_t NB = Blocks.size(), NC = Cells.size();
    grow(InState, NB);
    for (std::size_t BI = 0; BI < NB; ++BI)
      InState[BI].Valid = false;
    grow(CellVals, (NB + 1) * NC);
    std::uint8_t *Work = cellsOf(NB);

    AbsState &Entry = InState[0];
    Entry = AbsState{};
    Entry.Valid = true;
    // Entry registers and frame memory hold run-time values (arguments,
    // caller state) — Computed, admissible as call targets by design.
    std::fill(std::begin(Entry.Reg), std::end(Entry.Reg), Prov::Computed);
    std::fill(std::begin(Entry.Xmm), std::end(Entry.Xmm), Prov::Computed);
    std::fill_n(cellsOf(0), NC, static_cast<std::uint8_t>(Prov::Computed));

    // Fixpoint: sweeps over the reachable blocks in reverse post-order,
    // visiting those whose entry state changed, until a sweep visits none.
    // Steps run silently here (so transient pre-fixpoint states cannot
    // produce spurious findings). Join-shape mismatches are definitive
    // (equality domain) and report immediately.
    grow(Pending, NB);
    std::fill_n(Pending.begin(), NB, 0);
    Pending[0] = 1;
    for (bool Again = true; Again;) {
      Again = false;
      for (std::uint32_t BI : Order) {
        if (!Pending[BI])
          continue;
        Pending[BI] = 0;
        Again = true;
        AbsState S = InState[BI];
        if (!visit(BI, S, Work, /*Report=*/false))
          continue; // Broken path: the reporting pass will say why.
        for (unsigned J = 0; J < Blocks[BI].NumSucc; ++J) {
          std::size_t SB = Blocks[BI].Succ[J];
          if (joinInto(SB, S, Work))
            Pending[SB] = 1;
        }
      }
    }

    // Reporting pass over the converged entry states, only when some visit
    // flagged a violation. Skipping it otherwise is exact: a block is
    // revisited whenever its entry state changes, so every reachable
    // block's last visit ran on its converged state, and the steps are
    // deterministic — the reporting pass would re-run those same steps and
    // find what they found, which was nothing.
    if (!Flagged)
      return;
    for (std::size_t BI = 0; BI < NB; ++BI) {
      if (!InState[BI].Valid)
        continue; // Only reachable via a path already reported broken.
      AbsState S = InState[BI];
      visit(BI, S, Work, /*Report=*/true);
    }
  }

  //===--------------------------------------------------------------------===
  // Diagnostics: CFG + abstract-state dump.
  //===--------------------------------------------------------------------===

  std::string renderCfg() const {
    std::string S = "  cfg:\n";
    char Buf[160];
    for (std::size_t BI = 0; BI < Blocks.size(); ++BI) {
      const Blk &B = Blocks[BI];
      std::snprintf(Buf, sizeof(Buf), "    B%zu [%#x, %#x)%s", BI,
                    Starts[B.Begin], Starts[B.End],
                    B.Reachable ? "" : " UNREACHABLE");
      S += Buf;
      for (unsigned K = 0; K < B.NumSucc; ++K) {
        std::snprintf(Buf, sizeof(Buf), "%s B%u", K ? "," : " ->",
                      B.Succ[K]);
        S += Buf;
      }
      if (BI < InState.size() && InState[BI].Valid) {
        const AbsState &A = InState[BI];
        std::snprintf(Buf, sizeof(Buf),
                      "  depth=%lld rbp=%lld saved=%03x restored=%03x "
                      "clobbered=%03x",
                      static_cast<long long>(A.Depth),
                      static_cast<long long>(A.RbpDepth), A.Saved, A.Restored,
                      A.Clobbered);
        S += Buf;
      }
      S += '\n';
    }
    return S;
  }

  void run(const AdmissionInputs &Inputs, Result &Res) {
    In = &Inputs;
    R = &Res;
    NI = 0;
    Transfers.clear();
    Calls = 0;
    Hooks = Pops = Rets = 0;
    Reserve = 0;
    Cells.clear();
    Blocks.clear();
    Order.clear();
    Flagged = false;
    CfgDump.clear();

    // One span per stage, so a trace shows where admission time goes.
    bool ShapeOk;
    {
      obs::Phase P(obs::EventKind::AdmitDecode);
      if (!decodeAll())
        return;
      findGuard();
      checkLinearFacts();
      // Both run, so a record with several defects reports each of them.
      ShapeOk = checkPrologue();
      ShapeOk = checkRelocShape() && ShapeOk;
    }
    {
      obs::Phase P(obs::EventKind::AdmitCfg);
      if (!buildCfg())
        return;
    }
    if (ShapeOk) {
      obs::Phase P(obs::EventKind::AdmitFixpoint);
      interpret();
    }
    detail::recordAdmitShape(Blocks.size(), Calls);
  }
};

} // namespace

Result verifyAdmission(const AdmissionInputs &In) {
  Result R;
  thread_local Admission A;
  A.run(In, R);
  if (In.Size > ScratchKeepBytes)
    A = Admission(); // One huge region does not pin its arrays for good.
  return R;
}

} // namespace verify
} // namespace tcc
