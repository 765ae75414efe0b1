//===- icode/Emit.cpp - ICODE-to-binary translation -----------------------==//
//
// The final phase of ICODE code generation (paper §5.2): "The code emitter
// simply makes one pass through the buffer of ICODE instructions. For each
// ICODE instruction, it invokes the VCODE macro corresponding to the given
// instruction, prepending and appending spill code as necessary, and
// performing some peephole optimizations and strength reduction."
//
// Spill code is folded into the VCODE layer, which accepts negative
// (stack-slot) register designators. Opcode usage is recorded in the shared
// EmitterUsage registry, reproducing the emitter-pruning measurement of the
// paper's link-time analysis.
//
//===----------------------------------------------------------------------===//

#include "icode/Analysis.h"
#include "icode/ICode.h"

#include "observability/Events.h"
#include "support/Error.h"
#include "support/Timing.h"

#include <cassert>
#include <climits>

using namespace tcc;
using namespace tcc::icode;
using vcode::VCode;

namespace {

/// Translates one allocated ICODE buffer into machine code through VCode.
class Emitter {
public:
  Emitter(const ICode &IC, VCode &V, const Allocation &Alloc,
          bool CallerSavedPool)
      : IC(IC), V(V), Alloc(Alloc), CallerSavedPool(CallerSavedPool),
        SlotDesignator(IC.arena().allocateArray<int>(IC.numRegs())),
        VLabels(IC.arena().allocateArray<vcode::Label>(IC.numLabels())) {
    for (unsigned R = 0; R < IC.numRegs(); ++R)
      SlotDesignator[R] = INT_MIN;
    for (unsigned I = 0; I < IC.numLabels(); ++I)
      VLabels[I] = V.newLabel();
  }

  /// Emits the function; page-guard units, if any, branch to \p Fallback.
  void run(vcode::Label Fallback) {
    const auto &Instrs = IC.instrs();
    V.enter();
    for (const PageGuard &G : IC.pageGuards())
      V.pageGuard(G.ArgIndex, G.Lo, G.Span, Fallback);
    for (std::size_t I = emitPrologue(Instrs), E = Instrs.size(); I != E; ++I)
      emitOne(Instrs, I);
  }

private:
  /// Emits the IR prologue, which the IR verifier keeps ahead of the body:
  /// the profile hook, then every argument binding as one parallel move
  /// (the caller-saved pool's registers include argument registers).
  /// Returns the index of the first body instruction.
  ///
  /// The allocator sees the bindings one after another, so an unused
  /// parameter's binding may share its register with a later one. In IR
  /// order the later move simply overwrites it; in a parallel move it
  /// could land last, so with the caller-saved pool such a dead binding is
  /// dropped. The callee-saved pool's destinations are never argument
  /// registers, so its bindings keep IR order and their bytes.
  std::size_t emitPrologue(const ArenaVector<Instr> &Instrs) {
    std::size_t End = 0, NumBinds = 0;
    for (; End < Instrs.size(); ++End) {
      Op O = Instrs[End].Opcode;
      if (O == Op::BindArgI || O == Op::BindArgD)
        ++NumBinds;
      else if (O == Op::ProfileInc)
        emitOne(Instrs, End);
      else if (O != Op::Nop && O != Op::Hint)
        break;
    }
    auto *Binds = IC.arena().allocateArray<vcode::ArgBind>(NumBinds);
    unsigned N = 0;
    for (std::size_t I = 0; I < End; ++I) {
      const Instr &In = Instrs[I];
      if (In.Opcode != Op::BindArgI && In.Opcode != Op::BindArgD)
        continue;
      ICode::emitterUsage().noteUse(In.Opcode);
      Binds[N++] = {static_cast<unsigned>(In.B), loc(In.A),
                    In.Opcode == Op::BindArgD};
    }
    if (CallerSavedPool) {
      unsigned Live = 0;
      for (unsigned I = 0; I < N; ++I) {
        bool Dead = false;
        for (unsigned J = I + 1; J < N && !Dead; ++J)
          Dead = !VCode::isSpill(Binds[I].Dst) &&
                 Binds[J].Dst == Binds[I].Dst && Binds[J].Fp == Binds[I].Fp;
        if (!Dead)
          Binds[Live++] = Binds[I];
      }
      N = Live;
    }
    V.bindArgs(Binds, N);
    return End;
  }

  /// Register designator (pool index or stack slot) for a virtual register.
  vcode::Reg loc(VReg R) {
    int L = Alloc.Location[static_cast<std::size_t>(R)];
    if (L >= 0)
      return L;
    assert(L == Allocation::Spilled && "operand of emitted instr unallocated");
    int &Slot = SlotDesignator[static_cast<std::size_t>(R)];
    if (Slot == INT_MIN)
      Slot = VCode::spillReg(V.allocSlot());
    return Slot;
  }

  /// True if a jump at \p I to label \p LabelId only skips no-ops — the
  /// emitter's jump-to-next peephole.
  bool jumpIsFallthrough(const ArenaVector<Instr> &Instrs, std::size_t I,
                         std::int32_t LabelId) const {
    std::int32_t Target = IC.labelTarget(LabelId);
    if (Target < static_cast<std::int32_t>(I))
      return false;
    for (std::size_t K = I + 1; K < static_cast<std::size_t>(Target); ++K) {
      Op O = Instrs[K].Opcode;
      if (O != Op::Nop && O != Op::Hint && O != Op::Label)
        return false;
    }
    return true;
  }

  void emitOne(const ArenaVector<Instr> &Instrs, std::size_t I) {
    const Instr &In = Instrs[I];
    if (In.Opcode != Op::Nop && In.Opcode != Op::Hint)
      ICode::emitterUsage().noteUse(In.Opcode);
    auto K = static_cast<CmpKind>(In.Sub);
    switch (In.Opcode) {
    case Op::Nop:
    case Op::Hint:
      break;
    case Op::ProfileInc:
      V.profileEntry(reinterpret_cast<const void *>(
          static_cast<std::uintptr_t>(IC.poolValue(In.A))));
      break;
    case Op::SetI:
      V.setI(loc(In.A), In.B);
      break;
    case Op::SetL:
      V.setL(loc(In.A), static_cast<std::int64_t>(IC.poolValue(In.B)));
      break;
    case Op::SetP:
      V.setP(loc(In.A), reinterpret_cast<const void *>(
                            static_cast<std::uintptr_t>(IC.poolValue(In.B))));
      break;
    case Op::SetD: {
      std::uint64_t Bits = IC.poolValue(In.B);
      double D;
      static_assert(sizeof(D) == sizeof(Bits));
      __builtin_memcpy(&D, &Bits, 8);
      V.setD(loc(In.A), D);
      break;
    }
    case Op::MovI:
      V.movL(loc(In.A), loc(In.B));
      break;
    case Op::MovD:
      V.movD(loc(In.A), loc(In.B));
      break;
    case Op::AddI:
      V.addI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::SubI:
      V.subI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::MulI:
      V.mulI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::DivI:
      V.divI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::ModI:
      V.modI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::DivUI:
      V.divUI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::ModUI:
      V.modUI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::AndI:
      V.andI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::OrI:
      V.orI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::XorI:
      V.xorI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::ShlI:
      V.shlI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::ShrI:
      V.shrI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::UShrI:
      V.ushrI(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::AddII:
      V.addII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::SubII:
      V.subII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::MulII:
      V.mulII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::DivII:
      V.divII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::ModII:
      V.modII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::AndII:
      V.andII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::OrII:
      V.orII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::XorII:
      V.xorII(loc(In.A), loc(In.B), In.C);
      break;
    case Op::ShlII:
      V.shlII(loc(In.A), loc(In.B), static_cast<std::uint8_t>(In.C));
      break;
    case Op::ShrII:
      V.shrII(loc(In.A), loc(In.B), static_cast<std::uint8_t>(In.C));
      break;
    case Op::UShrII:
      V.ushrII(loc(In.A), loc(In.B), static_cast<std::uint8_t>(In.C));
      break;
    case Op::NegI:
      V.negI(loc(In.A), loc(In.B));
      break;
    case Op::NotI:
      V.notI(loc(In.A), loc(In.B));
      break;
    case Op::AddL:
      V.addL(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::SubL:
      V.subL(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::MulL:
      V.mulL(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::AddLI:
      V.addLI(loc(In.A), loc(In.B), In.C);
      break;
    case Op::MulLI:
      V.mulLI(loc(In.A), loc(In.B), In.C);
      break;
    case Op::ShlLI:
      V.shlLI(loc(In.A), loc(In.B), static_cast<std::uint8_t>(In.C));
      break;
    case Op::SextIToL:
      V.sextIToL(loc(In.A), loc(In.B));
      break;
    case Op::AddD:
      V.addD(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::SubD:
      V.subD(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::MulD:
      V.mulD(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::DivD:
      V.divD(loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::NegD:
      V.negD(loc(In.A), loc(In.B));
      break;
    case Op::CvtIToD:
      V.cvtIToD(loc(In.A), loc(In.B));
      break;
    case Op::CvtLToD:
      V.cvtLToD(loc(In.A), loc(In.B));
      break;
    case Op::CvtDToI:
      V.cvtDToI(loc(In.A), loc(In.B));
      break;
    case Op::CmpSetI:
      V.cmpSetI(K, loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::CmpSetII:
      V.cmpSetII(K, loc(In.A), loc(In.B), In.C);
      break;
    case Op::CmpSetL:
      V.cmpSetL(K, loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::CmpSetD:
      V.cmpSetD(K, loc(In.A), loc(In.B), loc(In.C));
      break;
    case Op::LdI:
      V.ldI(loc(In.A), loc(In.B), In.C);
      break;
    case Op::LdL:
      V.ldL(loc(In.A), loc(In.B), In.C);
      break;
    case Op::LdI8s:
      V.ldI8s(loc(In.A), loc(In.B), In.C);
      break;
    case Op::LdI8u:
      V.ldI8u(loc(In.A), loc(In.B), In.C);
      break;
    case Op::LdI16s:
      V.ldI16s(loc(In.A), loc(In.B), In.C);
      break;
    case Op::LdI16u:
      V.ldI16u(loc(In.A), loc(In.B), In.C);
      break;
    case Op::LdD:
      V.ldD(loc(In.A), loc(In.B), In.C);
      break;
    case Op::StI:
      V.stI(loc(In.A), In.C, loc(In.B));
      break;
    case Op::StL:
      V.stL(loc(In.A), In.C, loc(In.B));
      break;
    case Op::StI8:
      V.stI8(loc(In.A), In.C, loc(In.B));
      break;
    case Op::StI16:
      V.stI16(loc(In.A), In.C, loc(In.B));
      break;
    case Op::StD:
      V.stD(loc(In.A), In.C, loc(In.B));
      break;
    case Op::Label:
      V.bindLabel(VLabels[static_cast<std::size_t>(In.A)]);
      break;
    case Op::Jump:
      if (!jumpIsFallthrough(Instrs, I, In.A))
        V.jump(VLabels[static_cast<std::size_t>(In.A)]);
      break;
    case Op::BrCmpI:
      V.brCmpI(K, loc(In.A), loc(In.B), VLabels[In.C]);
      break;
    case Op::BrCmpII:
      V.brCmpII(K, loc(In.A), In.B, VLabels[In.C]);
      break;
    case Op::BrCmpL:
      V.brCmpL(K, loc(In.A), loc(In.B), VLabels[In.C]);
      break;
    case Op::BrCmpD:
      V.brCmpD(K, loc(In.A), loc(In.B), VLabels[In.C]);
      break;
    case Op::BrTrue:
      V.brTrueI(loc(In.A), VLabels[In.B]);
      break;
    case Op::BrFalse:
      V.brFalseI(loc(In.A), VLabels[In.B]);
      break;
    case Op::BindArgI:
    case Op::BindArgD:
      tcc_unreachable("argument binding after the prologue");
    case Op::RetI:
      V.retI(loc(In.A));
      break;
    case Op::RetL:
      V.retL(loc(In.A));
      break;
    case Op::RetD:
      V.retD(loc(In.A));
      break;
    case Op::RetVoid:
      V.retVoid();
      break;
    case Op::CallArgI:
      V.prepareCallArgI(static_cast<unsigned>(In.A), loc(In.B));
      break;
    case Op::CallArgP:
      V.prepareCallArgP(static_cast<unsigned>(In.A),
                        reinterpret_cast<const void *>(
                            static_cast<std::uintptr_t>(IC.poolValue(In.B))));
      break;
    case Op::CallArgII:
      V.prepareCallArgII(static_cast<unsigned>(In.A),
                         static_cast<std::int64_t>(IC.poolValue(In.B)));
      break;
    case Op::CallArgD:
      V.prepareCallArgD(static_cast<unsigned>(In.A), loc(In.B));
      break;
    case Op::Call:
      V.emitCall(reinterpret_cast<const void *>(
                     static_cast<std::uintptr_t>(IC.poolValue(In.A))),
                 static_cast<unsigned>(In.B));
      break;
    case Op::CallIndirect:
      V.emitCallIndirect(loc(In.A), static_cast<unsigned>(In.B));
      break;
    case Op::ResultI:
      V.resultToI(loc(In.A));
      break;
    case Op::ResultL:
      V.resultToL(loc(In.A));
      break;
    case Op::ResultD:
      V.resultToD(loc(In.A));
      break;
    }
  }

  const ICode &IC;
  VCode &V;
  const Allocation &Alloc;
  bool CallerSavedPool;
  int *SlotDesignator;      ///< Arena-resident, numRegs() entries.
  vcode::Label *VLabels;    ///< Arena-resident, numLabels() entries.
};

} // namespace

void *ICode::compileTo(VCode &V, RegAllocKind Kind, CompileStats *Stats,
                       SpillHeuristic Spill, const CompileAudit *Audit) {
  CompileStats Local;
  CompileStats &S = Stats ? *Stats : Local;

  // A body with no call site keeps no value across one, so it can live in
  // caller-saved registers. Read before dead-code elimination: a page-
  // guarded function's fallback walks the whole spec again, unreachable
  // calls included, in the same frame and pool.
  bool CallFree = true;
  {
    obs::Phase T(obs::EventKind::Peephole, S.CyclesPeephole);
    for (const Instr &In : Instrs)
      CallFree &= In.Opcode != Op::Call && In.Opcode != Op::CallIndirect;
    eliminateDeadCode(Instrs.data(), Instrs.size(), numRegs(), *A);
  }
  if (Audit && Audit->PostPeephole)
    Audit->PostPeephole(Audit->Ctx, *this);

  // Every analysis phase allocates from the ICode's arena: on the compileFn
  // path this is a CompileContext arena reset between compiles, so
  // the whole pipeline below is heap-allocation-free in the steady state.
  FlowGraph FG(*A);
  {
    obs::Phase T(obs::EventKind::FlowGraph, S.CyclesFlowGraph);
    FG.build(*this);
  }

  {
    obs::Phase T(obs::EventKind::Liveness, S.CyclesLiveness);
    S.NumLivenessIterations = FG.solveLiveness(*this);
  }

  // Intervals are needed for linear scan and, under either allocator, for
  // deciding which caller-saved-class values cross a call.
  ArenaVector<Interval> Intervals;
  const std::uint8_t *MustSpill = nullptr;
  {
    obs::Phase T(obs::EventKind::LiveIntervals, S.CyclesIntervals);
    Intervals = buildLiveIntervals(*this, FG);
    MustSpill = computeMustSpill(*this, Intervals.data(), Intervals.size());
  }

  Allocation Alloc;
  {
    obs::Phase T(Kind == RegAllocKind::LinearScan ? obs::EventKind::LinearScan
                                                  : obs::EventKind::GraphColor,
                 S.CyclesRegAlloc);
    Alloc =
        Kind == RegAllocKind::LinearScan
            ? allocateLinearScan(*this, Intervals, vcode::VCode::NumIntPool,
                                 vcode::VCode::NumFloatPool, Spill, MustSpill)
            : allocateGraphColor(*this, FG, vcode::VCode::NumIntPool,
                                 vcode::VCode::NumFloatPool, Spill, MustSpill);
  }
  if (Audit && Audit->PostRegAlloc)
    Audit->PostRegAlloc(Audit->Ctx, *this, Alloc);

  // A page-guarded function is one frame with two bodies: this one, then
  // the fallback the guard branches to, whose epilogues jump to this
  // body's first one. The caller emits the fallback and finishes V.
  const bool Guarded = !Guards.empty();
  void *Entry = nullptr;
  vcode::Label Fallback;
  {
    // The final stat tally stays inside the emit scope so the per-phase
    // cycles keep covering the whole pipeline (tickc-report drift guard).
    obs::Phase T(obs::EventKind::Emit, S.CyclesEmit);
    S.CallerSavedPool = CallFree;
    if (CallFree) {
      std::uint32_t Used = 0;
      for (unsigned R = 0; R < Alloc.NumRegs; ++R)
        if (Alloc.Location[R] >= 0 && !isFloatReg(static_cast<VReg>(R)))
          Used |= 1u << Alloc.Location[R];
      V.useCallerSavedPool(Used);
    }
    if (Guarded) {
      Fallback = V.newLabel();
      V.shareExit(V.newLabel());
    }
    Emitter E(*this, V, Alloc, CallFree);
    E.run(Fallback);
    if (Guarded) {
      V.bindLabel(Fallback);
      V.exitThrough();
    } else {
      Entry = V.finish();
    }
    S.NumBasicBlocks = static_cast<unsigned>(FG.blocks().size());
    S.NumIntervals = 0;
    for (unsigned R = 0; R < Alloc.NumRegs; ++R)
      S.NumIntervals += Alloc.Location[R] != Allocation::Unused;
    S.NumSpilledIntervals = Alloc.NumSpilled;
    for (const Instr &In : Instrs)
      S.NumIRInstrs += In.Opcode != Op::Nop && In.Opcode != Op::Hint &&
                       In.Opcode != Op::Label;
    S.NumMachineInstrs = V.instructionsEmitted();
  }
  return Entry;
}
