//===- icode/ICode.h - IR-building dynamic back end ------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ICODE abstract machine (paper §5.2). ICODE presents an interface
/// similar to VCODE with two extensions: (1) an infinite number of virtual
/// registers, and (2) primitives to express changes in estimated usage
/// frequency (loop-nesting hints), so the allocator gets use estimates
/// without expensive analysis.
///
/// Functionally, ICODE differs from VCODE in that it builds a compact
/// intermediate representation at run time instead of emitting machine code
/// immediately. After the client lays down the last instruction, compileTo()
/// builds a flow graph, computes live variables by iteration, derives
/// coarse *live intervals*, allocates registers (linear scan, Figure 3 of
/// the paper — its original publication — or a Chaitin-style graph-coloring
/// baseline), runs a peephole pass, and translates the IR to binary through
/// the VCODE layer.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_ICODE_ICODE_H
#define TICKC_ICODE_ICODE_H

#include "support/Arena.h"
#include "vcode/VCode.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace tcc {
namespace icode {

using vcode::CmpKind;

/// Virtual register id. ICODE clients "emit code that assumes no spills".
using VReg = std::int32_t;

/// Branch-target handle within an ICODE buffer.
struct ILabel {
  std::int32_t Id = -1;
  bool valid() const { return Id >= 0; }
};

/// ICODE opcodes. The paper's instruction set is the cross product of
/// operation kinds and operand types; we fold the type into the mnemonic
/// (I = int32, L = int64/pointer, D = double) exactly like the VCODE layer.
enum class Op : std::uint8_t {
  // Constants and moves. Wide payloads live in the constant pool.
  SetI,
  SetL,
  SetD,
  MovI,
  MovD,
  // Three-address integer arithmetic.
  AddI,
  SubI,
  MulI,
  DivI,
  ModI,
  DivUI,
  ModUI,
  AndI,
  OrI,
  XorI,
  ShlI,
  ShrI,
  UShrI,
  // Reg-immediate integer arithmetic.
  AddII,
  SubII,
  MulII,
  DivII,
  ModII,
  AndII,
  OrII,
  XorII,
  ShlII,
  ShrII,
  UShrII,
  // Unary.
  NegI,
  NotI,
  // 64-bit / pointer.
  AddL,
  SubL,
  MulL,
  AddLI,
  MulLI,
  ShlLI,
  SextIToL,
  // Double arithmetic and conversions.
  AddD,
  SubD,
  MulD,
  DivD,
  NegD,
  CvtIToD,
  CvtLToD,
  CvtDToI,
  // Comparisons producing 0/1 (Sub = CmpKind).
  CmpSetI,
  CmpSetII,
  CmpSetL,
  CmpSetD,
  // Memory.
  LdI,
  LdL,
  LdI8s,
  LdI8u,
  LdI16s,
  LdI16u,
  LdD,
  StI,
  StL,
  StI8,
  StI16,
  StD,
  // Control flow.
  Label,
  Jump,
  BrCmpI,
  BrCmpII,
  BrCmpL,
  BrCmpD,
  BrTrue,
  BrFalse,
  // Function boundary.
  BindArgI,
  BindArgD,
  RetI,
  RetL,
  RetD,
  RetVoid,
  // Calls.
  CallArgI,
  CallArgP,
  CallArgII,
  CallArgD,
  Call,
  CallIndirect,
  ResultI,
  ResultL,
  ResultD,
  // Usage-frequency hint: A = +1 entering a loop, -1 leaving it.
  Hint,
  // Profiling hook: atomic increment of the invocation counter whose
  // address sits in the constant pool (A). Impure — never erased.
  ProfileInc,
  // SetL whose pool payload (B) is a captured external address rather
  // than plain data. Identical machine code; the distinction lets the
  // emitter record a relocation so the persistent cache can re-point it.
  SetP,
  // Erased by the peephole pass; never emitted.
  Nop,
};

constexpr unsigned NumOpcodes = static_cast<unsigned>(Op::Nop) + 1;

/// Human-readable opcode mnemonic (diagnostics and the emitter-usage report).
const char *opName(Op O);

/// One ICODE instruction. The paper packs these into two 4-byte words; on a
/// 64-bit host we use a 16-byte POD with the same design goals: compact and
/// trivially parseable so later passes stay cheap.
struct Instr {
  Op Opcode;
  std::uint8_t Sub; ///< CmpKind for compare/branch forms, else 0.
  std::int32_t A = 0, B = 0, C = 0;
};

static_assert(sizeof(Instr) == 16, "ICODE instruction should stay compact");

struct Allocation; // Analysis.h

/// One unit of the page guard a speculating compile plants right after
/// its prologue (core/Compile.cpp, branch-free predicates): the loads off
/// integer argument ArgIndex span [arg+Lo, arg+Lo+Span).
struct PageGuard {
  std::uint32_t ArgIndex = 0;
  std::int32_t Lo = 0;
  std::uint32_t Span = 0;
};

/// Optional checkpoints compileTo() exposes to the verification subsystem
/// (src/verify). Plain function pointers so icode does not depend on verify;
/// the core compile driver wires them up when verification is on. Both hooks
/// observe, never mutate.
struct CompileAudit {
  void *Ctx = nullptr;
  /// After dead-code elimination, before flow-graph construction.
  void (*PostPeephole)(void *Ctx, const class ICode &IC) = nullptr;
  /// After register allocation, before machine-code emission.
  void (*PostRegAlloc)(void *Ctx, const class ICode &IC,
                       const Allocation &Alloc) = nullptr;
};

/// Which register allocator compileTo() uses.
enum class RegAllocKind {
  LinearScan, ///< One scan over live intervals (paper Figure 3).
  GraphColor, ///< Chaitin-style coloring baseline (paper §5.2).
};

/// How the allocator picks a spill victim.
enum class SpillHeuristic {
  LongestInterval, ///< The paper's choice: evict the earliest-starting.
  LowestWeight,    ///< Ablation: evict the least-used (loop-depth hints).
};

/// Per-phase cost breakdown of one dynamic compilation, in TSC cycles —
/// the raw material of the paper's Figure 7.
struct CompileStats {
  std::uint64_t CyclesFlowGraph = 0;
  std::uint64_t CyclesLiveness = 0;
  std::uint64_t CyclesIntervals = 0;
  std::uint64_t CyclesRegAlloc = 0;
  std::uint64_t CyclesPeephole = 0;
  std::uint64_t CyclesEmit = 0;
  unsigned NumIRInstrs = 0;
  unsigned NumMachineInstrs = 0;
  unsigned NumBasicBlocks = 0;
  unsigned NumIntervals = 0;
  unsigned NumSpilledIntervals = 0;
  unsigned NumLivenessIterations = 0;
  /// The body has no call, so it was emitted with the caller-saved pool
  /// (vcode::VCode::useCallerSavedPool).
  bool CallerSavedPool = false;
};

/// Records which ICODE opcodes a program actually uses. Reproduces the
/// measurable effect of tcc's link-time analysis: the generated
/// ICODE-to-binary translator contains only the required instructions,
/// cutting the emitter size "by up to an order of magnitude" (paper §5.2).
class EmitterUsage {
public:
  /// Relaxed: the registry is a global written by every concurrent ICODE
  /// compile; a monotonic flag needs no ordering (and the store costs the
  /// same as a plain one on x86).
  void noteUse(Op O) {
    Used[static_cast<unsigned>(O)].store(true, std::memory_order_relaxed);
  }
  unsigned usedOpcodes() const;
  static unsigned totalOpcodes() { return NumOpcodes; }
  /// Estimated handler footprint: the paper reports ~100 instructions of
  /// translate/peephole code per ICODE instruction kind.
  static constexpr unsigned InstrsPerHandler = 100;
  unsigned retainedHandlerInstrs() const {
    return usedOpcodes() * InstrsPerHandler;
  }
  static unsigned fullHandlerInstrs() {
    return totalOpcodes() * InstrsPerHandler;
  }
  bool isUsed(Op O) const {
    return Used[static_cast<unsigned>(O)].load(std::memory_order_relaxed);
  }

  /// Clears every flag (bench isolation between measured programs).
  void reset() {
    for (auto &U : Used)
      U.store(false, std::memory_order_relaxed);
  }

private:
  std::atomic<bool> Used[NumOpcodes] = {};
};

/// ICODE instruction buffer and builder. The mutator interface mirrors
/// vcode::VCode, but every operation appends to the IR instead of emitting.
class ICode {
public:
  /// Owns a private arena — convenient for tests and ad-hoc use.
  ICode();
  /// Builds the IR (and every later analysis structure) in \p A — the
  /// steady-state compile path, where \p A is the thread's CompileContext's
  /// arena that is reset (retaining its slab) between compiles.
  explicit ICode(Arena &A);

  /// The arena all pipeline phases allocate from. Exposed const: analysis
  /// scratch in the arena never changes the IR's logical state.
  Arena &arena() const { return *A; }

  // --- Virtual registers ----------------------------------------------------
  VReg newIntReg();
  VReg newFloatReg();
  bool isFloatReg(VReg R) const { return RegIsFloat[R] != 0; }
  unsigned numRegs() const { return static_cast<unsigned>(RegIsFloat.size()); }

  // --- Usage-frequency hints -------------------------------------------------
  /// Marks entry into (Delta=+1) or exit from (Delta=-1) a more frequently
  /// executed region. Nested loops compose.
  void hint(int Delta) { append(Op::Hint, 0, Delta, 0, 0); }

  // --- Profiling hook --------------------------------------------------------
  /// Plants the opt-in profiling hook (observability/Profile.h): the emitted
  /// prologue atomically increments the 64-bit counter at \p Counter, which
  /// must outlive the generated code. Uses no virtual registers, so every
  /// later pass treats it as opaque straight-line code.
  void profileEntry(const void *Counter) {
    append(Op::ProfileInc, 0,
           addPool(reinterpret_cast<std::uintptr_t>(Counter)), 0, 0);
  }

  // --- Constants and moves -----------------------------------------------------
  void setI(VReg D, std::int32_t Imm) { append(Op::SetI, 0, D, Imm, 0); }
  void setL(VReg D, std::int64_t Imm) {
    append(Op::SetL, 0, D, addPool(static_cast<std::uint64_t>(Imm)), 0);
  }
  void setP(VReg D, const void *P) {
    append(Op::SetP, 0, D, addPool(reinterpret_cast<std::uintptr_t>(P)), 0);
  }
  void setD(VReg D, double Imm);
  void movI(VReg D, VReg S) { append(Op::MovI, 0, D, S, 0); }
  void movL(VReg D, VReg S) { movI(D, S); } ///< Registers are 64-bit wide.
  void movD(VReg D, VReg S) { append(Op::MovD, 0, D, S, 0); }

  // --- Arithmetic ----------------------------------------------------------------
  void addI(VReg D, VReg A, VReg B) { append(Op::AddI, 0, D, A, B); }
  void subI(VReg D, VReg A, VReg B) { append(Op::SubI, 0, D, A, B); }
  void mulI(VReg D, VReg A, VReg B) { append(Op::MulI, 0, D, A, B); }
  void divI(VReg D, VReg A, VReg B) { append(Op::DivI, 0, D, A, B); }
  void modI(VReg D, VReg A, VReg B) { append(Op::ModI, 0, D, A, B); }
  void divUI(VReg D, VReg A, VReg B) { append(Op::DivUI, 0, D, A, B); }
  void modUI(VReg D, VReg A, VReg B) { append(Op::ModUI, 0, D, A, B); }
  void andI(VReg D, VReg A, VReg B) { append(Op::AndI, 0, D, A, B); }
  void orI(VReg D, VReg A, VReg B) { append(Op::OrI, 0, D, A, B); }
  void xorI(VReg D, VReg A, VReg B) { append(Op::XorI, 0, D, A, B); }
  void shlI(VReg D, VReg A, VReg B) { append(Op::ShlI, 0, D, A, B); }
  void shrI(VReg D, VReg A, VReg B) { append(Op::ShrI, 0, D, A, B); }
  void ushrI(VReg D, VReg A, VReg B) { append(Op::UShrI, 0, D, A, B); }
  void negI(VReg D, VReg A) { append(Op::NegI, 0, D, A, 0); }
  void notI(VReg D, VReg A) { append(Op::NotI, 0, D, A, 0); }

  void addII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::AddII, 0, D, A, Imm);
  }
  void subII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::SubII, 0, D, A, Imm);
  }
  void mulII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::MulII, 0, D, A, Imm);
  }
  void divII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::DivII, 0, D, A, Imm);
  }
  void modII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::ModII, 0, D, A, Imm);
  }
  void andII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::AndII, 0, D, A, Imm);
  }
  void orII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::OrII, 0, D, A, Imm);
  }
  void xorII(VReg D, VReg A, std::int32_t Imm) {
    append(Op::XorII, 0, D, A, Imm);
  }
  void shlII(VReg D, VReg A, std::uint8_t Imm) {
    append(Op::ShlII, 0, D, A, Imm);
  }
  void shrII(VReg D, VReg A, std::uint8_t Imm) {
    append(Op::ShrII, 0, D, A, Imm);
  }
  void ushrII(VReg D, VReg A, std::uint8_t Imm) {
    append(Op::UShrII, 0, D, A, Imm);
  }

  void addL(VReg D, VReg A, VReg B) { append(Op::AddL, 0, D, A, B); }
  void subL(VReg D, VReg A, VReg B) { append(Op::SubL, 0, D, A, B); }
  void mulL(VReg D, VReg A, VReg B) { append(Op::MulL, 0, D, A, B); }
  void addLI(VReg D, VReg A, std::int32_t Imm) {
    append(Op::AddLI, 0, D, A, Imm);
  }
  void mulLI(VReg D, VReg A, std::int32_t Imm) {
    append(Op::MulLI, 0, D, A, Imm);
  }
  void shlLI(VReg D, VReg A, std::uint8_t Imm) {
    append(Op::ShlLI, 0, D, A, Imm);
  }
  void sextIToL(VReg D, VReg A) { append(Op::SextIToL, 0, D, A, 0); }

  void addD(VReg D, VReg A, VReg B) { append(Op::AddD, 0, D, A, B); }
  void subD(VReg D, VReg A, VReg B) { append(Op::SubD, 0, D, A, B); }
  void mulD(VReg D, VReg A, VReg B) { append(Op::MulD, 0, D, A, B); }
  void divD(VReg D, VReg A, VReg B) { append(Op::DivD, 0, D, A, B); }
  void negD(VReg D, VReg A) { append(Op::NegD, 0, D, A, 0); }
  void cvtIToD(VReg D, VReg A) { append(Op::CvtIToD, 0, D, A, 0); }
  void cvtLToD(VReg D, VReg A) { append(Op::CvtLToD, 0, D, A, 0); }
  void cvtDToI(VReg D, VReg A) { append(Op::CvtDToI, 0, D, A, 0); }

  void cmpSetI(CmpKind K, VReg D, VReg A, VReg B) {
    append(Op::CmpSetI, static_cast<std::uint8_t>(K), D, A, B);
  }
  void cmpSetII(CmpKind K, VReg D, VReg A, std::int32_t Imm) {
    append(Op::CmpSetII, static_cast<std::uint8_t>(K), D, A, Imm);
  }
  void cmpSetL(CmpKind K, VReg D, VReg A, VReg B) {
    append(Op::CmpSetL, static_cast<std::uint8_t>(K), D, A, B);
  }
  void cmpSetD(CmpKind K, VReg D, VReg A, VReg B) {
    append(Op::CmpSetD, static_cast<std::uint8_t>(K), D, A, B);
  }

  // --- Memory -----------------------------------------------------------------------
  void ldI(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdI, 0, D, Base, Off);
  }
  void ldL(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdL, 0, D, Base, Off);
  }
  void ldI8s(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdI8s, 0, D, Base, Off);
  }
  void ldI8u(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdI8u, 0, D, Base, Off);
  }
  void ldI16s(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdI16s, 0, D, Base, Off);
  }
  void ldI16u(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdI16u, 0, D, Base, Off);
  }
  void ldD(VReg D, VReg Base, std::int32_t Off) {
    append(Op::LdD, 0, D, Base, Off);
  }
  void stI(VReg Base, std::int32_t Off, VReg S) {
    append(Op::StI, 0, Base, S, Off);
  }
  void stL(VReg Base, std::int32_t Off, VReg S) {
    append(Op::StL, 0, Base, S, Off);
  }
  void stI8(VReg Base, std::int32_t Off, VReg S) {
    append(Op::StI8, 0, Base, S, Off);
  }
  void stI16(VReg Base, std::int32_t Off, VReg S) {
    append(Op::StI16, 0, Base, S, Off);
  }
  void stD(VReg Base, std::int32_t Off, VReg S) {
    append(Op::StD, 0, Base, S, Off);
  }

  // --- Control flow ------------------------------------------------------------------
  ILabel newLabel();
  void bindLabel(ILabel L);
  void jump(ILabel L) { append(Op::Jump, 0, L.Id, 0, 0); }
  void brCmpI(CmpKind K, VReg A, VReg B, ILabel L) {
    append(Op::BrCmpI, static_cast<std::uint8_t>(K), A, B, L.Id);
  }
  void brCmpII(CmpKind K, VReg A, std::int32_t Imm, ILabel L) {
    append(Op::BrCmpII, static_cast<std::uint8_t>(K), A, Imm, L.Id);
  }
  void brCmpL(CmpKind K, VReg A, VReg B, ILabel L) {
    append(Op::BrCmpL, static_cast<std::uint8_t>(K), A, B, L.Id);
  }
  void brCmpD(CmpKind K, VReg A, VReg B, ILabel L) {
    append(Op::BrCmpD, static_cast<std::uint8_t>(K), A, B, L.Id);
  }
  void brTrueI(VReg A, ILabel L) { append(Op::BrTrue, 0, A, L.Id, 0); }
  void brFalseI(VReg A, ILabel L) { append(Op::BrFalse, 0, A, L.Id, 0); }

  // --- Function boundary ----------------------------------------------------------------
  void bindArgI(unsigned Index, VReg D) {
    append(Op::BindArgI, 0, D, static_cast<std::int32_t>(Index), 0);
  }
  void bindArgD(unsigned Index, VReg D) {
    append(Op::BindArgD, 0, D, static_cast<std::int32_t>(Index), 0);
  }
  void retI(VReg A) { append(Op::RetI, 0, A, 0, 0); }
  void retL(VReg A) { append(Op::RetL, 0, A, 0, 0); }
  void retD(VReg A) { append(Op::RetD, 0, A, 0, 0); }
  void retVoid() { append(Op::RetVoid, 0, 0, 0, 0); }

  // --- Calls --------------------------------------------------------------------------------
  void prepareCallArgI(unsigned Slot, VReg S) {
    append(Op::CallArgI, 0, static_cast<std::int32_t>(Slot), S, 0);
  }
  void prepareCallArgP(unsigned Slot, const void *P) {
    append(Op::CallArgP, 0, static_cast<std::int32_t>(Slot),
           addPool(reinterpret_cast<std::uintptr_t>(P)), 0);
  }
  void prepareCallArgII(unsigned Slot, std::int64_t Imm) {
    append(Op::CallArgII, 0, static_cast<std::int32_t>(Slot),
           addPool(static_cast<std::uint64_t>(Imm)), 0);
  }
  void prepareCallArgD(unsigned FpSlot, VReg S) {
    append(Op::CallArgD, 0, static_cast<std::int32_t>(FpSlot), S, 0);
  }
  void emitCall(const void *Fn, unsigned NumFpArgs = 0) {
    append(Op::Call, 0, addPool(reinterpret_cast<std::uintptr_t>(Fn)),
           static_cast<std::int32_t>(NumFpArgs), 0);
  }
  void emitCallIndirect(VReg S, unsigned NumFpArgs = 0) {
    append(Op::CallIndirect, 0, S, static_cast<std::int32_t>(NumFpArgs), 0);
  }
  void resultToI(VReg D) { append(Op::ResultI, 0, D, 0, 0); }
  void resultToL(VReg D) { append(Op::ResultL, 0, D, 0, 0); }
  void resultToD(VReg D) { append(Op::ResultD, 0, D, 0, 0); }

  // --- Page guard ------------------------------------------------------------------------------
  /// Asks compileTo() to plant a page-guard unit right after the prologue.
  /// A failing unit branches to the fallback the caller of compileTo()
  /// emits after the guarded body.
  void addPageGuard(unsigned ArgIndex, std::int32_t Lo, std::uint32_t Span) {
    Guards.push_back(PageGuard{ArgIndex, Lo, Span});
  }
  const ArenaVector<PageGuard> &pageGuards() const { return Guards; }

  // --- Compilation -----------------------------------------------------------------------------
  /// Runs the full ICODE pipeline into \p V (which must be freshly
  /// constructed): flow graph, liveness, intervals, register allocation,
  /// peephole, emission. Returns the entry point (V.finish()). With page
  /// guards it returns null and leaves \p V unfinished, positioned where
  /// the guards branch to: the caller emits the fallback there, whose
  /// epilogues jump to the guarded body's, and calls V.finish().
  void *compileTo(vcode::VCode &V, RegAllocKind Kind,
                  CompileStats *Stats = nullptr,
                  SpillHeuristic Spill = SpillHeuristic::LongestInterval,
                  const CompileAudit *Audit = nullptr);

  // --- Introspection ------------------------------------------------------------------------------
  const ArenaVector<Instr> &instrs() const { return Instrs; }
  std::uint64_t poolValue(std::int32_t Idx) const {
    return Pool[static_cast<std::size_t>(Idx)];
  }
  unsigned poolSize() const { return static_cast<unsigned>(Pool.size()); }
  unsigned numLabels() const { return NumLabels; }
  /// Instruction index a label was bound at (or -1).
  std::int32_t labelTarget(std::int32_t LabelId) const {
    return LabelTargets[static_cast<std::size_t>(LabelId)];
  }
  /// Extracts defined and used vregs of an instruction. Returns counts via
  /// the out-parameters; buffers must hold at least 1 (defs) / 2 (uses).
  static void defsUses(const Instr &I, VReg *Defs, unsigned &NumDefs,
                       VReg *Uses, unsigned &NumUses);
  /// Shared opcode-usage registry (reset explicitly in benchmarks).
  static EmitterUsage &emitterUsage();

  /// Deep copy into a fresh privately-owned arena. For callers (ablation
  /// benches) that re-run the mutating pipeline over one IR; the hot
  /// compile path never copies.
  ICode clone() const;

private:
  void append(Op O, std::uint8_t Sub, std::int32_t A, std::int32_t B,
              std::int32_t C) {
    Instrs.push_back(Instr{O, Sub, A, B, C});
  }
  std::int32_t addPool(std::uint64_t V) {
    Pool.push_back(V);
    return static_cast<std::int32_t>(Pool.size() - 1);
  }

  /// Private arena for the ownerless constructor; null when building into a
  /// caller-provided arena.
  std::unique_ptr<Arena> Owned;
  Arena *A;
  ArenaVector<Instr> Instrs;
  ArenaVector<std::uint64_t> Pool;
  ArenaVector<std::uint8_t> RegIsFloat;
  ArenaVector<std::int32_t> LabelTargets;
  ArenaVector<PageGuard> Guards;
  unsigned NumLabels = 0;
};

} // namespace icode
} // namespace tcc

#endif // TICKC_ICODE_ICODE_H
