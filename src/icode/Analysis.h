//===- icode/Analysis.h - Flow graph, liveness, live intervals -*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal analysis structures of the ICODE back end (paper §5.2):
///
///  * FlowGraph — built in one pass over the instruction buffer after all
///    CGFs have run; a single array of blocks whose size is bounded by the
///    number of labels and jumps. Def/use sets are collected while building.
///  * Liveness — a traditional relaxation (iterative dataflow) computing
///    exact live-variable information. The four per-block sets are packed
///    uint64_t bitsets carved out of one arena allocation; the relaxation
///    runs word-at-a-time, so a pass over a block costs
///    O(blocks * words-per-set) with no per-bit branching.
///  * Live intervals — the coarse [first-live, last-live] approximation the
///    linear-scan allocator consumes; holes are deliberately ignored.
///
/// Every structure here allocates from the originating ICode's arena (see
/// ICode::arena()): on the compileFn path nothing in this header
/// touches the system allocator in the steady state.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_ICODE_ANALYSIS_H
#define TICKC_ICODE_ANALYSIS_H

#include "icode/ICode.h"
#include "support/Arena.h"

#include <cstdint>
#include <memory>
#include <vector>

#ifdef TICKC_CHECK_LIVENESS
#include "support/BitVector.h"
#endif

namespace tcc {
namespace icode {

/// A non-owning view of a fixed-width bitset whose words live in an arena.
/// The per-block dataflow sets are BitSetRefs into one packed allocation
/// (see FlowGraph::build), so copying a BasicBlock copies two pointers, not
/// a heap-backed set.
struct BitSetRef {
  std::uint64_t *Words = nullptr;
  std::uint32_t NumWords = 0;

  bool test(unsigned I) const {
    return (Words[I / 64] >> (I % 64)) & 1u;
  }
  void set(unsigned I) { Words[I / 64] |= std::uint64_t(1) << (I % 64); }
  void clear(unsigned I) { Words[I / 64] &= ~(std::uint64_t(1) << (I % 64)); }
  void clearAll() {
    for (std::uint32_t W = 0; W < NumWords; ++W)
      Words[W] = 0;
  }
  void copyFrom(const BitSetRef &Other) {
    for (std::uint32_t W = 0; W < NumWords; ++W)
      Words[W] = Other.Words[W];
  }
  unsigned count() const {
    unsigned N = 0;
    for (std::uint32_t W = 0; W < NumWords; ++W)
      N += static_cast<unsigned>(__builtin_popcountll(Words[W]));
    return N;
  }
  /// Calls \p Fn(index) for each set bit, ascending.
  template <typename FnT> void forEach(FnT Fn) const {
    for (std::uint32_t W = 0; W < NumWords; ++W) {
      std::uint64_t Word = Words[W];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        Fn(W * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }
};

/// A basic block: instruction index range [Begin, End), up to two
/// successors, and the dataflow sets over virtual registers.
struct BasicBlock {
  std::int32_t Begin = 0;
  std::int32_t End = 0;
  std::int32_t Succ[2] = {-1, -1};
  BitSetRef Def, Use, LiveIn, LiveOut;
};

/// The control-flow graph plus liveness results.
class FlowGraph {
public:
  /// Allocates from a private arena — tests and ad-hoc analysis.
  FlowGraph();
  /// Allocates from \p BackingArena (the compile pipeline passes the
  /// originating ICode's arena).
  explicit FlowGraph(Arena &BackingArena);

  /// Builds blocks and per-block def/use sets in one pass (paper §5.2:
  /// "ICODE builds a flow graph in one pass after all CGFs have been
  /// invoked").
  void build(const ICode &IC);

  /// Iterative live-variable analysis to fixpoint, word-at-a-time over the
  /// packed sets. Returns the number of passes over the block array.
  unsigned solveLiveness(const ICode &IC);

  const ArenaVector<BasicBlock> &blocks() const { return Blocks; }
  ArenaVector<BasicBlock> &blocks() { return Blocks; }
  /// Block index containing instruction \p InstrIdx.
  std::int32_t blockOf(std::int32_t InstrIdx) const {
    return BlockOfInstr[static_cast<std::size_t>(InstrIdx)];
  }
  /// Words per dataflow set (ceil(numRegs / 64)).
  unsigned wordsPerSet() const { return WordsPerSet; }

private:
  Arena &arena() { return *A; }

  std::unique_ptr<Arena> Owned;
  Arena *A;
  ArenaVector<BasicBlock> Blocks;
  std::int32_t *BlockOfInstr = nullptr;
  unsigned NumRegs = 0;
  unsigned WordsPerSet = 0;
};

#ifdef TICKC_CHECK_LIVENESS
/// Oracle for the liveness property test: recomputes per-block def/use and
/// runs the pre-bitset, BitVector-based relaxation over the same block
/// structure. The packed word-at-a-time dataflow must produce bit-identical
/// LiveIn/LiveOut. Compiled only under TICKC_CHECK_LIVENESS.
void solveLivenessReference(const ICode &IC, const FlowGraph &FG,
                            std::vector<BitVector> &LiveIn,
                            std::vector<BitVector> &LiveOut);
#endif

/// A live interval [Start, End] (inclusive instruction indices) for one
/// virtual register, with a usage-frequency weight derived from the
/// client's loop hints.
struct Interval {
  VReg Reg = -1;
  std::int32_t Start = 0;
  std::int32_t End = 0;
  std::uint64_t Weight = 0;
  bool IsFloat = false;
};

/// Where the allocator put each virtual register. Location points into the
/// originating ICode's arena.
struct Allocation {
  static constexpr int Unused = -1;  ///< Register never occurs.
  static constexpr int Spilled = -2; ///< Lives in a stack slot.
  /// Per-vreg: pool index >= 0, or Unused/Spilled. numRegs() entries.
  int *Location = nullptr;
  unsigned NumRegs = 0;
  unsigned NumSpilled = 0;
};

/// Builds the interval list, sorted by end point, in IC's arena. Weights
/// accumulate 10^loop-depth per occurrence, driven by Op::Hint markers.
ArenaVector<Interval> buildLiveIntervals(const ICode &IC, const FlowGraph &FG);

/// Per-vreg "must live in memory" mask (1 byte per vreg, in IC's arena):
/// double-precision values whose interval crosses a call site cannot stay
/// in (caller-saved) XMM registers. Only float vregs are affected: code
/// with a call site gets the callee-saved integer pool, and the
/// caller-saved one only where there is no call to cross (see
/// vcode::VCode::useCallerSavedPool). Returns null when the code has no
/// call sites — callers treat null as all-clear.
const std::uint8_t *computeMustSpill(const ICode &IC,
                                     const Interval *Intervals,
                                     std::size_t NumIntervals);

/// Linear-scan register allocation over live intervals — Figure 3 of the
/// paper (its original publication). O(I * R). \p Intervals must be sorted
/// by increasing end point; the active list is a fixed array bounded by the
/// physical register count, so the scan itself performs no allocation
/// beyond the result's Location array.
Allocation allocateLinearScan(const ICode &IC,
                              const ArenaVector<Interval> &Intervals,
                              int NumIntRegs, int NumFloatRegs,
                              SpillHeuristic Spill,
                              const std::uint8_t *MustSpill);

/// Chaitin-style graph-coloring allocation (paper §5.2's baseline), with
/// Briggs-style optimistic coloring. Interference edges come from exact
/// per-instruction liveness, so its coloring can beat live intervals. The
/// interference graph is a packed bitset matrix in IC's arena — the same
/// representation the liveness solver uses — so the regalloc ablation
/// compares allocator algorithms, not container malloc habits.
Allocation allocateGraphColor(const ICode &IC, const FlowGraph &FG,
                              int NumIntRegs, int NumFloatRegs,
                              SpillHeuristic Spill,
                              const std::uint8_t *MustSpill);

/// Dead-code elimination over unreachable instructions (after a jump or
/// return, before the next label) and pure instructions whose results are
/// never used; part of the peephole machinery run before allocation.
/// Returns the number of instructions erased (turned into Nop). \p Scratch
/// backs the use-count table.
unsigned eliminateDeadCode(Instr *Instrs, std::size_t NumInstrs,
                           unsigned NumRegs, Arena &Scratch);

/// Convenience overload over a std::vector buffer (tests, ad-hoc passes).
inline unsigned eliminateDeadCode(std::vector<Instr> &Instrs,
                                  unsigned NumRegs) {
  Arena Scratch(4096);
  return eliminateDeadCode(Instrs.data(), Instrs.size(), NumRegs, Scratch);
}

} // namespace icode
} // namespace tcc

#endif // TICKC_ICODE_ANALYSIS_H
