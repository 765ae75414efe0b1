//===- icode/FlowGraph.cpp - One-pass CFG construction + liveness ---------==//
//
// Paper §5.2: "ICODE builds a flow graph in one pass after all CGFs have
// been invoked ... The flow graph is a single array ... ICODE computes an
// upper bound on the number of basic blocks by summing the numbers of labels
// and jumps." Liveness uses "a traditional relaxation algorithm for
// computing exact live variable information."
//
// The four dataflow sets of every block are carved out of one zeroed arena
// allocation, [block][Def | Use | LiveIn | LiveOut][word], and the
// relaxation operates on whole uint64_t words: per pass each block costs a
// handful of OR/AND-NOT word operations instead of per-bit container
// traffic. On the compileFn path the backing arena is reset between
// compiles, so steady-state liveness performs no heap allocation at all.
//
//===----------------------------------------------------------------------===//

#include "icode/Analysis.h"

#include <cassert>

using namespace tcc;
using namespace tcc::icode;

/// True if the instruction ends a basic block.
static bool isTerminator(Op O) {
  switch (O) {
  case Op::Jump:
  case Op::BrCmpI:
  case Op::BrCmpII:
  case Op::BrCmpL:
  case Op::BrCmpD:
  case Op::BrTrue:
  case Op::BrFalse:
  case Op::RetI:
  case Op::RetL:
  case Op::RetD:
  case Op::RetVoid:
    return true;
  default:
    return false;
  }
}

/// Label id a branch targets, or -1.
static std::int32_t branchTarget(const Instr &I) {
  switch (I.Opcode) {
  case Op::Jump:
    return I.A;
  case Op::BrCmpI:
  case Op::BrCmpII:
  case Op::BrCmpL:
  case Op::BrCmpD:
    return I.C;
  case Op::BrTrue:
  case Op::BrFalse:
    return I.B;
  default:
    return -1;
  }
}

FlowGraph::FlowGraph() : Owned(new Arena()), A(Owned.get()), Blocks(*A) {}

FlowGraph::FlowGraph(Arena &BackingArena)
    : A(&BackingArena), Blocks(*A) {}

void FlowGraph::build(const ICode &IC) {
  const auto &Instrs = IC.instrs();
  const auto N = static_cast<std::int32_t>(Instrs.size());
  NumRegs = IC.numRegs();
  WordsPerSet = (NumRegs + 63) / 64;

  Blocks.clear();
  // Upper bound on block count: one per label plus one per terminator,
  // plus the entry block — reserve once, as the paper's single-array
  // allocation does.
  unsigned Bound = 1 + IC.numLabels();
  for (const Instr &I : Instrs)
    Bound += isTerminator(I.Opcode);
  Blocks.reserve(Bound);

  BlockOfInstr = A->allocateArray<std::int32_t>(static_cast<std::size_t>(N));
  for (std::int32_t I = 0; I < N; ++I)
    BlockOfInstr[I] = -1;

  // Pass 1: carve blocks. A block begins at index 0, at each Label, and
  // after each terminator.
  std::int32_t Idx = 0;
  while (Idx < N) {
    BasicBlock BB;
    BB.Begin = Idx;
    // A leading run of Label instructions belongs to this block.
    while (Idx < N && Instrs[Idx].Opcode == Op::Label)
      ++Idx;
    while (Idx < N && Instrs[Idx].Opcode != Op::Label &&
           !isTerminator(Instrs[Idx].Opcode))
      ++Idx;
    if (Idx < N && isTerminator(Instrs[Idx].Opcode))
      ++Idx; // Terminator closes the block.
    BB.End = Idx;
    Blocks.push_back(BB);
  }
  if (Blocks.empty()) {
    BasicBlock BB;
    Blocks.push_back(BB);
  }

  for (std::size_t B = 0; B < Blocks.size(); ++B)
    for (std::int32_t I = Blocks[B].Begin; I < Blocks[B].End; ++I)
      BlockOfInstr[static_cast<std::size_t>(I)] =
          static_cast<std::int32_t>(B);

  // Pass 2: successors. Fall-through plus branch target.
  for (std::size_t B = 0; B < Blocks.size(); ++B) {
    BasicBlock &BB = Blocks[B];
    if (BB.Begin == BB.End)
      continue;
    const Instr &Last = Instrs[static_cast<std::size_t>(BB.End - 1)];
    bool Falls = true;
    switch (Last.Opcode) {
    case Op::Jump:
    case Op::RetI:
    case Op::RetL:
    case Op::RetD:
    case Op::RetVoid:
      Falls = false;
      break;
    default:
      break;
    }
    unsigned NS = 0;
    if (Falls && B + 1 < Blocks.size())
      BB.Succ[NS++] = static_cast<std::int32_t>(B + 1);
    std::int32_t Target = branchTarget(Last);
    if (Target >= 0) {
      std::int32_t TargetInstr = IC.labelTarget(Target);
      assert(TargetInstr >= 0 && "branch to unbound label");
      std::int32_t TargetBlock = BlockOfInstr[TargetInstr];
      if (NS == 0 || BB.Succ[0] != TargetBlock)
        BB.Succ[NS++] = TargetBlock;
    }
  }

  // Pass 3: def/use sets ("a minimal amount of local data flow
  // information: def and use sets for each basic block"). All four sets of
  // all blocks share one zeroed allocation: [block][set][word].
  std::uint64_t *SetWords =
      A->allocateZeroed<std::uint64_t>(Blocks.size() * 4 * WordsPerSet);
  for (std::size_t B = 0; B < Blocks.size(); ++B) {
    BasicBlock &BB = Blocks[B];
    std::uint64_t *Base = SetWords + B * 4 * WordsPerSet;
    BB.Def = BitSetRef{Base + 0 * WordsPerSet, WordsPerSet};
    BB.Use = BitSetRef{Base + 1 * WordsPerSet, WordsPerSet};
    BB.LiveIn = BitSetRef{Base + 2 * WordsPerSet, WordsPerSet};
    BB.LiveOut = BitSetRef{Base + 3 * WordsPerSet, WordsPerSet};
    for (std::int32_t I = BB.Begin; I < BB.End; ++I) {
      VReg Defs[2], Uses[3];
      unsigned ND, NU;
      ICode::defsUses(Instrs[static_cast<std::size_t>(I)], Defs, ND, Uses,
                      NU);
      for (unsigned U = 0; U < NU; ++U)
        if (!BB.Def.test(static_cast<unsigned>(Uses[U])))
          BB.Use.set(static_cast<unsigned>(Uses[U]));
      for (unsigned D = 0; D < ND; ++D)
        BB.Def.set(static_cast<unsigned>(Defs[D]));
    }
  }
}

unsigned FlowGraph::solveLiveness(const ICode &) {
  const unsigned W = WordsPerSet;
  unsigned Iterations = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Iterations;
    // Reverse order converges quickly for reducible flow graphs.
    for (std::size_t BI = Blocks.size(); BI-- > 0;) {
      BasicBlock &BB = Blocks[BI];
      std::uint64_t *Out = BB.LiveOut.Words;
      std::uint64_t *In = BB.LiveIn.Words;
      for (std::int32_t S : BB.Succ) {
        if (S < 0)
          continue;
        const std::uint64_t *SuccIn =
            Blocks[static_cast<std::size_t>(S)].LiveIn.Words;
        for (unsigned K = 0; K < W; ++K) {
          std::uint64_t Old = Out[K];
          std::uint64_t New = Old | SuccIn[K];
          Out[K] = New;
          Changed |= New != Old;
        }
      }
      const std::uint64_t *Def = BB.Def.Words;
      const std::uint64_t *Use = BB.Use.Words;
      for (unsigned K = 0; K < W; ++K) {
        std::uint64_t Old = In[K];
        std::uint64_t New = Old | Use[K] | (Out[K] & ~Def[K]);
        In[K] = New;
        Changed |= New != Old;
      }
    }
  }
  return Iterations;
}

#ifdef TICKC_CHECK_LIVENESS
// The pre-bitset reference solver, preserved as a differential oracle: the
// original per-block BitVector sets and the original unionWith /
// unionWithMinus relaxation. Structure (block ranges, successors) is taken
// from the already-built FlowGraph; def/use and the dataflow fixpoint are
// recomputed independently of the packed-word path.
void tcc::icode::solveLivenessReference(const ICode &IC, const FlowGraph &FG,
                                        std::vector<BitVector> &LiveIn,
                                        std::vector<BitVector> &LiveOut) {
  const auto &Instrs = IC.instrs();
  const unsigned NumRegs = IC.numRegs();
  const auto &Blocks = FG.blocks();
  const std::size_t NB = Blocks.size();

  std::vector<BitVector> Def(NB), Use(NB);
  LiveIn.assign(NB, BitVector(NumRegs));
  LiveOut.assign(NB, BitVector(NumRegs));
  for (std::size_t B = 0; B < NB; ++B) {
    Def[B] = BitVector(NumRegs);
    Use[B] = BitVector(NumRegs);
    for (std::int32_t I = Blocks[B].Begin; I < Blocks[B].End; ++I) {
      VReg Defs[2], Uses[3];
      unsigned ND, NU;
      ICode::defsUses(Instrs[static_cast<std::size_t>(I)], Defs, ND, Uses,
                      NU);
      for (unsigned U = 0; U < NU; ++U)
        if (!Def[B].test(static_cast<unsigned>(Uses[U])))
          Use[B].set(static_cast<unsigned>(Uses[U]));
      for (unsigned D = 0; D < ND; ++D)
        Def[B].set(static_cast<unsigned>(Defs[D]));
    }
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t BI = NB; BI-- > 0;) {
      for (std::int32_t S : Blocks[BI].Succ)
        if (S >= 0)
          Changed |= LiveOut[BI].unionWith(LiveIn[static_cast<std::size_t>(S)]);
      Changed |= LiveIn[BI].unionWith(Use[BI]);
      Changed |= LiveIn[BI].unionWithMinus(LiveOut[BI], Def[BI]);
    }
  }
}
#endif // TICKC_CHECK_LIVENESS
