//===- icode/Peephole.cpp - IR-level cleanup before allocation ------------==//
//
// Dead code elimination over unreachable code and pure instructions.
// Dynamic loop unrolling and run-time-constant folding in the CGFs (paper
// §4.4) routinely leave computations whose results are never consumed;
// erasing them before register allocation keeps intervals short and spill
// counts low.
//
//===----------------------------------------------------------------------===//

#include "icode/Analysis.h"

using namespace tcc;
using namespace tcc::icode;

/// True if erasing the instruction is safe when its result is unused.
/// Loads are treated as impure (they may touch unmapped memory only if the
/// program would have, but we keep the paper-faithful conservative line:
/// arithmetic and constants only).
static bool isPure(Op O) {
  switch (O) {
  case Op::SetI:
  case Op::SetL:
  case Op::SetP:
  case Op::SetD:
  case Op::MovI:
  case Op::MovD:
  case Op::AddI:
  case Op::SubI:
  case Op::MulI:
  case Op::AndI:
  case Op::OrI:
  case Op::XorI:
  case Op::ShlI:
  case Op::ShrI:
  case Op::UShrI:
  case Op::AddII:
  case Op::SubII:
  case Op::MulII:
  case Op::AndII:
  case Op::OrII:
  case Op::XorII:
  case Op::ShlII:
  case Op::ShrII:
  case Op::UShrII:
  case Op::NegI:
  case Op::NotI:
  case Op::AddL:
  case Op::SubL:
  case Op::MulL:
  case Op::AddLI:
  case Op::MulLI:
  case Op::ShlLI:
  case Op::SextIToL:
  case Op::AddD:
  case Op::SubD:
  case Op::MulD:
  case Op::NegD:
  case Op::CvtIToD:
  case Op::CvtLToD:
  case Op::CvtDToI:
  case Op::CmpSetI:
  case Op::CmpSetII:
  case Op::CmpSetL:
  case Op::CmpSetD:
    return true;
  // Division can trap on zero; keep it.
  default:
    return false;
  }
}

unsigned tcc::icode::eliminateDeadCode(Instr *Instrs, std::size_t NumInstrs,
                                       unsigned NumRegs, Arena &Scratch) {
  auto *UseCount = Scratch.allocateZeroed<std::uint32_t>(NumRegs);
  unsigned Erased = 0;
  // Code between a jump or return and the next label is unreachable, e.g.
  // the fall-off-the-end return of a body that ends in `return`. It goes
  // first, so its uses do not keep anything alive.
  bool Unreachable = false;
  for (std::size_t I = 0; I < NumInstrs; ++I) {
    Op O = Instrs[I].Opcode;
    if (O == Op::Label || O == Op::Hint) {
      Unreachable = false;
    } else if (Unreachable) {
      Erased += O != Op::Nop;
      Instrs[I].Opcode = Op::Nop;
      continue;
    } else {
      Unreachable = O == Op::Jump || O == Op::RetI || O == Op::RetL ||
                    O == Op::RetD || O == Op::RetVoid;
    }
    VReg Defs[2], Uses[3];
    unsigned ND, NU;
    ICode::defsUses(Instrs[I], Defs, ND, Uses, NU);
    for (unsigned U = 0; U < NU; ++U)
      ++UseCount[static_cast<unsigned>(Uses[U])];
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Backwards, so a chain of dead computations dies in one sweep.
    for (std::size_t I = NumInstrs; I-- > 0;) {
      Instr &In = Instrs[I];
      if (!isPure(In.Opcode))
        continue;
      VReg Defs[2], Uses[3];
      unsigned ND, NU;
      ICode::defsUses(In, Defs, ND, Uses, NU);
      if (ND != 1 || UseCount[static_cast<unsigned>(Defs[0])] != 0)
        continue;
      for (unsigned U = 0; U < NU; ++U)
        --UseCount[static_cast<unsigned>(Uses[U])];
      In.Opcode = Op::Nop;
      ++Erased;
      Changed = true;
    }
  }
  return Erased;
}
