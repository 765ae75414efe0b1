//===- bench/ablation_vcode.cpp - §5.1 design-choice ablations ----------------==//
//
// Two VCODE design points the paper calls out:
//  * Checked getreg vs unchecked: "Clients that find these per-instruction
//    if-statements too expensive can disable them ... the improvement in
//    code generation speed (roughly a factor of two) can make it
//    worthwhile." Our spill checks live in the operations; disabling
//    spilling lets clients with known pressure skip the spill designators
//    entirely, which this ablation quantifies.
//  * Reserved static registers: temporaries that do not span cspec
//    composition can use statically managed registers instead of
//    getreg/putreg.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "support/CodeBuffer.h"
#include "vcode/VCode.h"

#include <cstdio>

using namespace tcc;
using namespace tcc::bench;
using namespace tcc::vcode;

namespace {

/// Emits a long stream of three-address ops using at most three live
/// registers, through getreg/putreg (Managed=true) or through the reserved
/// static registers (Managed=false).
double emitStream(bool Managed, bool Spilling, unsigned Ops,
                  unsigned &InstrsOut) {
  CodeRegion Region(1 << 20);
  double Ns = nsPerOp([&] {
    Region.makeWritable();
    VCode V(Region.base(), Region.capacity());
    V.setSpillingEnabled(Spilling);
    V.enter();
    Reg A, B, T;
    if (Managed) {
      A = V.getreg();
      B = V.getreg();
    } else {
      A = VCode::staticReg(0);
      B = VCode::staticReg(1);
    }
    V.setI(A, 3);
    V.setI(B, 5);
    for (unsigned I = 0; I < Ops; ++I) {
      if (Managed) {
        T = V.getreg();
        V.addI(T, A, B);
        V.xorI(B, T, A);
        V.putreg(T);
      } else {
        V.addI(A, A, B);
        V.xorI(B, A, B);
      }
    }
    V.retI(B);
    V.finish();
    InstrsOut = V.instructionsEmitted();
  });
  return Ns;
}

} // namespace

int main() {
  constexpr unsigned Ops = 500;
  unsigned Instrs = 0;
  double Managed = emitStream(true, true, Ops, Instrs);
  unsigned InstrsManaged = Instrs;
  double Unchecked = emitStream(true, false, Ops, Instrs);
  double Static = emitStream(false, false, Ops, Instrs);
  unsigned InstrsStatic = Instrs;

  double CPN = cyclesPerNano();
  std::printf("VCODE ablations (%u-op stream)\n", Ops);
  printRule();
  std::printf("%-40s %10s %12s\n", "configuration", "instrs",
              "cycles/instr");
  printRule();
  std::printf("%-40s %10u %12.1f\n", "getreg/putreg, spill checks on",
              InstrsManaged, Managed * CPN / InstrsManaged);
  std::printf("%-40s %10u %12.1f\n", "getreg/putreg, spill checks off",
              InstrsManaged, Unchecked * CPN / InstrsManaged);
  std::printf("%-40s %10u %12.1f\n", "reserved static registers",
              InstrsStatic, Static * CPN / InstrsStatic);
  printRule();
  std::printf("static-reg speedup over managed: %.2fx (paper: reserved "
              "registers and\nunchecked getreg buy roughly 2x codegen "
              "speed)\n",
              Managed / Static);
  return 0;
}
