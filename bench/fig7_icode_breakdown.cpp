//===- bench/fig7_icode_breakdown.cpp - Paper Figure 7 -----------------------==//
//
// "The ICODE back end generates code at a speed between approximately 1000
// and 2500 cycles per generated instruction. ... Approximately 70-80% of
// the ICODE code generation cost is due to register allocation and related
// operations, such as computing live variables and building live ranges.
// The linear scan register allocation algorithm outperforms the graph
// coloring allocator in all cases but one [binary], sometimes by up to a
// factor of two (dp)."
//
// For each benchmark: left column = linear scan, right = graph coloring.
// The linear-scan row is a stacked breakdown: closure (specification
// time) plus every compile phase, each averaged over the same
// instantiations, so its columns sum to "LS tot".
//
//===----------------------------------------------------------------------===//

#include "bench/FigureData.h"
#include "observability/Report.h"

#include <cstdio>
#include <initializer_list>

using namespace tcc;
using namespace tcc::bench;
using namespace tcc::core;

int main() {
  std::printf("Figure 7: ICODE compilation breakdown, cycles per generated "
              "instruction\n");
  std::printf("(columns per allocator: LS = linear scan, GC = graph "
              "coloring)\n");
  printRule();
  std::printf("%-8s %7s | %7s %7s %7s %9s %8s %7s %8s | %8s %8s\n",
              "bench", "instrs", "closure", "setup", "IRbuild", "flow/live",
              "regalloc", "emit", "finalize", "LS tot", "GC tot");
  printRule();
  AppSet Set;
  for (const AppCase &App : Set.cases()) {
    CompileOptions IO;
    IO.Backend = BackendKind::ICode;
    CompileCost LS = measureCompile(App.Specialize, IO);
    CompileOptions GO = IO;
    GO.RegAlloc = icode::RegAllocKind::GraphColor;
    CompileCost GC = measureCompile(App.Specialize, GO);

    double CPN = cyclesPerNano();
    auto PerInstr = [&](double Ns, unsigned Instrs) {
      return Ns * CPN / Instrs;
    };
    using obs::CompilePhase;
    auto Phase = [&](std::initializer_list<CompilePhase> Ps) {
      double Sum = 0;
      for (CompilePhase P : Ps)
        Sum += LS.phaseCycles(P);
      return Sum / LS.MachineInstrs;
    };
    double Closure = PerInstr(LS.SpecNs, LS.MachineInstrs);
    double Setup = Phase({CompilePhase::Setup});
    double IRBuild = Phase({CompilePhase::CgfWalk});
    double FlowLive = Phase({CompilePhase::FlowGraph, CompilePhase::Liveness,
                             CompilePhase::LiveIntervals});
    double RegAlloc = Phase({CompilePhase::RegAlloc});
    double Emit = Phase({CompilePhase::Emit, CompilePhase::Peephole});
    double Finalize = Phase({CompilePhase::Finalize});
    double LsTotal = PerInstr(LS.TotalNs, LS.MachineInstrs);
    double GcTotal = PerInstr(GC.TotalNs, GC.MachineInstrs);
    std::printf("%-8s %7u | %7.0f %7.0f %7.0f %9.0f %8.0f %7.0f %8.0f | "
                "%8.0f %8.0f\n",
                App.Name.c_str(), LS.MachineInstrs, Closure, Setup, IRBuild,
                FlowLive, RegAlloc, Emit, Finalize, LsTotal, GcTotal);
  }
  printRule();
  std::printf("regalloc-only comparison (cycles/instr):\n");
  std::printf("%-8s %14s %14s %10s\n", "bench", "linear scan",
              "graph color", "GC/LS");
  AppSet Set2;
  for (const AppCase &App : Set2.cases()) {
    CompileOptions IO;
    IO.Backend = BackendKind::ICode;
    CompileCost LS = measureCompile(App.Specialize, IO);
    CompileOptions GO = IO;
    GO.RegAlloc = icode::RegAllocKind::GraphColor;
    CompileCost GC = measureCompile(App.Specialize, GO);
    double LsRa =
        LS.phaseCycles(obs::CompilePhase::RegAlloc) / LS.MachineInstrs;
    double GcRa =
        GC.phaseCycles(obs::CompilePhase::RegAlloc) / GC.MachineInstrs;
    std::printf("%-8s %14.0f %14.0f %10.2f\n", App.Name.c_str(), LsRa, GcRa,
                GcRa / (LsRa > 0 ? LsRa : 1));
  }
  printRule();
  std::printf("%s", obs::renderReport().c_str());
  return 0;
}
