//===- bench/ablation_regalloc.cpp - §5.2 allocator ablations -----------------==//
//
// Three studies of the ICODE allocators:
//  1. Scaling: linear scan is O(I*R) in the number of live intervals; the
//     interference graph behind Chaitin coloring can grow quadratically.
//  2. Spill heuristic: the paper's spill-longest-interval rule vs the
//     hint-weighted lowest-use rule (usage-frequency primitives, §5.2).
//  3. Code quality: spills produced by each allocator under pressure.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "icode/Analysis.h"
#include "icode/ICode.h"
#include "support/CodeBuffer.h"

#include <cstdio>
#include <random>

using namespace tcc;
using namespace tcc::bench;
using namespace tcc::icode;

namespace {

volatile long long Sinkish = 0;

/// Builds a function with \p NumVars long-lived variables updated in a
/// round-robin chain — adjustable register pressure.
ICode makePressure(unsigned NumVars, unsigned Steps) {
  ICode IC;
  std::vector<VReg> Vars;
  for (unsigned I = 0; I < NumVars; ++I) {
    VReg R = IC.newIntReg();
    IC.setI(R, static_cast<std::int32_t>(I + 1));
    Vars.push_back(R);
  }
  std::mt19937 Rng(5);
  for (unsigned S = 0; S < Steps; ++S) {
    VReg A = Vars[Rng() % NumVars];
    VReg B = Vars[Rng() % NumVars];
    IC.addI(A, A, B);
  }
  VReg Sum = IC.newIntReg();
  IC.setI(Sum, 0);
  for (VReg V : Vars)
    IC.addI(Sum, Sum, V);
  IC.retI(Sum);
  return IC;
}

double allocNs(ICode &IC, RegAllocKind Kind, unsigned &Spills) {
  icode::CompileStats Stats;
  double Ns = nsPerOp([&] {
    CodeRegion Region(1 << 20);
    vcode::VCode V(Region.base(), Region.capacity());
    ICode Copy = IC.clone(); // compileTo mutates (DCE) — keep the original
    Stats = icode::CompileStats();
    Copy.compileTo(V, Kind, &Stats);
  }, 5);
  (void)Ns;
  Spills = Stats.NumSpilledIntervals;
  return static_cast<double>(Stats.CyclesRegAlloc) / cyclesPerNano();
}

} // namespace

int main() {
  std::printf("Register allocation ablations\n");
  std::printf("paper: 'When the code contains many variables ... scanning "
              "live ranges is\nsuperior to graph coloring. By contrast, "
              "when there is a lot of code but very\nfew variables ... it "
              "is cheaper to color the (small) interference graph.'\n");
  printRule();
  std::printf("1) allocation time scaling (us)\n");
  std::printf("%8s %8s %14s %14s %8s\n", "vars", "steps", "linear-scan",
              "graph-color", "ratio");
  for (unsigned Vars : {8u, 32u, 128u, 512u}) {
    ICode IC = makePressure(Vars, Vars * 4);
    unsigned S1, S2;
    double Ls = allocNs(IC, RegAllocKind::LinearScan, S1) / 1e3;
    double Gc = allocNs(IC, RegAllocKind::GraphColor, S2) / 1e3;
    std::printf("%8u %8u %14.1f %14.1f %8.2f\n", Vars, Vars * 4, Ls, Gc,
                Gc / (Ls > 0 ? Ls : 1));
  }

  printRule();
  std::printf("2) few variables, much code (the paper's `binary` shape)\n");
  {
    // Long straight-line code over 3 variables.
    ICode IC = makePressure(3, 4000);
    unsigned S1, S2;
    double Ls = allocNs(IC, RegAllocKind::LinearScan, S1) / 1e3;
    double Gc = allocNs(IC, RegAllocKind::GraphColor, S2) / 1e3;
    std::printf("  linear scan %.1f us vs graph coloring %.1f us "
                "(GC/LS = %.2f)\n",
                Ls, Gc, Gc / (Ls > 0 ? Ls : 1));
  }

  printRule();
  std::printf("3) spill counts under pressure (5 integer registers)\n");
  std::printf("%8s %14s %14s\n", "vars", "linear-scan", "graph-color");
  for (unsigned Vars : {4u, 8u, 16u, 64u}) {
    ICode IC = makePressure(Vars, Vars * 4);
    unsigned SLs = 0, SGc = 0;
    (void)allocNs(IC, RegAllocKind::LinearScan, SLs);
    (void)allocNs(IC, RegAllocKind::GraphColor, SGc);
    std::printf("%8u %14u %14u\n", Vars, SLs, SGc);
  }

  printRule();
  std::printf("4) spill heuristic (longest-interval vs hint-weighted)\n");
  {
    // A loop-heavy function where hints matter: hot accumulator + many
    // cold one-shot values.
    ICode IC;
    VReg N = IC.newIntReg();
    IC.bindArgI(0, N);
    std::vector<VReg> Cold;
    for (int I = 0; I < 12; ++I) {
      VReg R = IC.newIntReg();
      IC.setI(R, I);
      Cold.push_back(R);
    }
    VReg Acc = IC.newIntReg(), I = IC.newIntReg();
    IC.setI(Acc, 0);
    IC.setI(I, 0);
    ILabel Head = IC.newLabel(), Done = IC.newLabel();
    IC.bindLabel(Head);
    IC.brCmpI(vcode::CmpKind::GeS, I, N, Done);
    IC.hint(+1);
    IC.addI(Acc, Acc, I);
    IC.addII(I, I, 1);
    IC.hint(-1);
    IC.jump(Head);
    IC.bindLabel(Done);
    for (VReg R : Cold)
      IC.addI(Acc, Acc, R);
    IC.retI(Acc);

    for (SpillHeuristic H : {SpillHeuristic::LongestInterval,
                             SpillHeuristic::LowestWeight}) {
      CodeRegion Region(1 << 20);
      vcode::VCode V(Region.base(), Region.capacity());
      ICode Copy = IC.clone();
      icode::CompileStats Stats;
      void *Entry = Copy.compileTo(V, RegAllocKind::LinearScan, &Stats, H);
      Region.makeExecutable();
      auto *Fn = reinterpret_cast<int (*)(int)>(Entry);
      double Ns = nsPerOp([&] { Sinkish = Sinkish + Fn(1000); });
      std::printf("  %-18s spills=%u  run=%.1f ns\n",
                  H == SpillHeuristic::LongestInterval ? "longest-interval"
                                                       : "hint-weighted",
                  Stats.NumSpilledIntervals, Ns);
    }
  }
  return 0;
}
