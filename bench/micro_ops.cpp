//===- bench/micro_ops.cpp - google-benchmark micro measurements --------------==//
//
// Op-level microbenchmarks of the dynamic-compilation pipeline, via
// google-benchmark: raw emission throughput, per-phase ICODE costs, closure
// (specification) throughput, and arena allocation.
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"
#include "icode/ICode.h"
#include "support/Arena.h"
#include "support/CodeBuffer.h"
#include "vcode/VCode.h"

#include <benchmark/benchmark.h>

using namespace tcc;

static void BM_ArenaAllocate(benchmark::State &State) {
  Arena A(1 << 20);
  for (auto _ : State) {
    benchmark::DoNotOptimize(A.allocate(48));
    if (A.bytesAllocated() > (1 << 19))
      A.reset();
  }
}
BENCHMARK(BM_ArenaAllocate);

static void BM_VCodeEmitAdd(benchmark::State &State) {
  CodeRegion Region(1 << 20);
  for (auto _ : State) {
    vcode::VCode V(Region.base(), Region.capacity());
    V.enter();
    vcode::Reg A = V.getreg(), B = V.getreg();
    V.setI(A, 1);
    V.setI(B, 2);
    for (int I = 0; I < 100; ++I)
      V.addI(A, A, B);
    V.retI(A);
    benchmark::DoNotOptimize(V.finish());
  }
  State.SetItemsProcessed(State.iterations() * 100);
}
BENCHMARK(BM_VCodeEmitAdd);

static void BM_ICodeFullPipeline(benchmark::State &State) {
  CodeRegion Region(1 << 20);
  for (auto _ : State) {
    icode::ICode IC;
    icode::VReg A = IC.newIntReg(), B = IC.newIntReg();
    IC.bindArgI(0, A);
    IC.setI(B, 2);
    for (int I = 0; I < 100; ++I)
      IC.addI(A, A, B);
    IC.retI(A);
    vcode::VCode V(Region.base(), Region.capacity());
    benchmark::DoNotOptimize(
        IC.compileTo(V, icode::RegAllocKind::LinearScan));
  }
  State.SetItemsProcessed(State.iterations() * 100);
}
BENCHMARK(BM_ICodeFullPipeline);

static void BM_SpecificationTime(benchmark::State &State) {
  // Closure construction only — the Context-building half of Table 1.
  for (auto _ : State) {
    core::Context C;
    core::VSpec X = C.paramInt(0);
    core::Expr E = X;
    for (int I = 0; I < 100; ++I)
      E = E + C.intConst(I);
    benchmark::DoNotOptimize(E.node());
  }
  State.SetItemsProcessed(State.iterations() * 100);
}
BENCHMARK(BM_SpecificationTime);

static void BM_CompileVCode(benchmark::State &State) {
  for (auto _ : State) {
    core::Context C;
    core::VSpec X = C.paramInt(0);
    core::Expr E = X;
    for (int I = 1; I < 50; ++I)
      E = E * C.intConst(I % 7 + 1) + C.intConst(I);
    core::CompileOptions O;
    O.Backend = core::BackendKind::VCode;
    core::CompiledFn F = core::compileFn(C, C.ret(E), core::EvalType::Int, O);
    benchmark::DoNotOptimize(F.entry());
  }
}
BENCHMARK(BM_CompileVCode);

static void BM_CompileICode(benchmark::State &State) {
  for (auto _ : State) {
    core::Context C;
    core::VSpec X = C.paramInt(0);
    core::Expr E = X;
    for (int I = 1; I < 50; ++I)
      E = E * C.intConst(I % 7 + 1) + C.intConst(I);
    core::CompileOptions O;
    O.Backend = core::BackendKind::ICode;
    core::CompiledFn F = core::compileFn(C, C.ret(E), core::EvalType::Int, O);
    benchmark::DoNotOptimize(F.entry());
  }
}
BENCHMARK(BM_CompileICode);

static void BM_CompiledCodeCall(benchmark::State &State) {
  core::Context C;
  core::VSpec X = C.paramInt(0);
  core::CompiledFn F = core::compileICode(
      C, C.ret(core::Expr(X) * C.intConst(3) + C.intConst(1)),
      core::EvalType::Int);
  auto *Fn = F.as<int(int)>();
  int V = 1;
  for (auto _ : State) {
    V = Fn(V);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_CompiledCodeCall);

BENCHMARK_MAIN();
