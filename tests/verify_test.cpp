//===- tests/verify_test.cpp - Self-checking JIT verification tests -------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
// Two halves:
//
//  * Accept-clean: every benchmark workload compiles with Verify on, under
//    both register allocators and the VCODE backend, with zero findings.
//  * Mutation harness: systematically corrupt IR instructions, allocation
//    tables, and emitted machine bytes; every corruption must be rejected
//    by the right layer with the right diagnostic category. This is the
//    proof that the checkers have teeth — a verifier that accepts garbage
//    is worse than none.
//
//===----------------------------------------------------------------------===//

#include "bench/AppAdapters.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "icode/Analysis.h"
#include "icode/ICode.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Reloc.h"
#include "verify/Verify.h"
#include "vcode/VCode.h"
#include "x86/X86Decoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using icode::Allocation;
using icode::ICode;
using icode::Instr;
using icode::Op;
using icode::VReg;
using vcode::CmpKind;

namespace {

int dummyCallee(int X) { return X + 1; }
double dummyCalleeD(double X) { return X * 2; }

// --- IR mutation harness ----------------------------------------------------

/// A small ICODE program plus a pristine copy of its instruction stream the
/// mutations work on (the ICode itself stays untouched so labels/pool/reg
/// tables remain the source of truth).
struct IRProgram {
  ICode IC;
  std::vector<Instr> Clean;

  void snapshot() {
    Clean.assign(IC.instrs().data(), IC.instrs().data() + IC.instrs().size());
  }
};

/// P1: straight-line integer arithmetic. Shape (instruction indices):
///   0 BindArgI  1 SetI  2 AddI  3 MulII  4 CmpSetI  5 ShlII  6 SubI  7 RetI
struct P1 : IRProgram {
  VReg A0, B, C, D, E, F, G, FD;
  P1() {
    A0 = IC.newIntReg();
    B = IC.newIntReg();
    C = IC.newIntReg();
    D = IC.newIntReg();
    E = IC.newIntReg();
    F = IC.newIntReg();
    G = IC.newIntReg();
    FD = IC.newFloatReg(); // Never used: exists to make class swaps possible.
    IC.bindArgI(0, A0);
    IC.setI(B, 7);
    IC.addI(C, A0, B);
    IC.mulII(D, C, 3);
    IC.cmpSetI(CmpKind::LtS, E, D, B);
    IC.shlII(F, E, 2);
    IC.subI(G, F, A0);
    IC.retI(G);
    snapshot();
  }
};

/// P2: a counted loop with labels and branches.
///   0 BindArgI  1 SetI  2 Label  3 BrCmpII  4 AddI  5 SubII  6 Jump
///   7 Label  8 RetI
struct P2 : IRProgram {
  VReg X, Acc;
  P2() {
    X = IC.newIntReg();
    Acc = IC.newIntReg();
    icode::ILabel Head = IC.newLabel(), End = IC.newLabel();
    IC.bindArgI(0, X);
    IC.setI(Acc, 0);
    IC.bindLabel(Head);
    IC.brCmpII(CmpKind::LeS, X, 0, End);
    IC.addI(Acc, Acc, X);
    IC.subII(X, X, 1);
    IC.jump(Head);
    IC.bindLabel(End);
    IC.retI(Acc);
    snapshot();
  }
};

/// P3: doubles and a call.
///   0 BindArgD  1 SetD  2 AddD  3 CallArgD  4 Call  5 ResultD
///   6 CvtDToI  7 RetI
struct P3 : IRProgram {
  VReg D0, D1, D2, D3, I0;
  P3() {
    D0 = IC.newFloatReg();
    D1 = IC.newFloatReg();
    D2 = IC.newFloatReg();
    D3 = IC.newFloatReg();
    I0 = IC.newIntReg();
    IC.bindArgD(0, D0);
    IC.setD(D1, 2.5);
    IC.addD(D2, D0, D1);
    IC.prepareCallArgD(0, D2);
    IC.emitCall(reinterpret_cast<const void *>(&dummyCalleeD), 1);
    IC.resultToD(D3);
    IC.cvtDToI(I0, D3);
    IC.retI(I0);
    snapshot();
  }
};

struct MutationTally {
  unsigned Cases = 0;
  unsigned Rejected = 0;
};

/// Applies one mutation to a fresh copy and checks the verifier rejects it
/// with the expected category.
void runIRCase(MutationTally &T, IRProgram &P, const char *Category,
               const std::function<void(std::vector<Instr> &)> &Mutate,
               const std::string &What) {
  std::vector<Instr> Buf = P.Clean;
  Mutate(Buf);
  verify::Result R = verify::verifyInstrs(P.IC, Buf.data(), Buf.size());
  ++T.Cases;
  EXPECT_FALSE(R.ok()) << What << ": corruption was accepted";
  EXPECT_TRUE(R.has(Category))
      << What << ": expected category '" << Category << "', got:\n"
      << R.render();
  if (!R.ok() && R.has(Category))
    ++T.Rejected;
}

// --- Allocation mutation harness --------------------------------------------

struct AllocFixture {
  ICode IC;
  std::vector<VReg> Overlapping; ///< Simultaneously live int vregs.
  VReg CrossCall = -1;           ///< Float vreg live across the call.

  AllocFixture() {
    // Eight int vregs all live at once (defined up front, consumed at the
    // bottom): with a five-register pool some of them must spill, and the
    // ones that do get registers pairwise overlap — the raw material for
    // conflict mutations.
    VReg R[8];
    for (int I = 0; I < 8; ++I) {
      R[I] = IC.newIntReg();
      IC.setI(R[I], I + 1);
      Overlapping.push_back(R[I]);
    }
    // A float computed before a call and used after it: every XMM register
    // is caller-saved, so the allocator must spill it.
    CrossCall = IC.newFloatReg();
    VReg FOut = IC.newFloatReg();
    IC.setD(CrossCall, 1.5);
    IC.emitCall(reinterpret_cast<const void *>(&dummyCallee), 0);
    VReg CallRes = IC.newIntReg();
    IC.resultToI(CallRes);
    IC.addD(FOut, CrossCall, CrossCall);
    VReg FInt = IC.newIntReg();
    IC.cvtDToI(FInt, FOut);
    VReg Acc = IC.newIntReg();
    IC.setI(Acc, 0);
    for (int I = 0; I < 8; ++I)
      IC.addI(Acc, Acc, R[I]);
    IC.addI(Acc, Acc, CallRes);
    IC.addI(Acc, Acc, FInt);
    IC.retI(Acc);
  }

  Allocation allocate(icode::RegAllocKind Kind, std::vector<int> &Backing) {
    icode::FlowGraph FG;
    FG.build(IC);
    FG.solveLiveness(IC);
    auto Intervals = icode::buildLiveIntervals(IC, FG);
    const std::uint8_t *MustSpill =
        icode::computeMustSpill(IC, Intervals.data(), Intervals.size());
    Allocation A =
        Kind == icode::RegAllocKind::LinearScan
            ? icode::allocateLinearScan(IC, Intervals, vcode::VCode::NumIntPool,
                                        vcode::VCode::NumFloatPool,
                                        icode::SpillHeuristic::LongestInterval,
                                        MustSpill)
            : icode::allocateGraphColor(IC, FG, vcode::VCode::NumIntPool,
                                        vcode::VCode::NumFloatPool,
                                        icode::SpillHeuristic::LongestInterval,
                                        MustSpill);
    // Re-home the table so mutations cannot scribble on the arena copy.
    Backing.assign(A.Location, A.Location + A.NumRegs);
    A.Location = Backing.data();
    return A;
  }
};

void runAllocCase(
    MutationTally &T, const ICode &IC, const Allocation &Clean,
    const char *Category,
    const std::function<void(Allocation &, std::vector<int> &)> &Mutate,
    const std::string &What) {
  std::vector<int> Locs(Clean.Location, Clean.Location + Clean.NumRegs);
  Allocation A = Clean;
  A.Location = Locs.data();
  Mutate(A, Locs);
  verify::Result R = verify::auditAllocation(IC, A);
  ++T.Cases;
  EXPECT_FALSE(R.ok()) << What << ": corruption was accepted";
  EXPECT_TRUE(R.has(Category))
      << What << ": expected category '" << Category << "', got:\n"
      << R.render();
  if (!R.ok() && R.has(Category))
    ++T.Rejected;
}

// --- Machine-code mutation harness ------------------------------------------

/// One unit for the machine-code mutation harness: finalized bytes plus the
/// reloc side table, profile expectation and fresh-compile facts — exactly
/// what a snapshot record or a verified compile presents to
/// verify::verifyAdmission.
struct AdmitProgram {
  std::vector<std::uint8_t> Bytes;
  std::vector<x86::Decoded> Ins;
  std::vector<std::size_t> Starts;
  std::vector<support::RelocEntry> Relocs;
  bool HaveRelocs = false;
  const void *Counter = nullptr;
  bool Profiled = false;
  bool ICodeFacts = false;

  void decode() {
    Ins.clear();
    Starts.clear();
    std::size_t Off = 0;
    while (Off < Bytes.size()) {
      x86::Decoded D;
      if (x86::decodeOne(Bytes.data(), Bytes.size(), Off, D) !=
          x86::DecodeStatus::Ok)
        break; // Hostile streams may stop decoding; the verifier says why.
      Starts.push_back(Off);
      Ins.push_back(D);
      Off += D.Len;
    }
  }

  static AdmitProgram of(const CompiledFn &F, const support::RelocTable *RT) {
    AdmitProgram P;
    P.Bytes.resize(F.stats().CodeBytes);
    std::memcpy(P.Bytes.data(), F.entry(), P.Bytes.size());
    P.Profiled = F.profile() != nullptr;
    P.Counter = F.profile() ? &F.profile()->Invocations : nullptr;
    if (RT && !RT->Unportable) {
      P.HaveRelocs = true;
      P.Relocs = RT->Entries;
    }
    P.decode();
    return P;
  }

  static AdmitProgram hand(std::vector<std::uint8_t> B) {
    AdmitProgram P;
    P.Bytes = std::move(B);
    P.decode();
    return P;
  }

  verify::AdmissionInputs inputs() const {
    verify::AdmissionInputs AI;
    AI.Code = Bytes.data();
    AI.Size = Bytes.size();
    AI.ProfileCounter = Counter;
    AI.ExpectProfile = Profiled;
    AI.Relocs = Relocs.empty() ? nullptr : Relocs.data();
    AI.NumRelocs = Relocs.size();
    AI.HaveRelocs = HaveRelocs;
    AI.ICodeFacts = ICodeFacts;
    return AI;
  }
};

/// Canonical frame around \p Body: push rbp / mov rbp, rsp / sub rsp, 48 /
/// <body> / mov rsp, rbp / pop rbp / ret. Body instructions start at +11.
std::vector<std::uint8_t> handFrame(const std::vector<std::uint8_t> &Body) {
  std::vector<std::uint8_t> B = {0x55, 0x48, 0x8B, 0xEC, 0x48, 0x81,
                                 0xEC, 0x30, 0x00, 0x00, 0x00};
  B.insert(B.end(), Body.begin(), Body.end());
  const std::uint8_t Epi[] = {0x48, 0x8B, 0xE5, 0x5D, 0xC3};
  B.insert(B.end(), std::begin(Epi), std::end(Epi));
  return B;
}

void appendU64(std::vector<std::uint8_t> &B, std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
}

/// movabs r10, &dummyCallee / call r10 — the backends' only call shape.
/// The movabs imm64 payload sits at body offset +2 (frame offset +13).
std::vector<std::uint8_t> callBody() {
  std::vector<std::uint8_t> B = {0x49, 0xBA};
  appendU64(B, reinterpret_cast<std::uint64_t>(
                   reinterpret_cast<const void *>(&dummyCallee)));
  B.insert(B.end(), {0x41, 0xFF, 0xD2});
  return B;
}

void runAdmitCase(MutationTally &T, AdmitProgram P, const char *Category,
                  const std::function<void(AdmitProgram &)> &Mutate,
                  const std::string &What) {
  Mutate(P);
  verify::Result R = verify::verifyAdmission(P.inputs());
  ++T.Cases;
  EXPECT_FALSE(R.ok()) << What << ": corruption was admitted";
  EXPECT_TRUE(R.has(Category))
      << What << ": expected category '" << Category << "', got:\n"
      << R.render();
  if (!R.ok() && R.has(Category))
    ++T.Rejected;
}

void admitNoop(AdmitProgram &) {}

/// f(x) = dummyCallee(x) + x — a body with a C call under every backend.
CompiledFn compileCallFn(const CompileOptions &Opts) {
  Context C;
  VSpec X = C.paramInt(0);
  Expr Call = C.callC(reinterpret_cast<const void *>(&dummyCallee),
                      EvalType::Int, {Expr(X)});
  Stmt Body = C.ret(Call + Expr(X));
  return compileFn(C, Body, EvalType::Int, Opts);
}

/// sum of n*n for n in [1, N] — a loop with a branch, a multiply, and an
/// accumulator; compiles to branches + arithmetic under every backend.
CompiledFn compileLoopFn(const CompileOptions &Opts) {
  Context C;
  VSpec N = C.paramInt(0);
  VSpec Acc = C.localInt();
  Stmt Body = C.block(
      {C.assign(Acc, C.intConst(0)),
       C.whileStmt(Expr(N) > C.intConst(0),
                   C.block({C.assign(Acc, Expr(Acc) + Expr(N) * Expr(N)),
                            C.assign(N, Expr(N) - C.intConst(1))})),
       C.ret(Acc)});
  return compileFn(C, Body, EvalType::Int, Opts);
}

CompiledFn compileDoubleFn(const CompileOptions &Opts) {
  Context C;
  VSpec X = C.paramDouble(0);
  Stmt Body = C.ret(Expr(X) * C.doubleConst(3.5) + C.doubleConst(1.25));
  return compileFn(C, Body, EvalType::Double, Opts);
}

} // namespace

// --- Accept-clean -----------------------------------------------------------

TEST(VerifyAcceptClean, AllWorkloadsBothAllocatorsAndVCode) {
  obs::MetricsSnapshot Before = obs::MetricsRegistry::global().snapshot();
  bench::AppSet Apps;
  struct Cfg {
    BackendKind BK;
    icode::RegAllocKind RA;
  } Cfgs[] = {{BackendKind::VCode, icode::RegAllocKind::LinearScan},
              {BackendKind::ICode, icode::RegAllocKind::LinearScan},
              {BackendKind::ICode, icode::RegAllocKind::GraphColor}};
  unsigned Compiled = 0;
  for (const Cfg &Cf : Cfgs) {
    for (const bench::AppCase &App : Apps.cases()) {
      CompileOptions Opts;
      Opts.Backend = Cf.BK;
      Opts.RegAlloc = Cf.RA;
      Opts.Verify = true; // Any finding aborts: reaching the end IS the test.
      CompiledFn F = App.Specialize(Opts);
      ASSERT_TRUE(F.valid()) << App.Name;
      App.RunDynamic(F.entry());
      ++Compiled;
    }
  }
  obs::MetricsSnapshot After = obs::MetricsRegistry::global().snapshot();
  namespace N = obs::names;
  EXPECT_EQ(After.counter(N::VerifySpecFailed),
            Before.counter(N::VerifySpecFailed));
  EXPECT_EQ(After.counter(N::VerifyIrFailed), Before.counter(N::VerifyIrFailed));
  EXPECT_EQ(After.counter(N::VerifyAllocFailed),
            Before.counter(N::VerifyAllocFailed));
  EXPECT_EQ(After.counter(N::VerifyAdmitFailed),
            Before.counter(N::VerifyAdmitFailed));
  EXPECT_GE(After.counter(N::VerifySpecChecked),
            Before.counter(N::VerifySpecChecked) + Compiled);
  EXPECT_GE(After.counter(N::VerifyAdmitChecked),
            Before.counter(N::VerifyAdmitChecked) + Compiled);
  // ICODE compiles verify the IR twice (post-walk + post-peephole) and audit
  // the allocation once.
  EXPECT_GT(After.counter(N::VerifyIrChecked),
            Before.counter(N::VerifyIrChecked));
  EXPECT_GT(After.counter(N::VerifyAllocChecked),
            Before.counter(N::VerifyAllocChecked));
  EXPECT_GT(After.counter(N::VerifyCycles), Before.counter(N::VerifyCycles));
}

TEST(VerifyAcceptClean, ProfiledCompilePassesAndRuns) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  Opts.Verify = true;
  Opts.Profile = true;
  Opts.Name = "verify-clean";
  CompiledFn F = compileLoopFn(Opts);
  ASSERT_TRUE(F.valid());
  EXPECT_EQ(F.as<int(int)>()(4), 16 + 9 + 4 + 1);
}

// --- Spec lint --------------------------------------------------------------

TEST(VerifySpecLint, RejectsBadSpecs) {
  // Unbound free variable.
  {
    Context C;
    Stmt Body = C.ret(C.fvInt(nullptr));
    verify::Result R = verify::lintSpec(C, Body.node());
    EXPECT_TRUE(R.has("unbound-free-var")) << R.render();
  }
  // Cross-context splice: an expression owned by a different Context.
  {
    Context C1, C2;
    Expr Foreign = C2.intConst(7);
    Stmt Body = C1.ret(Foreign);
    verify::Result R = verify::lintSpec(C1, Body.node());
    EXPECT_TRUE(R.has("cross-context")) << R.render();
  }
  // $ over a call can never be a run-time constant.
  {
    Context C;
    Expr Call = C.callC(reinterpret_cast<const void *>(&dummyCallee),
                        EvalType::Int, {C.intConst(1)});
    Stmt Body = C.ret(C.rtEval(Call));
    verify::Result R = verify::lintSpec(C, Body.node());
    EXPECT_TRUE(R.has("nonconstant-rteval")) << R.render();
  }
  // Out-of-range vspec id (simulates a stale handle).
  {
    Context C;
    VSpec V = C.localInt();
    Stmt Body = C.block({C.assign(V, C.intConst(1)), C.ret(C.read(V))});
    Body.node()->BodyV[0]->LocalId = 99;
    verify::Result R = verify::lintSpec(C, Body.node());
    EXPECT_TRUE(R.has("bad-local")) << R.render();
  }
  // Dynamic label outside the context's table.
  {
    Context C;
    DynLabel L = C.newLabel();
    Stmt Body = C.block({C.gotoLabel(L), C.labelHere(L), C.retVoid()});
    Body.node()->BodyV[0]->LocalId = 57;
    verify::Result R = verify::lintSpec(C, Body.node());
    EXPECT_TRUE(R.has("bad-dynlabel")) << R.render();
  }
  // Structurally broken node.
  {
    Context C;
    Stmt Body = C.ret(C.intConst(1));
    Body.node()->Kind = static_cast<StmtKind>(77);
    verify::Result R = verify::lintSpec(C, Body.node());
    EXPECT_TRUE(R.has("malformed-node")) << R.render();
  }
  // A clean spec stays clean.
  {
    Context C;
    VSpec X = C.paramInt(0);
    Stmt Body = C.ret(Expr(X) * C.intConst(3));
    verify::Result R = verify::lintSpec(C, Body.node());
    EXPECT_TRUE(R.ok()) << R.render();
  }
}

// --- IR mutations -----------------------------------------------------------

TEST(VerifyMutation, CorruptedIRIsRejected) {
  P1 A;
  P2 B;
  P3 C;
  MutationTally T;

  // Clean streams pass.
  EXPECT_TRUE(verify::verifyICode(A.IC).ok())
      << verify::verifyICode(A.IC).render();
  EXPECT_TRUE(verify::verifyICode(B.IC).ok())
      << verify::verifyICode(B.IC).render();
  EXPECT_TRUE(verify::verifyICode(C.IC).ok())
      << verify::verifyICode(C.IC).render();

  // Bulk: an out-of-enum opcode byte anywhere is caught.
  for (IRProgram *P : {static_cast<IRProgram *>(&A), static_cast<IRProgram *>(&B),
                       static_cast<IRProgram *>(&C)})
    for (std::size_t I = 0; I < P->Clean.size(); ++I)
      runIRCase(
          T, *P, "bad-opcode",
          [I](std::vector<Instr> &S) { S[I].Opcode = static_cast<Op>(0xEE); },
          "opcode byte smash at " + std::to_string(I));

  // Operand out of range (per reg-typed field).
  runIRCase(T, A, "operand-range",
            [](std::vector<Instr> &S) { S[2].A = 9999; },
            "AddI dest out of range");
  runIRCase(T, A, "operand-range",
            [](std::vector<Instr> &S) { S[2].B = 9999; },
            "AddI src out of range");
  runIRCase(T, A, "operand-range", [](std::vector<Instr> &S) { S[6].C = -3; },
            "SubI negative reg");
  runIRCase(T, B, "operand-range",
            [](std::vector<Instr> &S) { S[4].A = 12345; },
            "loop AddI reg out of range");
  runIRCase(T, C, "operand-range",
            [](std::vector<Instr> &S) { S[2].B = 9999; },
            "AddD reg out of range");

  // Class swaps: float reg in an int slot and vice versa.
  runIRCase(T, A, "operand-class",
            [&A](std::vector<Instr> &S) { S[2].B = A.FD; },
            "AddI fed a float reg");
  runIRCase(T, A, "operand-class",
            [&A](std::vector<Instr> &S) { S[7].A = A.FD; },
            "RetI of a float reg");
  runIRCase(T, C, "operand-class",
            [&C](std::vector<Instr> &S) { S[2].B = C.I0; },
            "AddD fed an int reg");
  runIRCase(T, C, "operand-class",
            [&C](std::vector<Instr> &S) { S[6].B = C.I0; },
            "CvtDToI fed an int reg");

  // Sub-opcode abuse.
  runIRCase(T, A, "bad-sub", [](std::vector<Instr> &S) { S[2].Sub = 3; },
            "AddI with nonzero sub");
  runIRCase(T, A, "bad-sub", [](std::vector<Instr> &S) { S[4].Sub = 77; },
            "CmpSetI with bogus CmpKind");
  runIRCase(T, B, "bad-sub", [](std::vector<Instr> &S) { S[3].Sub = 99; },
            "BrCmpII with bogus CmpKind");

  // Branch/label integrity.
  runIRCase(T, B, "bad-label",
            [&B](std::vector<Instr> &S) {
              S[6].A = static_cast<std::int32_t>(B.IC.numLabels()) + 5;
            },
            "Jump to unknown label");
  runIRCase(T, B, "bad-label",
            [&B](std::vector<Instr> &S) {
              S[3].C = static_cast<std::int32_t>(B.IC.numLabels()) + 5;
            },
            "BrCmpII to unknown label");

  // Pool references.
  runIRCase(T, C, "bad-pool",
            [&C](std::vector<Instr> &S) {
              S[1].B = static_cast<std::int32_t>(C.IC.poolSize()) + 3;
            },
            "SetD pool index out of range");
  runIRCase(T, C, "bad-pool",
            [&C](std::vector<Instr> &S) {
              S[4].A = static_cast<std::int32_t>(C.IC.poolSize()) + 9;
            },
            "Call pool index out of range");

  // Immediate-range fields.
  runIRCase(T, A, "bad-imm", [](std::vector<Instr> &S) { S[5].C = 64; },
            "shift amount 64");
  runIRCase(T, C, "bad-imm", [](std::vector<Instr> &S) { S[3].A = 8; },
            "fp call slot 8");
  runIRCase(T, C, "bad-imm", [](std::vector<Instr> &S) { S[4].B = 9; },
            "call with 9 fp args");
  runIRCase(T, A, "bad-imm", [](std::vector<Instr> &S) { S[0].B = -1; },
            "bind of arg -1");

  // BindArg after the body started.
  runIRCase(T, A, "misplaced-bindarg",
            [&A](std::vector<Instr> &S) {
              S[3] = Instr{Op::BindArgI, 0, A.D, 0, 0};
            },
            "BindArgI mid-function");

  // Call-argument grouping.
  runIRCase(T, C, "bad-callargs", [](std::vector<Instr> &S) { S[3].A = 1; },
            "fp arg slot not dense");
  runIRCase(T, C, "bad-callargs", [](std::vector<Instr> &S) { S[4].B = 2; },
            "call fp-arity mismatch");
  runIRCase(T, A, "bad-callargs",
            [&A](std::vector<Instr> &S) {
              S[1] = Instr{Op::CallArgI, 0, 0, A.A0, 0};
            },
            "orphan call argument");

  // Termination.
  runIRCase(T, A, "missing-ret",
            [](std::vector<Instr> &S) { S[7].Opcode = Op::Nop; },
            "function falls off the end");
  runIRCase(T, B, "missing-ret",
            [](std::vector<Instr> &S) { S[8].Opcode = Op::Nop; },
            "loop falls off the end");

  // Definite assignment.
  runIRCase(T, A, "use-before-def",
            [](std::vector<Instr> &S) { S[1].Opcode = Op::Nop; },
            "SetI removed before use");
  runIRCase(T, B, "use-before-def",
            [](std::vector<Instr> &S) { S[1].Opcode = Op::Nop; },
            "loop accumulator never defined");
  runIRCase(T, C, "use-before-def",
            [](std::vector<Instr> &S) { S[1].Opcode = Op::Nop; },
            "SetD removed before use");

  EXPECT_GE(T.Cases, 50u);
  EXPECT_EQ(T.Rejected, T.Cases) << "some IR corruptions slipped through";
}

// --- Allocation mutations ---------------------------------------------------

TEST(VerifyMutation, CorruptedAllocationIsRejected) {
  AllocFixture Fx;
  ASSERT_TRUE(verify::verifyICode(Fx.IC).ok())
      << verify::verifyICode(Fx.IC).render();
  MutationTally T;

  for (icode::RegAllocKind Kind :
       {icode::RegAllocKind::LinearScan, icode::RegAllocKind::GraphColor}) {
    std::vector<int> Backing;
    Allocation Clean = Fx.allocate(Kind, Backing);
    {
      verify::Result R = verify::auditAllocation(Fx.IC, Clean);
      ASSERT_TRUE(R.ok()) << R.render();
    }

    // Every vreg the allocator placed in a register, and the subset of the
    // deliberately overlapping ints among them.
    std::vector<VReg> InRegAll, InRegOverlap;
    for (unsigned V = 0; V < Clean.NumRegs; ++V)
      if (Clean.Location[V] >= 0)
        InRegAll.push_back(static_cast<VReg>(V));
    for (VReg V : Fx.Overlapping)
      if (Clean.Location[V] >= 0)
        InRegOverlap.push_back(V);
    ASSERT_GE(InRegAll.size(), 4u);
    ASSERT_GE(InRegOverlap.size(), 2u);

    // Duplicate physical registers among simultaneously live vregs.
    for (std::size_t I = 0; I < InRegOverlap.size(); ++I)
      for (std::size_t J = 0; J < InRegOverlap.size(); ++J) {
        if (I == J)
          continue;
        VReg VI = InRegOverlap[I], VJ = InRegOverlap[J];
        if (Clean.Location[VI] == Clean.Location[VJ])
          continue;
        runAllocCase(T, Fx.IC, Clean, "phys-conflict",
                     [VI, VJ](Allocation &, std::vector<int> &L) {
                       L[static_cast<std::size_t>(VI)] =
                           L[static_cast<std::size_t>(VJ)];
                     },
                     "duplicate phys assignment");
      }

    // Locations outside the pools, and occurring vregs demoted to Unused.
    for (VReg V : InRegAll) {
      for (int Bad : {99, 1000, -5})
        runAllocCase(T, Fx.IC, Clean, "location-range",
                     [V, Bad](Allocation &, std::vector<int> &L) {
                       L[static_cast<std::size_t>(V)] = Bad;
                     },
                     "location out of pool range");
      runAllocCase(T, Fx.IC, Clean, "unused-occurring",
                   [V](Allocation &, std::vector<int> &L) {
                     L[static_cast<std::size_t>(V)] = Allocation::Unused;
                   },
                   "live vreg marked unused");
    }

    // The call-crossing float must stay spilled; "allocating" it puts a
    // value in a caller-saved XMM register across the call.
    ASSERT_EQ(Clean.Location[Fx.CrossCall], Allocation::Spilled);
    runAllocCase(T, Fx.IC, Clean, "caller-saved-across-call",
                 [&Fx](Allocation &A2, std::vector<int> &L) {
                   L[static_cast<std::size_t>(Fx.CrossCall)] = 11;
                   A2.NumSpilled -= 1; // Keep the spill count consistent.
                 },
                 "float un-spilled across a call");
    runAllocCase(T, Fx.IC, Clean, "location-range",
                 [&Fx](Allocation &A2, std::vector<int> &L) {
                   L[static_cast<std::size_t>(Fx.CrossCall)] = 99;
                   A2.NumSpilled -= 1;
                 },
                 "spilled float location out of range");

    // Bookkeeping lies.
    runAllocCase(T, Fx.IC, Clean, "spill-count",
                 [](Allocation &A2, std::vector<int> &) { A2.NumSpilled += 1; },
                 "spill count inflated");
    runAllocCase(T, Fx.IC, Clean, "alloc-shape",
                 [](Allocation &A2, std::vector<int> &) { A2.NumRegs -= 1; },
                 "table shorter than numRegs");
  }

  EXPECT_GE(T.Cases, 50u);
  EXPECT_EQ(T.Rejected, T.Cases)
      << "some allocation corruptions slipped through";
}

// --- Machine-code mutations -------------------------------------------------

TEST(VerifyMutation, CorruptedBytesAreRejected) {
  MutationTally T;
  std::vector<AdmitProgram> Bodies;

  for (BackendKind BK : {BackendKind::VCode, BackendKind::ICode}) {
    CompileOptions Opts;
    Opts.Backend = BK;
    Bodies.push_back(AdmitProgram::of(compileLoopFn(Opts), nullptr));
    Bodies.push_back(AdmitProgram::of(compileDoubleFn(Opts), nullptr));
  }
  CompileOptions ProfOpts;
  ProfOpts.Backend = BackendKind::ICode;
  ProfOpts.Profile = true;
  ProfOpts.Name = "verify-mutation";
  CompiledFn ProfFn = compileLoopFn(ProfOpts); // Outlives its counter uses.
  Bodies.push_back(AdmitProgram::of(ProfFn, nullptr));

  for (const AdmitProgram &CB : Bodies) {
    ASSERT_FALSE(CB.Bytes.empty());
    ASSERT_GE(CB.Ins.size(), 5u);
    // Clean bytes pass.
    {
      verify::Result R = verify::verifyAdmission(CB.inputs());
      EXPECT_TRUE(R.ok()) << R.render();
    }

    // Bulk: an undecodable opcode byte at instruction starts.
    for (std::size_t I = 0; I < CB.Starts.size(); I += 3)
      runAdmitCase(T, CB, "decode",
                   [&CB, I](AdmitProgram &M) {
                     // push es: invalid in 64-bit mode.
                     M.Bytes[CB.Starts[I]] = 0x06;
                   },
                   "invalid opcode at instr " + std::to_string(I));

    // REX.X can never appear (neither emitter uses scaled indexing).
    for (std::size_t I = 0; I < CB.Starts.size(); ++I)
      if ((CB.Bytes[CB.Starts[I]] & 0xF0) == 0x40) {
        runAdmitCase(T, CB, "decode",
                     [&CB, I](AdmitProgram &M) {
                       M.Bytes[CB.Starts[I]] |= 0x02;
                     },
                     "REX.X planted at instr " + std::to_string(I));
        break;
      }

    // Every ret turned into a nop unbalances the frame.
    for (std::size_t I = 0; I < CB.Ins.size(); ++I)
      if (CB.Ins[I].Cls == x86::InstrClass::Ret)
        runAdmitCase(T, CB, "stack-balance",
                     [&CB, I](AdmitProgram &M) {
                       M.Bytes[CB.Starts[I]] = 0x90;
                     },
                     "ret replaced with nop");

    // Every relative branch redirected out of the region.
    for (std::size_t I = 0; I < CB.Ins.size(); ++I)
      if (CB.Ins[I].Cls == x86::InstrClass::Jcc ||
          CB.Ins[I].Cls == x86::InstrClass::Jmp)
        runAdmitCase(T, CB, "branch-target",
                     [&CB, I](AdmitProgram &M) {
                       std::int32_t Wild = 1 << 20;
                       std::memcpy(&M.Bytes[CB.Starts[I] + CB.Ins[I].Len - 4],
                                   &Wild, 4);
                     },
                     "branch redirected out of region");

    // Prologue vandalism: push rax instead of push rbp.
    runAdmitCase(T, CB, "prologue",
                 [](AdmitProgram &M) { M.Bytes[0] = 0x50; },
                 "push rbp replaced");

    // Truncation into the frame-reserve imm32 (instruction 2, 7 bytes).
    runAdmitCase(T, CB, "boundary",
                 [&CB](AdmitProgram &M) {
                   std::size_t Cut = CB.Starts[2] + 2;
                   M.Bytes.resize(Cut);
                 },
                 "region truncated mid-instruction");
  }

  // Profiling-hook integrity (on the profiled body).
  const AdmitProgram &PB = Bodies.back();
  ASSERT_TRUE(PB.Profiled);
  runAdmitCase(T, PB, "profile",
               [](AdmitProgram &M) { M.Profiled = false; },
               "hook present but profiling off");
  runAdmitCase(T, PB, "profile",
               [](AdmitProgram &M) {
                 static std::uint64_t NotTheCounter;
                 M.Counter = &NotTheCounter;
               },
               "hook targets an unregistered counter");
  bool FoundHook = false;
  for (std::size_t I = 0; I + 1 < PB.Ins.size(); ++I)
    if (PB.Ins[I].Cls == x86::InstrClass::MovImm64 && PB.Ins[I].Rm == 10 &&
        PB.Ins[I + 1].Cls == x86::InstrClass::LockInc) {
      FoundHook = true;
      runAdmitCase(T, PB, "profile",
                   [&PB, I](AdmitProgram &M) {
                     M.Bytes[PB.Starts[I] + 5] ^= 0x40; // Flip an imm64 byte.
                   },
                   "counter address corrupted");
      break;
    }
  EXPECT_TRUE(FoundHook) << "no movabs-r10 + lock-inc pair in profiled code";
  // A non-profiled body cannot satisfy an expected hook.
  runAdmitCase(T, Bodies.front(), "profile",
               [](AdmitProgram &M) {
                 static std::uint64_t Counter;
                 M.Profiled = true;
                 M.Counter = &Counter;
               },
               "profiling expected but no hook planted");

  EXPECT_GE(T.Cases, 50u);
  EXPECT_EQ(T.Rejected, T.Cases) << "some byte corruptions slipped through";
}

TEST(VerifyMutation, EmitterUsageCrossCheckCatchesForeignInstructions) {
  // Warm the usage table with a real ICODE compile so ordinary opcodes are
  // recorded, then hand-assemble a function containing an instruction no
  // ICODE opcode can justify (movsx r32, r16): the cross-check must flag it
  // even though it decodes fine.
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  (void)compileLoopFn(Opts);

  std::vector<std::uint8_t> Code = {
      0x55,                                     // push rbp
      0x48, 0x8B, 0xEC,                         // mov rbp, rsp
      0x48, 0x81, 0xEC, 0x30, 0x00, 0x00, 0x00, // sub rsp, 48
      0x0F, 0xBF, 0xC1,                         // movsx eax, cx  <-- foreign
      0x48, 0x8B, 0xE5,                         // mov rsp, rbp
      0x5D,                                     // pop rbp
      0xC3,                                     // ret
  };
  AdmitProgram P = AdmitProgram::hand(Code);
  P.ICodeFacts = true;
  verify::Result R = verify::verifyAdmission(P.inputs());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.has("emitter-usage")) << R.render();

  // The same frame without the foreign instruction is fine.
  P.Bytes.erase(P.Bytes.begin() + 11, P.Bytes.begin() + 14);
  R = verify::verifyAdmission(P.inputs());
  EXPECT_TRUE(R.ok()) << R.render();
}

// --- Admission -------------------------------------------------------------

TEST(VerifyAdmission, AcceptsCleanHandFrames) {
  // The canonical empty frame.
  verify::Result R =
      verify::verifyAdmission(AdmitProgram::hand(handFrame({})).inputs());
  EXPECT_TRUE(R.ok()) << R.render();

  // An ABI-aligned indirect call with no reloc table: fresh-compile mode
  // trusts the emitter's own immediates.
  R = verify::verifyAdmission(
      AdmitProgram::hand(handFrame(callBody())).inputs());
  EXPECT_TRUE(R.ok()) << R.render();

  // A stack-passed argument load ([rbp+16] and up is the caller's arg
  // area — above the unreachable saved rbp / return address window).
  R = verify::verifyAdmission(
      AdmitProgram::hand(handFrame({0x48, 0x8B, 0x45, 0x10})).inputs());
  EXPECT_TRUE(R.ok()) << R.render();

  // Under the ICODE spill fact, a reload after the store is fine.
  {
    AdmitProgram P = AdmitProgram::hand(
        handFrame({0x48, 0x89, 0x45, 0xD0,    // mov [rbp-48], rax
                   0x48, 0x8B, 0x45, 0xD0})); // mov rax, [rbp-48]
    P.ICodeFacts = true;
    R = verify::verifyAdmission(P.inputs());
    EXPECT_TRUE(R.ok()) << R.render();
  }

  // Arithmetic on run-time values stays an admissible call target: an
  // indirect call through a register computed from a loaded value (via a
  // register-register add) is how generated dispatch code looks.
  {
    std::vector<std::uint8_t> Body = {
        0x48, 0x8B, 0x45, 0x10,  // mov rax, [rbp+16]
        0x48, 0x8B, 0x55, 0xD0,  // mov rdx, [rbp-48]
        0x48, 0x03, 0xC2,        // add rax, rdx
        0xFF, 0xD0};             // call rax
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    R = verify::verifyAdmission(P.inputs());
    EXPECT_TRUE(R.ok()) << R.render();
  }

  // The same call as a snapshot would present it: the movabs payload is a
  // declared Callee relocation slot, so the target is proven confined even
  // after a round trip through a tracked spill slot.
  std::vector<std::uint8_t> Body = {0x49, 0xBA};
  appendU64(Body, reinterpret_cast<std::uint64_t>(
                      reinterpret_cast<const void *>(&dummyCallee)));
  Body.insert(Body.end(), {0x4C, 0x89, 0x55, 0xD8,   // mov [rbp-40], r10
                           0x4C, 0x8B, 0x55, 0xD8,   // mov r10, [rbp-40]
                           0x41, 0xFF, 0xD2});       // call r10
  AdmitProgram P = AdmitProgram::hand(handFrame(Body));
  P.HaveRelocs = true;
  P.Relocs.push_back({13, support::RelocKind::Callee});
  R = verify::verifyAdmission(P.inputs());
  EXPECT_TRUE(R.ok()) << R.render();
}

TEST(VerifyAdmission, HostileRecordsRejected) {
  MutationTally T;

  // --- CFG recovery and decode ---------------------------------------------
  runAdmitCase(T, AdmitProgram::hand({}), "boundary", admitNoop,
               "empty region");
  runAdmitCase(T, AdmitProgram::hand({0x55}), "prologue", admitNoop,
               "bare push rbp");
  {
    // push rax instead of push rbp.
    std::vector<std::uint8_t> B = handFrame({});
    B[0] = 0x50;
    runAdmitCase(T, AdmitProgram::hand(B), "prologue", admitNoop,
                 "wrong prologue push");
  }
  {
    // Unaligned frame reserve (49 bytes).
    std::vector<std::uint8_t> B = handFrame({});
    B[7] = 0x31;
    runAdmitCase(T, AdmitProgram::hand(B), "prologue", admitNoop,
                 "unaligned frame reserve");
  }
  {
    // Reserve too small to cover the callee-save area (32 bytes).
    std::vector<std::uint8_t> B = handFrame({});
    B[7] = 0x20;
    runAdmitCase(T, AdmitProgram::hand(B), "prologue", admitNoop,
                 "undersized frame reserve");
  }
  {
    // Final ret smashed to nop: execution would fall off the end.
    std::vector<std::uint8_t> B = handFrame({});
    B.back() = 0x90;
    runAdmitCase(T, AdmitProgram::hand(B), "cfg-fallthrough", admitNoop,
                 "ret replaced by nop");
  }
  {
    // Garbage appended after the ret still has to decode.
    std::vector<std::uint8_t> B = handFrame({});
    B.push_back(0x06);
    runAdmitCase(T, AdmitProgram::hand(B), "decode", admitNoop,
                 "undecodable trailer");
  }
  {
    // Decodable trailer without a terminator.
    std::vector<std::uint8_t> B = handFrame({});
    B.insert(B.end(), {0x33, 0xC0});
    runAdmitCase(T, AdmitProgram::hand(B), "cfg-fallthrough", admitNoop,
                 "code after final ret");
  }
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x41, 0xFF, 0xE2})),
               "branch-target", admitNoop, "indirect jump");
  runAdmitCase(T,
               AdmitProgram::hand(handFrame({0xE9, 0x00, 0x00, 0x10, 0x00})),
               "branch-target", admitNoop, "branch leaves the region");
  runAdmitCase(T,
               AdmitProgram::hand(handFrame({0xE9, 0xF5, 0xFF, 0xFF, 0xFF})),
               "branch-target", admitNoop,
               "branch into the middle of the frame reserve");

  // --- Stack discipline ------------------------------------------------------
  {
    // Jump back to the prologue: the entry block would be re-entered at
    // depth 56 — an equality-domain join mismatch.
    runAdmitCase(
        T, AdmitProgram::hand(handFrame({0xE9, 0xF0, 0xFF, 0xFF, 0xFF})),
        "stack-balance", admitNoop, "loop back into the prologue");
  }
  {
    std::vector<std::uint8_t> B = handFrame({});
    B[B.size() - 2] = 0x5B; // pop rbx instead of pop rbp
    runAdmitCase(T, AdmitProgram::hand(B), "stack-balance", admitNoop,
                 "epilogue pops the wrong register");
  }
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x83, 0xC4, 0x40})),
               "stack-balance", admitNoop,
               "add rsp, 64 unwinds above the entry rsp");
  {
    // jz over a `sub rsp, 8`: the two paths reach the epilogue at depths
    // 64 and 56.
    std::vector<std::uint8_t> B =
        handFrame({0x33, 0xC0,                         // xor eax, eax
                   0x85, 0xC0,                         // test eax, eax
                   0x0F, 0x84, 0x04, 0x00, 0x00, 0x00, // jz +4
                   0x48, 0x83, 0xEC, 0x08});           // sub rsp, 8
    runAdmitCase(T, AdmitProgram::hand(B), "stack-balance", admitNoop,
                 "paths join at different depths");
  }
  {
    // Call at depth 64: rsp not 16-byte aligned at the call.
    std::vector<std::uint8_t> B = {0x48, 0x83, 0xEC, 0x08}; // sub rsp, 8
    std::vector<std::uint8_t> CB = callBody();
    B.insert(B.end(), CB.begin(), CB.end());
    B.insert(B.end(), {0x48, 0x83, 0xC4, 0x08}); // add rsp, 8
    runAdmitCase(T, AdmitProgram::hand(handFrame(B)), "stack-balance",
                 admitNoop, "indirect call at misaligned depth");
  }

  // --- Frame integrity -------------------------------------------------------
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x8B, 0xC5})),
               "frame-escape", admitNoop, "mov rax, rbp");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x89, 0x45, 0x08})),
               "frame-escape", admitNoop,
               "store above rbp (return address reachable)");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x89, 0x45, 0xC8})),
               "frame-escape", admitNoop, "store below the reserved frame");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x8D, 0x45, 0xF8})),
               "frame-escape", admitNoop, "lea rax, [rbp-8]");
  runAdmitCase(T,
               AdmitProgram::hand(handFrame({0x48, 0x89, 0x44, 0x24, 0x08})),
               "frame-escape", admitNoop, "rsp-based store");

  // --- Width-aware frame integrity (access ranges, not just displacements) --
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x89, 0x45, 0xFF})),
               "frame-escape", admitNoop,
               "qword store at [rbp-1] reaches the saved rbp");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x89, 0x45, 0xFD})),
               "frame-escape", admitNoop,
               "dword store at [rbp-3] reaches the saved rbp");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x8B, 0x45, 0x00})),
               "frame-escape", admitNoop, "load of the saved rbp");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x8B, 0x45, 0x08})),
               "frame-escape", admitNoop, "load of the return address");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x8B, 0x45, 0xFC})),
               "frame-escape", admitNoop,
               "qword load at [rbp-4] crossing into the saved rbp");

  // --- Frame-address escape channels beyond `mov r, rbp` --------------------
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x89, 0x6D, 0xD0})),
               "frame-escape", admitNoop,
               "rbp value stored to a frame slot");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x03, 0xC5})),
               "frame-escape", admitNoop, "add rax, rbp");
  runAdmitCase(T,
               AdmitProgram::hand(handFrame({0x66, 0x48, 0x0F, 0x6E, 0xC5})),
               "frame-escape", admitNoop, "movq xmm0, rbp");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0xFF, 0xD5})),
               "frame-escape", admitNoop, "call through rbp");

  // --- Callee-saved obligations ---------------------------------------------
  runAdmitCase(T, AdmitProgram::hand(handFrame({0xBB, 0x01, 0x00, 0x00,
                                                0x00})),
               "callee-saved", admitNoop, "rbx written before being saved");
  runAdmitCase(T,
               AdmitProgram::hand(handFrame({0x48, 0x89, 0x5D, 0xF8,  // save
                                             0x48, 0x33, 0xDB})),    // xor rbx
               "callee-saved", admitNoop,
               "rbx clobbered but never restored");
  runAdmitCase(T, AdmitProgram::hand(handFrame({0x48, 0x8B, 0x5D, 0xF8})),
               "callee-saved", admitNoop,
               "restore load from a slot never saved");
  {
    // Save rbx, clobber it, then overwrite the live save slot: the value
    // the restore proof would hand back to the caller is gone.
    std::vector<std::uint8_t> B =
        handFrame({0x48, 0x89, 0x5D, 0xF8,   // mov [rbp-8], rbx (save)
                   0x48, 0x33, 0xDB,         // xor rbx, rbx
                   0x48, 0x89, 0x45, 0xF8,   // mov [rbp-8], rax
                   0x48, 0x8B, 0x5D, 0xF8}); // mov rbx, [rbp-8] (restore)
    runAdmitCase(T, AdmitProgram::hand(B), "callee-saved", admitNoop,
                 "live save slot overwritten before the restore");
  }
  {
    // Misaligned qword store straddling the live rbx save slot.
    std::vector<std::uint8_t> B =
        handFrame({0x48, 0x89, 0x5D, 0xF8,   // mov [rbp-8], rbx (save)
                   0x48, 0x33, 0xDB,         // xor rbx, rbx
                   0x48, 0x89, 0x45, 0xF7,   // mov [rbp-9], rax
                   0x48, 0x8B, 0x5D, 0xF8}); // mov rbx, [rbp-8] (restore)
    runAdmitCase(T, AdmitProgram::hand(B), "callee-saved", admitNoop,
                 "misaligned store straddling a live save slot");
  }
  {
    // Partial dword store into the live rbx save slot.
    std::vector<std::uint8_t> B =
        handFrame({0x48, 0x89, 0x5D, 0xF8,   // mov [rbp-8], rbx (save)
                   0x48, 0x33, 0xDB,         // xor rbx, rbx
                   0x89, 0x45, 0xF8,         // mov [rbp-8], eax
                   0x48, 0x8B, 0x5D, 0xF8}); // mov rbx, [rbp-8] (restore)
    runAdmitCase(T, AdmitProgram::hand(B), "callee-saved", admitNoop,
                 "partial store into a live save slot");
  }

  // --- Spill discipline (ICODE fresh-compile fact) -------------------------
  {
    // A reload of [rbp-48] before any store to it.
    AdmitProgram P =
        AdmitProgram::hand(handFrame({0x48, 0x8B, 0x45, 0xD0}));
    P.ICodeFacts = true;
    runAdmitCase(T, P, "spill-reload", admitNoop,
                 "spill slot reloaded before any store");
  }
  {
    // Stored on the taken path only; the fallthrough path jumps straight
    // to the join, where the slot must be intersected to uninitialized.
    AdmitProgram P = AdmitProgram::hand(
        handFrame({0x33, 0xC0,                         // xor eax, eax
                   0x85, 0xC0,                         // test eax, eax
                   0x0F, 0x84, 0x05, 0x00, 0x00, 0x00, // jz +5 (store)
                   0xE9, 0x04, 0x00, 0x00, 0x00,       // jmp +4 (join)
                   0x48, 0x89, 0x45, 0xD0,             // mov [rbp-48], rax
                   0x48, 0x8B, 0x45, 0xD0}));          // mov rax, [rbp-48]
    P.ICodeFacts = true;
    runAdmitCase(T, P, "spill-reload", admitNoop,
                 "spill slot stored on one path, reloaded after the join");
  }

  // --- Call-target confinement ----------------------------------------------
  {
    // An imm64 call target that is not a declared relocation slot.
    AdmitProgram P = AdmitProgram::hand(handFrame(callBody()));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "embedded imm64 call target outside the reloc table");
  }
  {
    // The same, laundered through a store/reload of a tracked frame slot.
    std::vector<std::uint8_t> Body = {0x49, 0xBA};
    appendU64(Body, 0x4141414141414141ull);
    Body.insert(Body.end(), {0x4C, 0x89, 0x55, 0xD8,  // mov [rbp-40], r10
                             0x4C, 0x8B, 0x55, 0xD8,  // mov r10, [rbp-40]
                             0x41, 0xFF, 0xD2});      // call r10
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "stray target laundered through a spill slot");
  }
  {
    // Arithmetic laundering: `add r10, 0x10` must not turn the stray
    // immediate into an admissible Computed value.
    std::vector<std::uint8_t> Body = {0x49, 0xBA};
    appendU64(Body, 0x4141414141414141ull);
    Body.insert(Body.end(), {0x49, 0x83, 0xC2, 0x10,  // add r10, 16
                             0x41, 0xFF, 0xD2});      // call r10
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "stray target laundered through add-immediate");
  }
  {
    // The same through register-register arithmetic.
    std::vector<std::uint8_t> Body = {0x49, 0xBA};
    appendU64(Body, 0x4141414141414141ull);
    Body.insert(Body.end(), {0x33, 0xC0,        // xor eax, eax
                             0x49, 0x03, 0xC2,  // add rax, r10
                             0xFF, 0xD0});      // call rax
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "stray target laundered through add rax, r10");
  }
  {
    // The same through a shift.
    std::vector<std::uint8_t> Body = {0x49, 0xBA};
    appendU64(Body, 0x4141414141414141ull << 1);
    Body.insert(Body.end(), {0x49, 0xC1, 0xEA, 0x01,  // shr r10, 1
                             0x41, 0xFF, 0xD2});      // call r10
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "stray target laundered through a shift");
  }
  {
    // The same through an xmm round trip (movq preserves all 64 bits).
    std::vector<std::uint8_t> Body = {0x48, 0xB8};
    appendU64(Body, 0x4141414141414141ull);
    Body.insert(Body.end(), {0x66, 0x48, 0x0F, 0x6E, 0xC0,  // movq xmm0, rax
                             0x66, 0x48, 0x0F, 0x7E, 0xC0,  // movq rax, xmm0
                             0xFF, 0xD0});                  // call rax
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "stray target laundered through the xmm file");
  }
  {
    // A target assembled from imm32 pieces with shift+or: the immediate
    // contribution keeps every piece Plain.
    std::vector<std::uint8_t> Body = {
        0xB8, 0xEF, 0xBE, 0xAD, 0xDE,  // mov eax, 0xDEADBEEF
        0xBA, 0x41, 0x41, 0x41, 0x41,  // mov edx, 0x41414141
        0x48, 0xC1, 0xE2, 0x20,        // shl rdx, 32
        0x48, 0x0B, 0xC2,              // or rax, rdx
        0xFF, 0xD0};                   // call rax
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "call target assembled from imm32 pieces");
  }
  {
    // A target assembled inside a qword spill slot by two dword stores,
    // then reloaded whole: the frame cells track partial-width writes.
    std::vector<std::uint8_t> Body = {
        0xB8, 0xEF, 0xBE, 0xAD, 0xDE,  // mov eax, 0xDEADBEEF
        0x89, 0x45, 0xD0,              // mov [rbp-48], eax
        0xB8, 0x41, 0x41, 0x41, 0x41,  // mov eax, 0x41414141
        0x89, 0x45, 0xD4,              // mov [rbp-44], eax
        0x48, 0x8B, 0x45, 0xD0,        // mov rax, [rbp-48]
        0xFF, 0xD0};                   // call rax
    AdmitProgram P = AdmitProgram::hand(handFrame(Body));
    P.HaveRelocs = true;
    runAdmitCase(T, P, "call-target", admitNoop,
                 "call target assembled by partial stores in a spill slot");
  }
  {
    // A Profile-kind slot used as a call target: the counter address the
    // loader planted is data, not code.
    AdmitProgram P = AdmitProgram::hand(handFrame(callBody()));
    P.HaveRelocs = true;
    P.Relocs.push_back({13, support::RelocKind::Profile});
    runAdmitCase(T, P, "call-target", admitNoop,
                 "profile-counter slot used as a call target");
  }
  {
    // Reloc offset pointing at the prologue, not a movabs payload.
    AdmitProgram P = AdmitProgram::hand(handFrame(callBody()));
    P.HaveRelocs = true;
    P.Relocs.push_back({0, support::RelocKind::Callee});
    runAdmitCase(T, P, "reloc-shape", admitNoop,
                 "reloc offset lands on the prologue");
  }
  {
    // Reloc offset off by one from the payload: patching would rewrite the
    // call's ModRM byte.
    AdmitProgram P = AdmitProgram::hand(handFrame(callBody()));
    P.HaveRelocs = true;
    P.Relocs.push_back({14, support::RelocKind::Callee});
    runAdmitCase(T, P, "reloc-shape", admitNoop,
                 "reloc offset off by one from the movabs payload");
  }

  // --- Compiled-body mutation sweeps ----------------------------------------
  struct Cfg {
    const char *Name;
    BackendKind BK;
  } Cfgs[] = {{"vcode", BackendKind::VCode}, {"icode", BackendKind::ICode}};
  for (const Cfg &Cf : Cfgs) {
    CompileOptions Opts;
    Opts.Backend = Cf.BK;
    std::vector<std::pair<std::string, AdmitProgram>> Bodies;
    Bodies.emplace_back(std::string(Cf.Name) + "/loop",
                        AdmitProgram::of(compileLoopFn(Opts), nullptr));
    Bodies.emplace_back(std::string(Cf.Name) + "/call",
                        AdmitProgram::of(compileCallFn(Opts), nullptr));
    for (const auto &[Name, P] : Bodies) {
      // Sanity: the untouched body is admitted.
      verify::Result Clean = verify::verifyAdmission(P.inputs());
      ASSERT_TRUE(Clean.ok()) << Name << ":\n" << Clean.render();

      // Retarget every relative branch far outside the region, then into
      // the middle of the frame-reserve instruction.
      for (std::size_t I = 0; I < P.Ins.size(); ++I) {
        if (P.Ins[I].Cls != x86::InstrClass::Jcc &&
            P.Ins[I].Cls != x86::InstrClass::Jmp)
          continue;
        std::size_t RelOff = P.Starts[I] + P.Ins[I].Len - 4;
        runAdmitCase(T, P, "branch-target",
                     [RelOff](AdmitProgram &M) {
                       M.Bytes[RelOff] = 0x00;
                       M.Bytes[RelOff + 1] = 0x00;
                       M.Bytes[RelOff + 2] = 0x10;
                       M.Bytes[RelOff + 3] = 0x00;
                     },
                     Name + ": branch retargeted out of region @+" +
                         std::to_string(P.Starts[I]));
        std::size_t End = P.Starts[I] + P.Ins[I].Len;
        std::int32_t Rel =
            static_cast<std::int32_t>(P.Starts[2] + 1) -
            static_cast<std::int32_t>(End);
        runAdmitCase(T, P, "branch-target",
                     [RelOff, Rel](AdmitProgram &M) {
                       std::memcpy(&M.Bytes[RelOff], &Rel, 4);
                     },
                     Name + ": branch retargeted mid-instruction @+" +
                         std::to_string(P.Starts[I]));
        break; // One branch per body keeps the sweep bounded.
      }

      // Smash the final ret.
      if (!P.Ins.empty() && P.Ins.back().Cls == x86::InstrClass::Ret)
        runAdmitCase(T, P, "cfg-fallthrough",
                     [](AdmitProgram &M) { M.Bytes.back() = 0x90; },
                     Name + ": final ret smashed to nop");

      // Epilogue pops rbx instead of rbp.
      for (std::size_t I = 0; I < P.Ins.size(); ++I) {
        if (P.Ins[I].Cls != x86::InstrClass::Pop || P.Ins[I].Rm != 5)
          continue;
        std::size_t Off = P.Starts[I];
        runAdmitCase(T, P, "stack-balance",
                     [Off](AdmitProgram &M) { M.Bytes[Off] = 0x5B; },
                     Name + ": pop rbp flipped to pop rbx @+" +
                         std::to_string(Off));
        break;
      }

      // An undecodable opcode in the middle of the stream.
      {
        std::size_t Off = P.Starts[P.Starts.size() / 2];
        runAdmitCase(T, P, "decode",
                     [Off](AdmitProgram &M) { M.Bytes[Off] = 0x06; },
                     Name + ": opcode smashed @+" + std::to_string(Off));
      }

      // Flip an indirect call into an indirect jump (ModRM /2 -> /4).
      for (std::size_t I = 0; I < P.Ins.size(); ++I) {
        if (P.Ins[I].Cls != x86::InstrClass::CallInd)
          continue;
        std::size_t Off = P.Starts[I] + P.Ins[I].Len - 1;
        runAdmitCase(
            T, P, "branch-target",
            [Off](AdmitProgram &M) {
              M.Bytes[Off] =
                  static_cast<std::uint8_t>((M.Bytes[Off] & ~0x38u) | 0x20u);
            },
            Name + ": call flipped to indirect jump @+" + std::to_string(Off));
        break;
      }
    }
  }

  // --- Profile hooks ---------------------------------------------------------
  {
    CompileOptions ProfOpts;
    ProfOpts.Backend = BackendKind::ICode;
    ProfOpts.Profile = true;
    ProfOpts.Name = "admit-prof";
    CompiledFn ProfFn = compileLoopFn(ProfOpts); // Outlives its counter uses.
    AdmitProgram PP = AdmitProgram::of(ProfFn, nullptr);
    runAdmitCase(T, PP, "profile",
                 [](AdmitProgram &M) { M.Profiled = false; },
                 "profiling hook present but unexpected");
    static std::uint64_t Decoy = 0;
    runAdmitCase(T, PP, "profile",
                 [](AdmitProgram &M) { M.Counter = &Decoy; },
                 "hook targets an unregistered counter");
    AdmitProgram NP = AdmitProgram::hand(handFrame({}));
    runAdmitCase(T, NP, "profile",
                 [](AdmitProgram &M) {
                   M.Profiled = true;
                   M.Counter = &Decoy;
                 },
                 "profiling expected but no hook planted");
  }

  EXPECT_GE(T.Cases, 40u);
  EXPECT_EQ(T.Rejected, T.Cases) << "some hostile records were admitted";
}

TEST(VerifyAdmission, AcceptsCleanCompilesAllBackends) {
  obs::MetricsSnapshot Before = obs::MetricsRegistry::global().snapshot();
  bench::AppSet Apps;
  const BackendKind Backends[] = {BackendKind::VCode, BackendKind::ICode};
  unsigned Compiled = 0;
  for (BackendKind BK : Backends) {
    for (const bench::AppCase &App : Apps.cases()) {
      support::RelocTable RT;
      CompileOptions Opts;
      Opts.Backend = BK;
      Opts.Verify = true; // The in-pipeline admission gate runs here.
      Opts.Relocs = &RT;
      CompiledFn F = App.Specialize(Opts);
      ASSERT_TRUE(F.valid()) << App.Name;
      App.RunDynamic(F.entry());
      // Re-admit the finalized bytes exactly as a snapshot load would: with
      // the recorded relocation table as the trusted side channel.
      AdmitProgram P = AdmitProgram::of(F, &RT);
      verify::Result R = verify::verifyAdmission(P.inputs());
      EXPECT_TRUE(R.ok()) << App.Name << " (" << static_cast<int>(BK)
                          << "):\n"
                          << R.render();
      ++Compiled;
    }
  }
  obs::MetricsSnapshot After = obs::MetricsRegistry::global().snapshot();
  namespace N = obs::names;
  EXPECT_EQ(After.counter(N::VerifyAdmitFailed),
            Before.counter(N::VerifyAdmitFailed));
  EXPECT_GE(After.counter(N::VerifyAdmitChecked),
            Before.counter(N::VerifyAdmitChecked) + Compiled);
  EXPECT_GT(After.counter(N::VerifyAdmitBlocks),
            Before.counter(N::VerifyAdmitBlocks));
}

TEST(VerifyAdmission, RegionCutInsideAnInstructionIsABoundaryReject) {
  // A region that ends inside an instruction (a record whose code length
  // lies) is a length fault, reported as `boundary` from the decoder's
  // typed truncation result, never as a corrupted encoding (`decode`).
  for (BackendKind BK : {BackendKind::VCode, BackendKind::ICode}) {
    CompileOptions Opts;
    Opts.Backend = BK;
    for (const AdmitProgram &Full :
         {AdmitProgram::of(compileLoopFn(Opts), nullptr),
          AdmitProgram::of(compileCallFn(Opts), nullptr)}) {
      ASSERT_TRUE(verify::verifyAdmission(Full.inputs()).ok());
      unsigned Inside = 0;
      for (std::size_t Cut = 1; Cut < Full.Bytes.size(); ++Cut) {
        if (std::binary_search(Full.Starts.begin(), Full.Starts.end(), Cut))
          continue;
        ++Inside;
        verify::AdmissionInputs AI = Full.inputs();
        AI.Size = Cut;
        verify::Result R = verify::verifyAdmission(AI);
        EXPECT_TRUE(R.has("boundary"))
            << "cut at " << Cut << " of " << Full.Bytes.size() << ":\n"
            << R.render();
        EXPECT_FALSE(R.has("decode"))
            << "cut at " << Cut << " of " << Full.Bytes.size() << ":\n"
            << R.render();
      }
      EXPECT_GT(Inside, 0u);
    }
  }
}

TEST(VerifyAdmission, ViolationThatAppearsOnlyAfterTheBackEdgeIsRejected) {
  // A loop whose head calls through rax, and whose tail reloads rax with a
  // stray movabs no reloc slot declares. The head's first visit sees rax as
  // a run-time value and is clean; only the state joined over the back
  // edge makes the call target Plain. The fixpoint reports only when some
  // visit flagged a violation, so that later visit must flag it.
  std::vector<std::uint8_t> Body = {
      0xFF, 0xD0,                         // head: call rax
      0x85, 0xC0,                         // test eax, eax
      0x0F, 0x84, 0x0F, 0x00, 0x00, 0x00, // je exit
      0x48, 0xB8};                        // movabs rax, <imm64>
  appendU64(Body, 0x123456789Aull);
  Body.insert(Body.end(), {0xE9, 0xE7, 0xFF, 0xFF, 0xFF}); // jmp head
  AdmitProgram P = AdmitProgram::hand(handFrame(Body));
  P.HaveRelocs = true; // An empty table: the immediate is undeclared.
  verify::Result R = verify::verifyAdmission(P.inputs());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.has("call-target")) << R.render();

  // The same loop with the immediate declared as a Callee slot is admitted,
  // so the rejection above is the stray target's alone.
  P.Relocs.push_back({23, support::RelocKind::Callee});
  R = verify::verifyAdmission(P.inputs());
  EXPECT_TRUE(R.ok()) << R.render();
}

/// `if (x > 0) return (p[0] == 7 && p[4] > 3) || p[1] == 9; return 2;`
/// through ICODE: a page guard after the prologue, the guarded body (one
/// branch, for the `if`), then the short-circuit VCODE fallback the guard
/// targets.
CompiledFn compileVersionedFn(support::RelocTable *RT, bool Profile) {
  Context C;
  VSpec P = C.paramPtr(0), X = C.paramInt(1);
  auto Field = [&](unsigned Off) {
    return C.loadMem(MemType::I32,
                     C.binary(BinOp::Add, Expr(P), C.longConst(Off)));
  };
  Expr E = (Field(0) == C.intConst(7) && Field(16) > C.intConst(3)) ||
           Field(4) == C.intConst(9);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  O.Relocs = RT;
  O.Profile = Profile;
  O.Name = Profile ? "verify.versioned" : nullptr;
  return compileFn(C,
                   C.block({C.ifStmt(Expr(X) > C.intConst(0), C.ret(E)),
                            C.ret(C.intConst(2))}),
                   EvalType::Int, O);
}

TEST(VerifyAdmission, VersionedFunctionFallbackIsReachedOnlyThroughTheGuard) {
  for (bool Profile : {false, true}) {
    support::RelocTable RT;
    CompiledFn F = compileVersionedFn(&RT, Profile);
    AdmitProgram Full = AdmitProgram::of(F, &RT);
    Full.ICodeFacts = true;
    verify::Result Clean = verify::verifyAdmission(Full.inputs());
    ASSERT_TRUE(Clean.ok()) << Clean.render();
    // After the prologue: lea, and, cmp, ja fallback.
    std::size_t Lea = 0;
    while (Lea < Full.Ins.size() && Full.Ins[Lea].Cls != x86::InstrClass::Lea)
      ++Lea;
    ASSERT_LT(Lea + 4, Full.Ins.size());
    const std::size_t Ja = Lea + 3;
    ASSERT_EQ(Full.Ins[Ja].Cls, x86::InstrClass::Jcc);
    const std::size_t JaRel = Full.Starts[Ja] + 2, GuardEnd = Full.Starts[Ja + 1];
    const std::size_t Twin = GuardEnd + static_cast<std::size_t>(
                                            Full.Ins[Ja].Rel32);
    auto TwinAt = std::find(Full.Starts.begin(), Full.Starts.end(), Twin);
    ASSERT_NE(TwinAt, Full.Starts.end());
    auto TwinIdx = static_cast<std::size_t>(TwinAt - Full.Starts.begin());
    ASSERT_EQ(Full.Ins[TwinIdx - 1].Cls, x86::InstrClass::Ret);

    // A guard that lands inside the fallback: the code before its target
    // falls through into it, and the real fallback entry is now reached
    // only by falling through.
    for (std::size_t K = TwinIdx + 1; K < TwinIdx + 6; ++K) {
      AdmitProgram P = Full;
      auto Rel = static_cast<std::int32_t>(Full.Starts[K] - GuardEnd);
      std::memcpy(&P.Bytes[JaRel], &Rel, 4);
      verify::Result R = verify::verifyAdmission(P.inputs());
      EXPECT_FALSE(R.ok()) << "guard into the fallback at +"
                           << Full.Starts[K];
      EXPECT_TRUE(R.has("cfg-fallthrough")) << R.render();
    }
    // A guard that leaves the region.
    {
      AdmitProgram P = Full;
      auto Rel = static_cast<std::int32_t>(P.Bytes.size() + 64 - GuardEnd);
      std::memcpy(&P.Bytes[JaRel], &Rel, 4);
      EXPECT_TRUE(verify::verifyAdmission(P.inputs()).has("branch-target"));
    }
    // The guarded body falls through into the fallback: its last ret is
    // gone.
    {
      AdmitProgram P = Full;
      P.Bytes[Full.Starts[TwinIdx - 1]] = 0x90; // ret -> nop
      verify::Result R = verify::verifyAdmission(P.inputs());
      EXPECT_FALSE(R.ok());
      EXPECT_TRUE(R.has("cfg-fallthrough")) << R.render();
    }
    // A branch of the guarded body that enters the fallback.
    unsigned Retargeted = 0;
    for (std::size_t K = Ja + 1; K < TwinIdx; ++K) {
      if (Full.Ins[K].Cls != x86::InstrClass::Jcc &&
          Full.Ins[K].Cls != x86::InstrClass::Jmp)
        continue;
      AdmitProgram P = Full;
      std::size_t RelAt = Full.Starts[K] + Full.Ins[K].Len - 4;
      auto Rel = static_cast<std::int32_t>(
          Twin - (Full.Starts[K] + Full.Ins[K].Len));
      std::memcpy(&P.Bytes[RelAt], &Rel, 4);
      EXPECT_TRUE(verify::verifyAdmission(P.inputs()).has("guard"));
      ++Retargeted;
    }
    EXPECT_GT(Retargeted, 0u);
  }
}

TEST(VerifyAdmission, RejectionArtifactSample) {
  // CI sets TICKC_ADMIT_SAMPLE to collect one full rejection report (hex
  // window + CFG + abstract-state dump) as a build artifact; without the
  // variable this is a no-op.
  const char *Path = std::getenv("TICKC_ADMIT_SAMPLE");
  if (!Path || !*Path)
    GTEST_SKIP() << "TICKC_ADMIT_SAMPLE not set";
  AdmitProgram P =
      AdmitProgram::hand(handFrame({0xE9, 0xF0, 0xFF, 0xFF, 0xFF}));
  verify::Result R = verify::verifyAdmission(P.inputs());
  ASSERT_FALSE(R.ok());
  std::FILE *F = std::fopen(Path, "w");
  ASSERT_NE(F, nullptr);
  std::string Report = R.render();
  std::fwrite(Report.data(), 1, Report.size(), F);
  std::fclose(F);
}
