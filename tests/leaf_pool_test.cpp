//===- tests/leaf_pool_test.cpp - Caller-saved pool of call-free ICODE ----===//
//
// An ICODE body with no call keeps no value across one, so it is emitted
// with a pool of caller-saved registers first (rdi, rsi, r8, r9, then rbx)
// and saves only what it uses. These tests decode such functions (no
// callee-saved write, no save or nop site), pin that a function with a call
// keeps its bytes, check the argument bindings' parallel move against the
// host, mix in the ops that clobber rax/rdx/rcx implicitly, run a
// page-guarded query around a PROT_NONE page, and admit and snapshot what
// they compile.
//
//===----------------------------------------------------------------------===//

#include "apps/Query.h"
#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "persist/Snapshot.h"
#include "support/CodeBuffer.h"
#include "support/Hash.h"
#include "support/Reloc.h"
#include "vcode/VCode.h"
#include "verify/Verify.h"
#include "x86/X86Decoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/mman.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::core;

namespace {

std::uint64_t counter(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name).value();
}

/// What decoding a compiled function finds.
struct CodeFacts {
  bool Decoded = true;
  unsigned CalleeSavedWrites = 0; ///< Writes of r12..r15, and of rbx.
  unsigned RbxWrites = 0;
  unsigned Nops = 0;
  unsigned SaveStores = 0; ///< qword stores into [rbp-40, rbp-8].
  unsigned Calls = 0;
  unsigned Leas = 0; ///< A page guard unit starts with one.
};

CodeFacts decode(const void *Entry, std::size_t Size) {
  CodeFacts F;
  const auto *Code = static_cast<const std::uint8_t *>(Entry);
  x86::Decoded D;
  for (std::size_t Off = 0; Off < Size; Off += D.Len) {
    if (x86::decodeOne(Code, Size, Off, D) != x86::DecodeStatus::Ok) {
      F.Decoded = false;
      return F;
    }
    std::uint8_t W[2];
    for (unsigned K = 0, N = x86::decodedGprWrites(D, W); K < N; ++K) {
      F.CalleeSavedWrites += W[K] == x86::RBX || W[K] >= x86::R12;
      F.RbxWrites += W[K] == x86::RBX;
    }
    F.Nops += D.Cls == x86::InstrClass::Nop;
    F.SaveStores += D.Cls == x86::InstrClass::Store64 && D.IsMem &&
                    D.Rm == x86::RBP && D.Disp >= -40 && D.Disp <= -8;
    F.Calls += D.Cls == x86::InstrClass::CallInd;
    F.Leas += D.Cls == x86::InstrClass::Lea;
  }
  return F;
}

CodeFacts decode(const CompiledFn &F) {
  return decode(F.entry(), F.stats().CodeBytes);
}

verify::Result admit(const CompiledFn &F) {
  verify::AdmissionInputs AI;
  AI.Code = static_cast<const std::uint8_t *>(F.entry());
  AI.Size = F.stats().CodeBytes;
  AI.ICodeFacts = F.backend() == BackendKind::ICode;
  return verify::verifyAdmission(AI);
}

CompileOptions opts(BackendKind B) {
  CompileOptions O;
  O.Backend = B;
  return O;
}

/// `int f(int a, int b, int c) { return (a + b) * c - (a ^ c); }`
Stmt arith(Context &C) {
  VSpec A = C.paramInt(0), B = C.paramInt(1), X = C.paramInt(2);
  return C.ret((Expr(A) + Expr(B)) * Expr(X) - (Expr(A) ^ Expr(X)));
}

/// Division, remainder and variable shifts, which write rax, rdx and rcx
/// implicitly while the three parameters live in caller-saved registers.
Stmt divModShift(Context &C) {
  VSpec A = C.paramInt(0), B = C.paramInt(1), X = C.paramInt(2);
  Expr Sh = Expr(X) & C.intConst(7);
  return C.ret(Expr(A) / Expr(B) + Expr(A) % Expr(X) + (Expr(B) << Sh) +
               (Expr(A) >> (Expr(X) & C.intConst(3))) + Expr(A) * Expr(B) -
               Expr(X));
}

int divModShiftRef(int A, int B, int X) {
  auto U = [](int V) { return static_cast<std::uint32_t>(V); };
  std::uint32_t R = U(A / B) + U(A % X) + (U(B) << (X & 7)) +
                    U(A >> (X & 3)) + U(A) * U(B) - U(X);
  return static_cast<int>(R);
}

/// `int f(const int *p) { return (p[0] == 7 && p[4] > 3) || (p[1] == 9 &&
/// p[2] != 0) || p[3] < -5; }`: five compares, speculable, so ICODE plants
/// a page guard and a VCODE fallback in the same frame.
Stmt query(Context &C) {
  VSpec P = C.paramPtr(0);
  auto Field = [&](unsigned Off) {
    return C.loadMem(MemType::I32,
                     C.binary(BinOp::Add, Expr(P), C.longConst(Off)));
  };
  return C.ret((Field(0) == C.intConst(7) && Field(16) > C.intConst(3)) ||
               (Field(4) == C.intConst(9) && Field(8) != C.intConst(0)) ||
               Field(12) < C.intConst(-5));
}

int queryRef(const std::int32_t *P) {
  return (P[0] == 7 && P[4] > 3) || (P[1] == 9 && P[2] != 0) || P[3] < -5;
}

int helper(int X, int Y) { return X * 31 + Y; }

/// `int f(int x, int y) { return helper(x + 1, y) * 3 + x; }`
Stmt withCall(Context &C) {
  VSpec X = C.paramInt(0), Y = C.paramInt(1);
  Expr Call = C.callC(reinterpret_cast<const void *>(&helper), EvalType::Int,
                      {Expr(X) + C.intConst(1), Expr(Y)});
  return C.ret(Call * C.intConst(3) + Expr(X));
}

TEST(LeafPool, CallFreeFunctionWritesNoCalleeSavedRegister) {
  std::uint64_t Caller = counter(obs::names::PoolCallerSaved);
  std::uint64_t Callee = counter(obs::names::PoolCalleeSaved);
  Context C;
  CompiledFn F =
      compileFn(C, arith(C), EvalType::Int, opts(BackendKind::ICode));
  EXPECT_EQ(counter(obs::names::PoolCallerSaved), Caller + 1);
  EXPECT_EQ(counter(obs::names::PoolCalleeSaved), Callee);
  CodeFacts K = decode(F);
  ASSERT_TRUE(K.Decoded);
  EXPECT_EQ(K.CalleeSavedWrites, 0u);
  EXPECT_EQ(K.SaveStores, 0u);
  EXPECT_EQ(K.Nops, 0u) << "erased save sites left nop fill";
  auto *Fn = F.as<int(int, int, int)>();
  EXPECT_EQ(Fn(3, 4, 5), (3 + 4) * 5 - (3 ^ 5));
  EXPECT_EQ(Fn(-9, 2, 100), (-9 + 2) * 100 - (-9 ^ 100));

  // The same spec through VCODE keeps the callee-saved pool.
  Context D;
  CompiledFn V =
      compileFn(D, arith(D), EvalType::Int, opts(BackendKind::VCode));
  EXPECT_GT(decode(V).SaveStores, 0u);
}

TEST(LeafPool, QueryScanUsesOnlyCallerSavedRegisters) {
  apps::QueryApp Q(2000);
  CompiledFn F = Q.specialize(Q.benchmarkQuery(), opts(BackendKind::ICode));
  CodeFacts K = decode(F);
  ASSERT_TRUE(K.Decoded);
  EXPECT_EQ(K.CalleeSavedWrites, 0u);
  EXPECT_EQ(K.Nops, 0u);
  auto *Fn = F.as<int(const apps::Record *)>();
  int Count = 0;
  for (const apps::Record &R : Q.records())
    Count += Fn(&R);
  EXPECT_EQ(Count, Q.countStaticO2(Q.benchmarkQuery()));
}

TEST(LeafPool, FunctionWithACallKeepsItsBytes) {
  std::uint64_t Callee = counter(obs::names::PoolCalleeSaved);
  Context C;
  support::RelocTable Relocs;
  CompileOptions O = opts(BackendKind::ICode);
  O.Relocs = &Relocs;
  CompiledFn F = compileFn(C, withCall(C), EvalType::Int, O);
  EXPECT_EQ(counter(obs::names::PoolCalleeSaved), Callee + 1);
  EXPECT_EQ(F.as<int(int, int)>()(4, 6), helper(5, 6) * 3 + 4);
  // Masked reloc payloads make the bytes address-independent. The pinned
  // size and hash are those of the callee-saved emission this function had
  // before call-free bodies got their own pool.
  std::vector<std::uint8_t> Bytes(
      static_cast<const std::uint8_t *>(F.entry()),
      static_cast<const std::uint8_t *>(F.entry()) + F.stats().CodeBytes);
  for (const support::RelocEntry &E : Relocs.Entries)
    std::memset(Bytes.data() + E.Offset, 0, 8);
  EXPECT_EQ(Bytes.size(), 111u);
  EXPECT_EQ(support::hashBytes(Bytes.data(), Bytes.size()),
            5832395567436046199ull);
  CodeFacts K = decode(F);
  EXPECT_EQ(K.Calls, 1u);
  EXPECT_GT(K.SaveStores, 0u);
}

TEST(LeafPool, SixIntParamsInPermutedOrder) {
  // Each parameter's weight is distinct, and the body reads them out of
  // order, so the allocator's registers for them rarely match their
  // argument registers: the bindings must move as one parallel move.
  auto Ref = [](int A, int B, int Cc, int D, int Ee, int Ff) {
    return ((((Ff * 7 + Cc) * 5 + A) * 3 + Ee) * 11 + B) * 13 + D;
  };
  for (BackendKind B : {BackendKind::ICode, BackendKind::VCode}) {
    Context C;
    VSpec P[6];
    for (unsigned I = 0; I < 6; ++I)
      P[I] = C.paramInt(I);
    Expr E = ((((Expr(P[5]) * C.intConst(7) + Expr(P[2])) * C.intConst(5) +
                Expr(P[0])) *
                   C.intConst(3) +
               Expr(P[4])) *
                  C.intConst(11) +
              Expr(P[1])) *
                 C.intConst(13) +
             Expr(P[3]);
    CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, opts(B));
    auto *Fn = F.as<int(int, int, int, int, int, int)>();
    EXPECT_EQ(Fn(1, 2, 3, 4, 5, 6), Ref(1, 2, 3, 4, 5, 6)) << backendName(B);
    EXPECT_EQ(Fn(-6, 5, -4, 3, -2, 1), Ref(-6, 5, -4, 3, -2, 1))
        << backendName(B);
    EXPECT_TRUE(admit(F).ok()) << admit(F).render();
  }
}

TEST(LeafPool, BindArgsBreaksCyclesAndReadsStackArguments) {
  // arg0 <-> arg1 and arg4 <-> arg5 swap registers (two cycles), arg6
  // comes from the caller's stack, and the fifth value spills because the
  // pool saved no callee-saved register.
  CodeRegion Region(1 << 16);
  vcode::VCode V(Region.base(), 1 << 16);
  V.useCallerSavedPool(0);
  V.enter();
  vcode::Reg R[4];
  for (vcode::Reg &X : R)
    X = V.getreg(); // rdi, rsi, r8, r9
  vcode::Reg S = V.getreg();
  ASSERT_TRUE(vcode::VCode::isSpill(S));
  vcode::ArgBind Binds[] = {
      {0, R[1], false}, {1, R[0], false}, {4, R[3], false},
      {5, R[2], false}, {6, S, false}};
  V.bindArgs(Binds, 5);
  // 10000*arg6 + 1000*arg0 + 100*arg1 + 10*arg5 + arg4.
  vcode::Reg T = V.getreg();
  V.mulII(T, S, 10);
  V.addI(T, T, R[1]);
  V.mulII(T, T, 10);
  V.addI(T, T, R[0]);
  V.mulII(T, T, 10);
  V.addI(T, T, R[2]);
  V.mulII(T, T, 10);
  V.addI(T, T, R[3]);
  V.retI(T);
  void *Entry = V.finish();
  Region.makeExecutable();
  CodeFacts K = decode(Entry, V.codeBytes());
  EXPECT_EQ(K.CalleeSavedWrites, 0u);
  auto *Fn = reinterpret_cast<int (*)(int, int, int, int, int, int, int)>(
      Entry);
  EXPECT_EQ(Fn(1, 2, 3, 4, 5, 6, 7), 71265);
}

TEST(LeafPool, BindArgsIsAParallelMoveOnRandomBindings) {
  // Random parameter lists (six register and two stack integers, eight
  // doubles, each used or not) bound to random distinct pool registers or
  // spill slots of the caller-saved pool; every destination is then stored
  // to memory and checked against the argument it was bound from.
  using FnT = void(long, long, long, long, long, long, long, long, double,
                   double, double, double, double, double, double, double);
  std::uint32_t Seed = 12345;
  auto next = [&](std::uint32_t Bound) {
    Seed = Seed * 1664525u + 1013904223u;
    return (Seed >> 8) % Bound;
  };
  for (int Trial = 0; Trial < 300; ++Trial) {
    CodeRegion Region(1 << 16);
    vcode::VCode V(Region.base(), 1 << 16);
    V.useCallerSavedPool(0x1F); // rbx saved too: all five registers.
    V.enter();
    std::vector<vcode::ArgBind> Binds;
    bool IntTaken[5] = {}, FpTaken[12] = {};
    for (unsigned Fp = 0; Fp < 2; ++Fp)
      for (unsigned Index = 0; Index < 8; ++Index) {
        if (next(4) == 0)
          continue; // Unused parameter.
        unsigned Pool = Fp ? 12 : 5;
        bool *Taken = Fp ? FpTaken : IntTaken;
        bool Full = std::find(Taken, Taken + Pool, false) == Taken + Pool;
        int Dst;
        if (Full || next(5) == 0) {
          Dst = vcode::VCode::spillReg(V.allocSlot());
        } else {
          unsigned R = next(Pool);
          while (Taken[R])
            R = (R + 1) % Pool;
          Taken[R] = true;
          Dst = static_cast<int>(R);
        }
        Binds.push_back({Index, Dst, Fp == 1});
      }
    // Shuffle the binding order.
    for (std::size_t I = Binds.size(); I > 1; --I)
      std::swap(Binds[I - 1], Binds[next(static_cast<std::uint32_t>(I))]);
    V.bindArgs(Binds.data(), static_cast<unsigned>(Binds.size()));
    std::vector<std::uint64_t> Out(Binds.size());
    vcode::Reg Base = vcode::VCode::spillReg(V.allocSlot());
    V.setP(Base, Out.data());
    for (std::size_t K = 0; K < Binds.size(); ++K)
      Binds[K].Fp ? V.stD(Base, static_cast<std::int32_t>(8 * K), Binds[K].Dst)
                  : V.stL(Base, static_cast<std::int32_t>(8 * K), Binds[K].Dst);
    V.retVoid();
    void *Entry = V.finish();
    Region.makeExecutable();
    reinterpret_cast<FnT *>(Entry)(100, 101, 102, 103, 104, 105, 106, 107,
                                   0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5);
    for (std::size_t K = 0; K < Binds.size(); ++K) {
      if (Binds[K].Fp) {
        double D;
        std::memcpy(&D, &Out[K], 8);
        EXPECT_EQ(D, 0.5 + Binds[K].Index)
            << "trial " << Trial << " double arg " << Binds[K].Index;
      } else {
        EXPECT_EQ(Out[K], 100u + Binds[K].Index)
            << "trial " << Trial << " int arg " << Binds[K].Index;
      }
    }
  }
}

TEST(LeafPool, BindArgToItsOwnRegisterEmitsNoMove) {
  CodeRegion Region(1 << 16);
  vcode::VCode V(Region.base(), 1 << 16);
  V.useCallerSavedPool(0);
  V.enter();
  std::size_t Pc = V.codeBytes();
  vcode::Reg A = V.getreg(); // rdi
  V.bindArgI(0, A);
  EXPECT_EQ(V.codeBytes(), Pc) << "mov rdi, rdi was emitted";
  vcode::FReg D = V.getfreg(); // xmm4, the fifth double argument
  V.bindArgD(4, D);
  EXPECT_EQ(V.codeBytes(), Pc) << "movsd xmm4, xmm4 was emitted";
  vcode::Reg B = V.getreg(); // rsi, bound from rdx
  V.bindArgI(2, B);
  const auto *Code = static_cast<const std::uint8_t *>(Region.base());
  ASSERT_EQ(V.codeBytes(), Pc + 3);
  EXPECT_EQ(Code[Pc], 0x48); // mov rsi, rdx
  EXPECT_EQ(Code[Pc + 1], 0x8B);
  EXPECT_EQ(Code[Pc + 2], 0xF2);
  V.addI(A, A, B);
  V.retI(A);
  void *Entry = V.finish();
  Region.makeExecutable();
  EXPECT_EQ(reinterpret_cast<int (*)(int, int, int)>(Entry)(30, 0, 12), 42);
}

TEST(LeafPool, FiveDoubleParamsBindWithoutClobbering) {
  // The fifth double argument arrives in xmm4, the float pool's first
  // register: the first binding must not overwrite it before it is read.
  // (VCODE's one-by-one bindings did, and returned 4326 here.)
  for (BackendKind B : {BackendKind::ICode, BackendKind::VCode}) {
    Context C;
    VSpec P[5];
    for (unsigned I = 0; I < 5; ++I)
      P[I] = C.paramDouble(I);
    Expr E = Expr(P[0]) + C.doubleConst(2) * Expr(P[1]) +
             C.doubleConst(3) * Expr(P[2]) + C.doubleConst(4) * Expr(P[3]) +
             C.doubleConst(5) * Expr(P[4]);
    CompiledFn F = compileFn(C, C.ret(E), EvalType::Double, opts(B));
    auto *Fn = F.as<double(double, double, double, double, double)>();
    EXPECT_EQ(Fn(1, 10, 100, 1000, 10000), 1 + 20 + 300 + 4000 + 50000.0)
        << backendName(B);
  }
}

TEST(LeafPool, DivModAndVariableShiftAgreeWithVCodeAndHost) {
  Context CI, CV;
  CompiledFn I = compileFn(CI, divModShift(CI), EvalType::Int,
                           opts(BackendKind::ICode));
  CompiledFn V = compileFn(CV, divModShift(CV), EvalType::Int,
                           opts(BackendKind::VCode));
  CodeFacts K = decode(I);
  EXPECT_EQ(K.CalleeSavedWrites, K.RbxWrites) << "r12..r15 written";
  EXPECT_EQ(K.SaveStores, K.RbxWrites ? 1u : 0u);
  auto *FI = I.as<int(int, int, int)>();
  auto *FV = V.as<int(int, int, int)>();
  const int Vals[] = {1, -1, 2, 3, -7, 9, 100, -1000, 65537, INT_MAX};
  for (int A : Vals)
    for (int B : Vals)
      for (int X : Vals) {
        int Want = divModShiftRef(A, B, X);
        EXPECT_EQ(FI(A, B, X), Want) << A << " " << B << " " << X;
        EXPECT_EQ(FV(A, B, X), Want) << A << " " << B << " " << X;
      }
  EXPECT_TRUE(admit(I).ok()) << admit(I).render();
}

/// Two pages, the second PROT_NONE.
struct GuardPages {
  std::size_t Page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::uint8_t *Base = nullptr;

  GuardPages() {
    void *M = mmap(nullptr, 2 * Page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(M, MAP_FAILED);
    Base = static_cast<std::uint8_t *>(M);
    EXPECT_EQ(mprotect(Base + Page, Page, PROT_NONE), 0);
  }
  ~GuardPages() { munmap(Base, 2 * Page); }
};

TEST(LeafPool, PageGuardedQueryAgreesAroundAProtNonePage) {
  Context CI, CV;
  CompiledFn I = compileFn(CI, query(CI), EvalType::Int,
                           opts(BackendKind::ICode));
  CompiledFn V = compileFn(CV, query(CV), EvalType::Int,
                           opts(BackendKind::VCode));
  CodeFacts K = decode(I);
  ASSERT_TRUE(K.Decoded);
  ASSERT_GT(K.Leas, 0u) << "the query compiled without a page guard";
  EXPECT_EQ(K.CalleeSavedWrites, 0u) << "body or fallback left the pool";
  auto *FI = I.as<int(const std::int32_t *)>();
  auto *FV = V.as<int(const std::int32_t *)>();
  GuardPages G;
  // Records whose first Readable bytes end the readable page. Field
  // values are chosen so that neither order reads past Readable: p[4]
  // (offset 16) only when p[0] == 7, p[2] only when p[1] == 9, p[3] only
  // after both chains fail.
  for (std::size_t Readable : {4u, 8u, 12u, 16u, 20u, 24u, 64u}) {
    auto *R = reinterpret_cast<std::int32_t *>(G.Base + G.Page - Readable);
    std::size_t Fields = Readable / 4;
    for (std::int32_t First : {7, 5})
      for (std::int32_t Second : {9, 0}) {
        std::int32_t Full[5] = {First, Second, 1, -9, 4};
        // The fields short-circuit order reaches, in order.
        std::size_t Need = First == 7 ? 5 : (Second == 9 ? 3 : 4);
        if (Need > Fields)
          continue;
        std::memcpy(R, Full, 4 * std::min<std::size_t>(Fields, 5));
        int Want = queryRef(Full);
        EXPECT_EQ(FI(R), Want) << "readable " << Readable;
        EXPECT_EQ(FV(R), Want) << "readable " << Readable;
      }
  }
  EXPECT_TRUE(admit(I).ok()) << admit(I).render();
}

/// A fresh snapshot directory, removed with its contents afterwards.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/tickc_leafpool_XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    if (DIR *D = opendir(Path.c_str())) {
      while (dirent *E = readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

TEST(LeafPool, AdmittedAndRoundTripThroughASnapshot) {
  using Build = Stmt (*)(Context &);
  const Build Specs[] = {&arith, &divModShift, &query};
  TempDir Dir;
  cache::ServiceConfig Cfg;
  Cfg.SnapshotDir = Dir.Path;
  CompileOptions O = opts(BackendKind::ICode);
  std::int32_t Rec[5] = {7, 9, 1, -9, 4};
  auto run = [&](const cache::FnHandle &H, unsigned K) {
    return K < 2 ? H->as<int(int, int, int)>()(17, 3, 5)
                 : H->as<int(const std::int32_t *)>()(Rec);
  };
  int Want[3];
  {
    cache::CompileService Cold(Cfg);
    for (unsigned K = 0; K < 3; ++K) {
      Context C;
      cache::FnHandle H = Cold.getOrCompile(C, Specs[K](C), EvalType::Int, O);
      EXPECT_TRUE(admit(*H).ok()) << admit(*H).render();
      Want[K] = run(H, K);
    }
    EXPECT_EQ(Cold.snapshot()->stats().Saves, 3u);
  }
  cache::CompileService Warm(Cfg);
  for (unsigned K = 0; K < 3; ++K) {
    Context C;
    cache::FnHandle H = Warm.getOrCompile(C, Specs[K](C), EvalType::Int, O);
    EXPECT_TRUE(H->fromSnapshot()) << "spec " << K;
    EXPECT_EQ(decode(*H).CalleeSavedWrites, K == 1 ? decode(*H).RbxWrites : 0u);
    EXPECT_EQ(run(H, K), Want[K]) << "spec " << K;
  }
  EXPECT_EQ(Warm.snapshot()->stats().Hits, 3u);
  EXPECT_EQ(Warm.snapshot()->stats().Rejects, 0u);
}

} // namespace
