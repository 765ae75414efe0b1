//===- tests/predicate_test.cpp - Branch-free predicates and the page guard ===//
//
// ICODE lowers a speculable &&/||/! tree in value context without branches,
// which executes loads the short-circuit order would skip. The entry page
// guard sends a call whose speculated loads would leave the page of the
// predicate's first load to the short-circuit VCODE twin. These tests put a
// record at the end of a readable page, in front of a PROT_NONE page, and
// check that speculation never reads a page the short-circuit order would
// not read: the twin answers without a fault when the far field is never
// reached, and the process dies exactly as VCODE's does when it is.
//
//===----------------------------------------------------------------------===//

#include "core/Compile.h"
#include "core/Context.h"
#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/Profile.h"
#include "verify/Verify.h"
#include "x86/X86Decoder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::core;

namespace {

/// Two pages, the second PROT_NONE unless \p Guarded is false.
struct GuardPages {
  std::size_t Page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::uint8_t *Base = nullptr;

  explicit GuardPages(bool Guarded = true) {
    void *M = mmap(nullptr, 2 * Page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(M, MAP_FAILED);
    Base = static_cast<std::uint8_t *>(M);
    if (Guarded)
      EXPECT_EQ(mprotect(Base + Page, Page, PROT_NONE), 0);
  }
  ~GuardPages() { munmap(Base, 2 * Page); }

  /// A record whose first \p Readable bytes end the readable page.
  std::int32_t *record(std::size_t Readable) {
    return reinterpret_cast<std::int32_t *>(Base + Page - Readable);
  }
};

/// `int f(const int *p) { return (p[0] == 7 && p[4] > 3) || p[1] == 9; }`:
/// the load of p[4] at +16 is the one the short-circuit order skips when
/// p[0] != 7. No leaf decides the tree alone, so ICODE keeps no branch.
CompiledFn compilePredicate(BackendKind B, bool Profile = false) {
  Context C;
  VSpec P = C.paramPtr(0);
  auto Field = [&](unsigned Off) {
    return C.loadMem(MemType::I32,
                     C.binary(BinOp::Add, Expr(P), C.longConst(Off)));
  };
  Expr E = (Field(0) == C.intConst(7) && Field(16) > C.intConst(3)) ||
           Field(4) == C.intConst(9);
  CompileOptions O;
  O.Backend = B;
  O.Profile = Profile;
  O.Name = Profile ? "predicate.prof" : nullptr;
  return compileFn(C, C.ret(E), EvalType::Int, O);
}

std::uint64_t counter(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name).value();
}

/// Offset of the fallback the page guard after the prologue branches to,
/// or 0 if the function has no guard; \p Jccs counts the conditional
/// branches before the fallback.
std::size_t twinOffset(const CompiledFn &F, unsigned &Jccs) {
  const auto *Code = static_cast<const std::uint8_t *>(F.entry());
  std::size_t Size = F.stats().CodeBytes, Twin = 0;
  bool Guarded = false;
  Jccs = 0;
  x86::Decoded D;
  for (std::size_t Off = 0; Off < Size && (!Twin || Off < Twin);) {
    if (x86::decodeOne(Code, Size, Off, D) != x86::DecodeStatus::Ok)
      return 0;
    Off += D.Len;
    Guarded |= D.Cls == x86::InstrClass::Lea;
    if (D.Cls != x86::InstrClass::Jcc)
      continue;
    ++Jccs;
    if (!Twin)
      Twin = Off + static_cast<std::size_t>(D.Rel32);
  }
  return Guarded ? Twin : 0;
}

TEST(BranchFreePredicate, IcodeBodyHasNoBranchBesidesTheGuard) {
  std::uint64_t Before = counter(obs::names::PredicatesBranchFree);
  CompiledFn F = compilePredicate(BackendKind::ICode);
  EXPECT_EQ(counter(obs::names::PredicatesBranchFree), Before + 1);
  unsigned Jccs = 0;
  std::size_t Twin = twinOffset(F, Jccs);
  ASSERT_GT(Twin, 0u) << "speculating compile has no page guard";
  EXPECT_LT(Twin, F.stats().CodeBytes);
  EXPECT_EQ(Jccs, 1u) << "the guarded ICODE body still branches";
  // VCODE keeps the short-circuit chain and no guard.
  CompiledFn G = compilePredicate(BackendKind::VCode);
  unsigned J = 0;
  EXPECT_EQ(twinOffset(G, J), 0u);
}

TEST(BranchFreePredicate, DecisiveFirstLeafKeepsTheChain) {
  // `p[0] == 7 && p[4] > 3`: p[0] decides the tree alone when false, so
  // ICODE keeps the short-circuit chain and plants no guard.
  Context C;
  VSpec P = C.paramPtr(0);
  Expr E = C.loadMem(MemType::I32, Expr(P)) == C.intConst(7) &&
           C.loadMem(MemType::I32,
                     C.binary(BinOp::Add, Expr(P), C.longConst(16))) >
               C.intConst(3);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  std::uint64_t Before = counter(obs::names::PredicatesDeclined);
  std::uint64_t From = obs::EventRing::global().eventCount();
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, O);
  EXPECT_EQ(counter(obs::names::PredicatesDeclined), Before + 1);
  bool Saw = false;
  for (const obs::EventRing::Record &R : obs::EventRing::global().snapshot(From))
    Saw |= R.Kind == obs::EventKind::PredicateDeclined &&
           std::strcmp(R.Name, "decisive") == 0;
  EXPECT_TRUE(Saw) << "no predicate.declined event naming decisive";
  unsigned Jccs = 0;
  EXPECT_EQ(twinOffset(F, Jccs), 0u);
  GuardPages G;
  std::int32_t *R = G.record(8);
  R[0] = 5;
  EXPECT_EQ(F.as<int(const std::int32_t *)>()(R), 0); // p[4] is never read.
}

TEST(BranchFreePredicate, AgreesOnRecordsAroundAPageBoundary) {
  GuardPages G(/*Guarded=*/false);
  CompiledFn I = compilePredicate(BackendKind::ICode);
  CompiledFn V = compilePredicate(BackendKind::VCode);
  auto *FI = I.as<int(const void *)>();
  auto *FV = V.as<int(const void *)>();
  // Both pages readable: every placement within 64 bytes of the boundary,
  // on the fast path (span inside one page) and on the twin (span across).
  for (std::size_t Readable = 1; Readable <= 84; ++Readable) {
    auto *R = reinterpret_cast<std::uint8_t *>(G.record(Readable));
    for (std::int32_t First : {7, 5})
      for (std::int32_t Far : {4, 3, INT32_MIN})
        for (std::int32_t Second : {9, 0}) {
          std::memcpy(R, &First, 4);
          std::memcpy(R + 4, &Second, 4);
          std::memcpy(R + 16, &Far, 4);
          int Want = (First == 7 && Far > 3) || Second == 9;
          EXPECT_EQ(FI(R), Want) << "readable " << Readable;
          EXPECT_EQ(FV(R), Want) << "readable " << Readable;
        }
  }
}

TEST(BranchFreePredicate, StraddleNeverReadsTheSkippedField) {
  GuardPages G;
  CompiledFn I = compilePredicate(BackendKind::ICode);
  // p[0] and p[1] are readable, p[4] sits in the PROT_NONE page. The
  // short-circuit order never reads it when p[0] != 7; neither may the
  // speculated body.
  for (std::size_t Readable : {8, 12, 16}) {
    std::int32_t *R = G.record(Readable);
    R[0] = 5;
    R[1] = 9;
    EXPECT_EQ(I.as<int(const std::int32_t *)>()(R), 1);
    R[1] = 0;
    EXPECT_EQ(I.as<int(const std::int32_t *)>()(R), 0);
  }
}

TEST(BranchFreePredicateDeathTest, StraddleThatReadsTheFarFieldFaults) {
  GuardPages G;
  std::int32_t *R = G.record(8);
  R[0] = 7; // The short-circuit order goes on to read p[4].
  CompiledFn V = compilePredicate(BackendKind::VCode);
  CompiledFn I = compilePredicate(BackendKind::ICode);
  EXPECT_DEATH(V.as<int(const std::int32_t *)>()(R), "");
  EXPECT_DEATH(I.as<int(const std::int32_t *)>()(R), "");
}

TEST(BranchFreePredicate, ProfiledVersionedFunctionCountsOncePerCall) {
  GuardPages G;
  CompiledFn F = compilePredicate(BackendKind::ICode, /*Profile=*/true);
  ASSERT_NE(F.profile(), nullptr);
  auto *Fn = F.as<int(const std::int32_t *)>();
  std::int32_t *Straddle = G.record(8), *Inside = G.record(64);
  Straddle[0] = 5;
  Straddle[1] = 0;
  Inside[0] = 7;
  Inside[4] = 9;
  for (int K = 0; K < 3; ++K)
    EXPECT_EQ(Fn(Straddle), 0); // Twin path.
  for (int K = 0; K < 4; ++K)
    EXPECT_EQ(Fn(Inside), 1); // Guarded ICODE path.
  EXPECT_EQ(F.profile()->Invocations.load(), 7u);
}

TEST(BranchFreePredicate, VersionedFunctionIsAdmitted) {
  for (bool Profile : {false, true}) {
    CompiledFn F = compilePredicate(BackendKind::ICode, Profile);
    verify::AdmissionInputs AI;
    AI.Code = static_cast<const std::uint8_t *>(F.entry());
    AI.Size = F.stats().CodeBytes;
    AI.ProfileCounter = Profile ? &F.profile()->Invocations : nullptr;
    AI.ExpectProfile = Profile;
    AI.ICodeFacts = true;
    verify::Result R = verify::verifyAdmission(AI);
    EXPECT_TRUE(R.ok()) << R.render();
  }
}

TEST(BranchFreePredicate, SpanPastTheCapIsDeclined) {
  // (p[0] == 1 || p[1] == 3) && p[k] == 2 speculates [p, p + 4k + 4): 48
  // bytes at k = 11, the widest span a guard covers, and 52 at k = 12.
  for (unsigned K : {11u, 12u}) {
    Context C;
    VSpec P = C.paramPtr(0);
    auto Field = [&](unsigned Off) {
      return C.loadMem(MemType::I32,
                       C.binary(BinOp::Add, Expr(P), C.longConst(Off)));
    };
    Expr E = (Field(0) == C.intConst(1) || Field(4) == C.intConst(3)) &&
             Field(4 * K) == C.intConst(2);
    CompileOptions O;
    O.Backend = BackendKind::ICode;
    std::uint64_t From = obs::EventRing::global().eventCount();
    CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, O);
    bool Saw = false;
    for (const obs::EventRing::Record &R :
         obs::EventRing::global().snapshot(From))
      Saw |= R.Kind == obs::EventKind::PredicateDeclined &&
             std::strcmp(R.Name, "span") == 0;
    unsigned J = 0;
    EXPECT_EQ(Saw, K == 12) << "k = " << K;
    EXPECT_EQ(twinOffset(F, J) != 0, K == 11) << "k = " << K;
    std::int32_t Rec[13] = {1};
    Rec[K] = 2;
    EXPECT_EQ(F.as<int(const std::int32_t *)>()(Rec), 1);
  }
}

TEST(BranchFreePredicate, DeclinedShapesKeepTheChainAndSayWhy) {
  // Two bases: (p[0] == 1 || p[0] == 3) && q[0] == 2 would speculate a
  // load off q.
  Context C;
  VSpec P = C.paramPtr(0), Q = C.paramPtr(1);
  Expr E = (C.loadMem(MemType::I32, Expr(P)) == C.intConst(1) ||
            C.loadMem(MemType::I32, Expr(P)) == C.intConst(3)) &&
           C.loadMem(MemType::I32, Expr(Q)) == C.intConst(2);
  CompileOptions O;
  O.Backend = BackendKind::ICode;
  std::uint64_t Declined = counter(obs::names::PredicatesDeclined);
  std::uint64_t From = obs::EventRing::global().eventCount();
  CompiledFn F = compileFn(C, C.ret(E), EvalType::Int, O);
  EXPECT_EQ(counter(obs::names::PredicatesDeclined), Declined + 1);
  bool Saw = false;
  for (const obs::EventRing::Record &R : obs::EventRing::global().snapshot(From))
    Saw |= R.Kind == obs::EventKind::PredicateDeclined &&
           std::strcmp(R.Name, "second-base") == 0;
  EXPECT_TRUE(Saw) << "no predicate.declined event naming second-base";
  unsigned J = 0;
  EXPECT_EQ(twinOffset(F, J), 0u) << "a declined predicate needs no guard";
  std::int32_t A = 1, B = 2, Z = 0;
  auto *Fn = F.as<int(const std::int32_t *, const std::int32_t *)>();
  EXPECT_EQ(Fn(&A, &B), 1);
  EXPECT_EQ(Fn(&A, &Z), 0);
  EXPECT_EQ(Fn(&Z, nullptr), 0); // The chain never reads q.
}

} // namespace
