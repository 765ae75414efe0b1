//===- tests/tier0_test.cpp - Interpreter tier-0 tests --------------------===//
//
// Covers the interpreted tier (src/core/SpecInterp + the tier-0 half of
// src/tier): zero-latency slot creation answering from the spec-tree
// interpreter, the background baseline compile and entry swap, synchronous
// fallbacks (tier 0 disabled, uninterpretable specs, full queue), the
// execution profile (trip counts, roll/unroll decisions, the SpecKey
// digest), profile-directed unrolling in the optimizing compile, and an
// 8-thread swap-race stress (run under -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "cache/CompileService.h"
#include "cache/SpecKey.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "core/SpecInterp.h"
#include "observability/Events.h"
#include "tier/Tier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;
using namespace tcc::tier;

namespace {

TierConfig config(std::uint64_t Threshold, unsigned Workers = 1) {
  TierConfig TC;
  TC.Workers = Workers;
  TC.PromoteThreshold = Threshold;
  return TC;
}

/// `f(x) = N * x`, computed by an N-trip counting loop — the shape whose
/// trip count the tier-0 profile measures.
Stmt buildLoopSpec(Context &C, int N) {
  VSpec X = C.paramInt(0);
  VSpec Acc = C.localInt();
  VSpec I = C.localInt();
  return C.block({C.assign(Acc, C.intConst(0)),
                  C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS,
                            C.intConst(N), C.intConst(1),
                            C.assign(Acc, Expr(Acc) + Expr(X))),
                  C.ret(Expr(Acc))});
}

SpecBuild loopBuild(int N) {
  return [N](Context &C) { return buildLoopSpec(C, N); };
}

// --- Slot lifecycle ----------------------------------------------------------

TEST(Tier0, SlotBornInterpretedThenSwapsToBaseline) {
  CompileService S;
  TierManager TM(config(1 << 20)); // Promotion out of the picture.
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(16), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_TRUE(TF->isTier0());

  // The slot answers immediately — interpreted or compiled, whichever tier
  // the background race has reached — and always correctly.
  EXPECT_EQ(TF->call<int(int)>(3), 48);
  EXPECT_EQ(TF->call<int(int)>(-2), -32);

  // The baseline lands without any further calls; the swap is observable.
  ASSERT_TRUE(TF->waitCompiled());
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_GT(TF->tier0SwapNanos(), 0u);
  FnHandle H = TF->handle();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->as<int(int)>()(3), 48);
  EXPECT_EQ(TF->call<int(int)>(5), 80);
}

TEST(Tier0, DisabledCreatesBaselineSynchronously) {
  ServiceConfig Cfg;
  Cfg.EnableTier0 = false;
  CompileService S(Cfg);
  TierManager TM(config(1 << 20));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(16), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  // Pre-tier-0 behavior: machine code exists before getOrCompileTiered
  // returns.
  EXPECT_FALSE(TF->isTier0());
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_TRUE(TF->handle());
  EXPECT_EQ(TF->tier0SwapNanos(), 0u);
  EXPECT_EQ(TF->call<int(int)>(3), 48);
}

TEST(Tier0, UninterpretableSpecFallsBackSynchronously) {
  CompileService S;
  TierManager TM(config(1 << 20));
  // Dynamic labels are outside the interpreter's subset: the slot must be
  // born with a synchronously compiled baseline instead.
  TieredFnHandle TF = S.getOrCompileTiered(
      [](Context &C) {
        VSpec X = C.paramInt(0);
        VSpec A = C.localInt();
        DynLabel L = C.newLabel();
        return C.block({C.assign(A, Expr(X) + C.intConst(1)),
                        C.gotoLabel(L), C.assign(A, C.intConst(0)),
                        C.labelHere(L), C.ret(Expr(A))});
      },
      EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_FALSE(TF->isTier0());
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->call<int(int)>(41), 42);
}

TEST(Tier0, QueueFullFallsBackToSynchronousBaseline) {
  TierConfig TC = config(1 << 20);
  TC.QueueCapacity = 0; // The background compile can never be enqueued.
  CompileService S;
  TierManager TM(TC);
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(8), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  // The slot still counts as tier 0 but never hands out an interpreted
  // call: the creator compiled the baseline itself rather than strand the
  // slot on the interpreter forever.
  EXPECT_TRUE(TF->compiled());
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_EQ(TF->call<int(int)>(4), 32);
}

TEST(Tier0, PromotesThroughAllThreeTiers) {
  CompileService S;
  TierManager TM(config(16, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(24), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_TRUE(TF->isTier0());
  // Cross the promotion threshold while the slot may still be interpreted:
  // the trigger must carry across the baseline swap, not reset.
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 48);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->state(), TierState::Promoted);
  EXPECT_EQ(TF->handle()->backend(), BackendKind::ICode);
  EXPECT_EQ(TF->handle()->profile(), nullptr);
  EXPECT_EQ(TF->call<int(int)>(2), 48);
}

// --- Execution profile -------------------------------------------------------

TEST(Tier0, ProfileMeasuresTripCountsAndDecides) {
  // Small loop: measured MaxTrip bounds the unroll. Large loop: past the
  // cutoff, the decision is to roll.
  {
    Context C;
    Stmt Body = buildLoopSpec(C, 12);
    ASSERT_TRUE(specInterpretable(C, Body, EvalType::Int));
    Tier0Profile P;
    SpecInterp Interp(C, Body, EvalType::Int, &P);
    std::int64_t A = 7;
    InterpResult R = Interp.run(&A, 1, nullptr, 0);
    EXPECT_EQ(R.I, 84);
    ASSERT_EQ(P.NumLoops, 1u);
    EXPECT_EQ(P.Loops[0].Entries.load(), 1u);
    EXPECT_EQ(P.Loops[0].MaxTrip.load(), 12u);
    Tier0ProfileSnapshot Snap = snapshotTier0(P);
    ASSERT_EQ(Snap.NumLoops, 1u);
    EXPECT_EQ(Snap.Decision[0], 2u); // Unroll, bounded by the measurement.
    EXPECT_EQ(Snap.MaxTrip[0], 12u);
  }
  {
    Context C;
    Stmt Body = buildLoopSpec(C, 4096); // Past Tier0Profile::UnrollCutoff.
    Tier0Profile P;
    SpecInterp Interp(C, Body, EvalType::Int, &P);
    std::int64_t A = 1;
    EXPECT_EQ(Interp.run(&A, 1, nullptr, 0).I, 4096);
    Tier0ProfileSnapshot Snap = snapshotTier0(P);
    ASSERT_EQ(Snap.NumLoops, 1u);
    EXPECT_EQ(Snap.Decision[0], 1u); // Roll: unrolling 4096 copies loses.
  }
  {
    // Unobserved loops keep the static heuristic.
    Context C;
    Stmt Body = buildLoopSpec(C, 8);
    Tier0Profile P;
    SpecInterp Interp(C, Body, EvalType::Int, &P);
    Tier0ProfileSnapshot Snap = snapshotTier0(P); // No run() first.
    ASSERT_EQ(Snap.NumLoops, 1u);
    EXPECT_EQ(Snap.Decision[0], 0u);
  }
}

TEST(Tier0, TripProfileDigestEntersSpecKey) {
  Context C;
  Stmt Body = buildLoopSpec(C, 8);
  CompileOptions Plain;
  SpecKey KPlain = buildSpecKey(C, Body, EvalType::Int, Plain);

  Tier0ProfileSnapshot Snap;
  Snap.NumLoops = 1;
  Snap.Decision[0] = 2;
  Snap.MaxTrip[0] = 8;
  CompileOptions Prof = Plain;
  Prof.TripProfile = &Snap;
  SpecKey KProf = buildSpecKey(C, Body, EvalType::Int, Prof);
  // A profiled compile must never alias the unprofiled one in the cache.
  EXPECT_FALSE(KPlain == KProf);

  // And two different decisions are two different keys.
  Tier0ProfileSnapshot Roll = Snap;
  Roll.Decision[0] = 1;
  CompileOptions ProfRoll = Plain;
  ProfRoll.TripProfile = &Roll;
  SpecKey KRoll = buildSpecKey(C, Body, EvalType::Int, ProfRoll);
  EXPECT_FALSE(KProf == KRoll);
}

TEST(Tier0, ProfiledRollDecisionChangesGeneratedCode) {
  // A 64-trip constant loop unrolls under the static heuristic
  // (UnrollLimit defaults far above 64). A profile that says "roll" must
  // override it and produce the compact runtime-loop body instead.
  Context C;
  Stmt Body = buildLoopSpec(C, 64);
  CompileOptions Static;
  Static.Backend = BackendKind::ICode;
  CompiledFn FStatic = compileFn(C, Body, EvalType::Int, Static);
  ASSERT_TRUE(FStatic.valid());

  Tier0ProfileSnapshot Snap;
  Snap.NumLoops = 1;
  Snap.Decision[0] = 1; // Roll.
  CompileOptions Profiled = Static;
  Profiled.TripProfile = &Snap;
  CompiledFn FProf = compileFn(C, Body, EvalType::Int, Profiled);
  ASSERT_TRUE(FProf.valid());

  EXPECT_EQ(FStatic.as<int(int)>()(3), 192);
  EXPECT_EQ(FProf.as<int(int)>()(3), 192);
  // The rolled body is the measurably smaller one.
  EXPECT_LT(FProf.stats().CodeBytes, FStatic.stats().CodeBytes);
}

TEST(Tier0, SlotProfileFeedsThePromotedCompile) {
  ServiceConfig Cfg; // Tier 0 + profiling on by default.
  CompileService S(Cfg);
  TierManager TM(config(8, 2));
  TieredFnHandle TF = S.getOrCompileTiered(loopBuild(4096), EvalType::Int,
                                           CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  ASSERT_TRUE(TF->isTier0());
  ASSERT_NE(TF->tier0Profile(), nullptr);

  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(TF->call<int(int)>(1), 4096);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(1), 4096);

  // Whatever mix of interpreted and compiled calls got us here, any
  // interpreted entry recorded the true trip count, and the frozen
  // decision for a 4096-trip loop is "roll".
  const Tier0Profile *P = TF->tier0Profile();
  if (P->Loops[0].Entries.load() > 0) {
    EXPECT_EQ(P->Loops[0].MaxTrip.load(), 4096u);
    EXPECT_EQ(snapshotTier0(*P).Decision[0], 1u);
  }
}

TEST(Tier0, ProfileDisabledSlotStillWorks) {
  ServiceConfig Cfg;
  Cfg.EnableTier0Profile = false;
  CompileService S(Cfg);
  TierManager TM(config(8, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(32), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  EXPECT_TRUE(TF->isTier0());
  EXPECT_EQ(TF->tier0Profile(), nullptr);
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 64);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->call<int(int)>(2), 64);
}

// --- Environment knobs -------------------------------------------------------

TEST(Tier0, EnvKnobsReachServiceConfig) {
  ASSERT_EQ(setenv("TICKC_TIER0", "0", 1), 0);
  ASSERT_EQ(setenv("TICKC_TIER0_PROFILE", "0", 1), 0);
  ASSERT_EQ(setenv("TICKC_SNAPSHOT_BUDGET", "12345", 1), 0);
  ServiceConfig C = ServiceConfig::fromEnv();
  EXPECT_FALSE(C.EnableTier0);
  EXPECT_FALSE(C.EnableTier0Profile);
  EXPECT_EQ(C.SnapshotBudgetBytes, 12345u);
  ASSERT_EQ(setenv("TICKC_TIER0", "1", 1), 0);
  ASSERT_EQ(setenv("TICKC_TIER0_PROFILE", "1", 1), 0);
  ServiceConfig D = ServiceConfig::fromEnv();
  EXPECT_TRUE(D.EnableTier0);
  EXPECT_TRUE(D.EnableTier0Profile);
  unsetenv("TICKC_TIER0");
  unsetenv("TICKC_TIER0_PROFILE");
  unsetenv("TICKC_SNAPSHOT_BUDGET");
}

TEST(Tier0, SlotCreationRecordsOneFingerprintSpan) {
  // The slot's key walk is the only one the creating thread makes, and it
  // is attributed: buildSpecKey records the span itself, so the walk shows
  // up whichever front door took it.
  CompileService S;
  TierManager TM(config(1 << 20)); // Promotion out of the picture.
  obs::EventRing &Ring = obs::EventRing::global();
  std::uint64_t From = Ring.eventCount();
  obs::traceStart(nullptr);
  // Tags this thread in the ring, to tell its spans from the worker's.
  obs::recordEvent(obs::EventKind::CompileBegin, 0, 0, "fingerprint-caller");
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(19), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  ASSERT_TRUE(TF->waitCompiled());
  ASSERT_TRUE(obs::traceStopTo(nullptr));
  EXPECT_NE(TF->state(), TierState::Promoted);

  std::vector<obs::EventRing::Record> Records = Ring.snapshot(From);
  std::uint32_t Caller = 0;
  for (const obs::EventRing::Record &R : Records)
    if (R.Kind == obs::EventKind::CompileBegin &&
        std::string(R.Name) == "fingerprint-caller")
      Caller = R.Tid;
  ASSERT_NE(Caller, 0u);
  unsigned Walks = 0;
  for (const obs::EventRing::Record &R : Records)
    if (R.Kind == obs::EventKind::SpecFingerprint && R.Tid == Caller)
      ++Walks;
  EXPECT_EQ(Walks, 1u);
}

// --- Concurrency -------------------------------------------------------------

TEST(Tier0, ConcurrentCallersAcrossBothSwaps) {
  // 8 threads hammer the slot from its interpreted birth through the
  // baseline swap and the ICODE promotion. Run under TSan in CI: the
  // Entry null -> baseline transition is the newest race surface.
  CompileService S;
  TierManager TM(config(256, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(16), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);

  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 4000 && !Stop.load(); ++I) {
        int X = static_cast<int>(1 + (T + I) % 7);
        if (TF->call<int(int)>(X) != 16 * X)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  bool Promoted = TF->waitPromoted();
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_TRUE(Promoted);
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(TF->handle()->backend(), BackendKind::ICode);
  EXPECT_EQ(TF->handle()->profile(), nullptr);
}

TEST(Tier0, ManyFreshSlotsUnderConcurrentLoad) {
  // Distinct specs churn the queue while callers race each slot's own
  // swaps — the manager's worker pool and the per-slot state machines must
  // not interfere across slots.
  CompileService S;
  TierManager TM(config(32, 2));
  constexpr unsigned NumSlots = 12;
  std::vector<TieredFnHandle> Slots;
  for (unsigned N = 0; N < NumSlots; ++N)
    Slots.push_back(S.getOrCompileTiered(loopBuild(static_cast<int>(N + 1)),
                                         EvalType::Int, CompileOptions(),
                                         &TM));
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I < 2000; ++I) {
        unsigned Slot = (T + I) % NumSlots;
        if (Slots[Slot]->call<int(int)>(3) !=
            3 * static_cast<int>(Slot + 1))
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  // Every slot ends with machine code installed (swap or sync fallback).
  for (TieredFnHandle &TF : Slots)
    EXPECT_TRUE(TF->waitCompiled());
}

} // namespace
