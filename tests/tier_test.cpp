//===- tests/tier_test.cpp - Tiered compilation tests ---------------------===//
//
// Covers the baseline-first / background-ICODE promotion path (src/tier):
// a slot born on machine code, dispatch-slot correctness across the swap
// for every app adapter, slot memoization, uncacheable-spec tiering, the
// one key walk of slot creation, queue-full backoff, shutdown with pending
// requests, worker wakeups beside the sample watcher, retirement of the
// superseded baseline at slot death, and multi-threaded stress from slot
// birth through promotion, across many fresh slots and under cache-eviction
// churn (run under -fsanitize=thread in CI).
//
//===----------------------------------------------------------------------===//

#include "apps/DotProduct.h"
#include "apps/Hash.h"
#include "apps/Marshal.h"
#include "apps/Power.h"
#include "apps/Query.h"
#include "cache/CompileService.h"
#include "core/Context.h"
#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "tier/Tier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
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

/// `f(x) = N * x`, computed by an N-trip counting loop.
SpecBuild loopBuild(int N) {
  return [N](Context &C) {
    VSpec X = C.paramInt(0);
    VSpec Acc = C.localInt();
    VSpec I = C.localInt();
    return C.block({C.assign(Acc, C.intConst(0)),
                    C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS,
                              C.intConst(N), C.intConst(1),
                              C.assign(Acc, Expr(Acc) + Expr(X))),
                    C.ret(Expr(Acc))});
  };
}

/// Drives \p TF across the promotion threshold with \p Call until the swap
/// lands (or 10 s pass).
template <typename CallT> bool driveToPromotion(TieredFn &TF, CallT Call) {
  while (!TF.promoted()) {
    for (unsigned I = 0; I < 64; ++I)
      Call();
    if (TF.state() == TierState::Failed)
      return false;
    if (TF.invocations() > (1u << 20))
      return TF.waitPromoted();
  }
  return true;
}

// --- Slot lifecycle ----------------------------------------------------------

TEST(Tier, SlotBornOnBaselinePromotesToICode) {
  CompileService S;
  TierManager TM(config(16, 2));
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(24), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  // The baseline is machine code before getOrCompileTiered returns.
  EXPECT_EQ(TF->state(), TierState::Baseline);
  FnHandle H = TF->handle();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->backend(), BackendKind::VCode);
  EXPECT_NE(H->profile(), nullptr);
  EXPECT_EQ(H->as<int(int)>()(2), 48);
  // The baseline prologue's counter crosses the trigger; the call wrapper
  // enqueues the promotion.
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 48);
  ASSERT_TRUE(TF->waitPromoted());
  EXPECT_EQ(TF->state(), TierState::Promoted);
  EXPECT_EQ(TF->handle()->backend(), BackendKind::ICode);
  EXPECT_EQ(TF->handle()->profile(), nullptr);
  EXPECT_EQ(TF->call<int(int)>(2), 48);
  EXPECT_EQ(TF->call<int(int)>(-3), -72);
}

TEST(Tier, SlotBaselineIsTheCachedProfiledVCodeCompile) {
  // One identity: a fresh slot's baseline is the very entry a profiled
  // VCODE getOrCompile of the same spec returns. There is no separate
  // baseline back end, so no second compile and no second cache entry.
  CompileService S;
  TierManager TM(config(1 << 20)); // Promotion out of the picture.
  TieredFnHandle TF =
      S.getOrCompileTiered(loopBuild(21), EvalType::Int, CompileOptions(), &TM);
  ASSERT_TRUE(TF);
  FnHandle Baseline = TF->handle();
  ASSERT_TRUE(Baseline);

  Context C;
  Stmt Body = loopBuild(21)(C);
  CompileOptions Profiled;
  Profiled.Backend = BackendKind::VCode;
  Profiled.Profile = true;
  FnHandle Direct = S.getOrCompile(C, Body, EvalType::Int, Profiled);
  ASSERT_TRUE(Direct);
  EXPECT_EQ(Direct.get(), Baseline.get());
  EXPECT_EQ(Direct->backend(), BackendKind::VCode);
  EXPECT_EQ(S.cache().stats().Insertions, 1u);
  EXPECT_EQ(TF->call<int(int)>(2), 42);
}

TEST(Tier, SlotCreationRecordsOneFingerprintSpan) {
  // The slot's key walk is the only one the creating thread makes, and it
  // is attributed: buildSpecKey records the span itself, and the baseline
  // compile reuses the key instead of walking the tree again.
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
  ASSERT_TRUE(obs::traceStopTo(nullptr));
  EXPECT_EQ(TF->state(), TierState::Baseline);

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

// --- Per-app agreement across the swap --------------------------------------

TEST(Tier, QueryPromotesToICodeAndAgrees) {
  // Service before manager: slots hold handles into the service's cache.
  CompileService S;
  TierManager TM(config(32, 2));
  apps::QueryApp App(256);
  const apps::QueryNode *Q = App.benchmarkQuery();
  int Expected = App.countStaticO2(Q);

  TieredFnHandle TF = App.specializeTiered(Q, S, &TM);
  ASSERT_TRUE(TF);
  EXPECT_EQ(TF->state(), TierState::Baseline);

  auto CountViaSlot = [&] {
    int N = 0;
    for (const apps::Record &R : App.records())
      N += TF->call<int(const apps::Record *)>(&R);
    return N;
  };
  // Baseline tier answers correctly before any promotion.
  EXPECT_EQ(CountViaSlot(), Expected);

  ASSERT_TRUE(driveToPromotion(*TF, CountViaSlot));
  EXPECT_EQ(TF->state(), TierState::Promoted);
  EXPECT_GT(TF->promoteLatencyNanos(), 0u);

  // The promoted tier is the ICODE body and still agrees.
  FnHandle H = TF->handle();
  ASSERT_TRUE(H);
  EXPECT_EQ(H->backend(), BackendKind::ICode);
  EXPECT_EQ(H->profile(), nullptr);
  EXPECT_EQ(CountViaSlot(), Expected);
  EXPECT_EQ(App.countCompiled(H->as<int(const apps::Record *)>()), Expected);
}

TEST(Tier, PowerAgreesAcrossPromotion) {
  CompileService S;
  TierManager TM(config(16));
  apps::PowerApp P(13);
  TieredFnHandle TF = P.specializeTiered(S, &TM);
  ASSERT_TRUE(driveToPromotion(
      *TF, [&] { EXPECT_EQ(TF->call<int(int)>(3), P.powStaticO2(3)); }));
  EXPECT_EQ(TF->call<int(int)>(2), 8192);
  EXPECT_EQ(TF->call<int(int)>(-2), -8192);
}

TEST(Tier, HashAgreesAcrossPromotion) {
  CompileService S;
  TierManager TM(config(16));
  apps::HashApp H(256, 100, 3);
  TieredFnHandle TF = H.specializeTiered(S, &TM);
  ASSERT_TRUE(driveToPromotion(*TF, [&] {
    EXPECT_EQ(TF->call<int(int)>(H.presentKey()), H.presentKey() * 2 + 1);
  }));
  EXPECT_EQ(TF->call<int(int)>(H.presentKey()), H.presentKey() * 2 + 1);
  EXPECT_EQ(TF->call<int(int)>(H.absentKey()), -1);
}

static int sum5(int A, int B, int C, int D, int E) {
  return A + B * 10 + C * 100 + D * 1000 + E * 10000;
}

TEST(Tier, UnmarshalerAgreesAcrossPromotion) {
  CompileService S;
  TierManager TM(config(16));
  apps::MarshalApp M("iiiii");
  TieredFnHandle TF =
      M.buildUnmarshalerTiered(reinterpret_cast<const void *>(&sum5), S, &TM);
  std::uint8_t Buf[20];
  int Vals[5] = {1, 2, 3, 4, 5};
  std::memcpy(Buf, Vals, sizeof(Buf));
  ASSERT_TRUE(driveToPromotion(*TF, [&] {
    EXPECT_EQ(TF->call<int(const std::uint8_t *)>(Buf), 54321);
  }));
  EXPECT_EQ(TF->call<int(const std::uint8_t *)>(Buf), 54321);
}

TEST(Tier, UncacheableDotProductStillPromotes) {
  // The dp spec rtEval's the row at instantiation time, so neither tier is
  // memoizable — tiering must still work, just without slot/cache sharing.
  CompileService S;
  TierManager TM(config(16));
  apps::DotProductApp App(32, 0.5, 7);
  std::vector<int> Col(App.size());
  for (unsigned I = 0; I < App.size(); ++I)
    Col[I] = static_cast<int>(I) - 7;
  int Expected = App.dotStaticO2(Col.data());

  TieredFnHandle TF = App.specializeTiered(S, &TM);
  ASSERT_TRUE(driveToPromotion(*TF, [&] {
    EXPECT_EQ(TF->call<int(const int *)>(Col.data()), Expected);
  }));
  EXPECT_EQ(TF->call<int(const int *)>(Col.data()), Expected);
  // Nothing was memoized on either tier.
  EXPECT_EQ(S.cache().stats().Insertions, 0u);
}

// --- Slot memoization --------------------------------------------------------

TEST(Tier, RepeatedRequestsShareOneSlot) {
  CompileService S;
  TierManager TM(config(16));
  apps::PowerApp P(9);
  TieredFnHandle A = P.specializeTiered(S, &TM);
  TieredFnHandle B = P.specializeTiered(S, &TM);
  EXPECT_EQ(A.get(), B.get()); // One counter, one eventual promotion.

  ASSERT_TRUE(
      driveToPromotion(*A, [&] { (void)A->call<int(int)>(2); }));
  // A post-promotion request finds the already-promoted slot.
  TieredFnHandle C = P.specializeTiered(S, &TM);
  EXPECT_EQ(C.get(), A.get());
  EXPECT_TRUE(C->promoted());

  // A different spec gets its own slot.
  apps::PowerApp P2(11);
  EXPECT_NE(P2.specializeTiered(S, &TM).get(), A.get());
}

// --- Queue-full backoff ------------------------------------------------------

TEST(Tier, QueueFullBacksOffAndStaysOnBaseline) {
  TierConfig TC = config(4);
  TC.QueueCapacity = 0; // Every enqueue is rejected.
  CompileService S;
  TierManager TM(TC);
  apps::PowerApp P(13);
  TieredFnHandle TF = P.specializeTiered(S, &TM);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(TF->call<int(int)>(2), 8192);
  // Never promoted, never stuck in Queued: backoff re-arms the trigger.
  EXPECT_EQ(TF->state(), TierState::Baseline);
  EXPECT_GT(TF->invocations(), 4u);
}

// --- Shutdown ----------------------------------------------------------------

TEST(Tier, ShutdownWithPendingRequestsFailsThemCleanly) {
  CompileService S;
  apps::QueryApp App(64);
  std::vector<TieredFnHandle> Fns;
  {
    TierManager TM(config(1));
    for (unsigned E = 2; E < 12; ++E) {
      apps::PowerApp P(E);
      TieredFnHandle TF = P.specializeTiered(S, &TM);
      (void)TF->call<int(int)>(2); // Crosses threshold 1 -> enqueues.
      Fns.push_back(std::move(TF));
    }
  } // Joins workers; still-queued requests become Failed.
  for (unsigned I = 0; I < Fns.size(); ++I) {
    TieredFn &TF = *Fns[I];
    TierState St = TF.state();
    EXPECT_TRUE(St == TierState::Promoted || St == TierState::Failed ||
                St == TierState::Baseline)
        << static_cast<int>(St);
    EXPECT_NE(St, TierState::Queued);
    // Whatever tier survived, the slot still answers correctly: 2^(I + 2).
    int Want = 1 << (I + 2);
    EXPECT_EQ(TF.call<int(int)>(2), Want);
    FnHandle H = TF.handle();
    ASSERT_TRUE(H);
    EXPECT_EQ(H->as<int(int)>()(2), Want);
  }
}

// --- Manager wakeups ---------------------------------------------------------

TEST(Tier, SampleWatcherNeverSwallowsAWorkerWakeup) {
  // A sample watcher that sleeps for a minute and never promotes, beside a
  // single worker. Each fresh slot's first call crosses the trigger and
  // enqueues its promotion with one notify; if the watcher could take that
  // wakeup, the worker would sleep on and the slot would stay on its
  // baseline until an unrelated enqueue.
  TierConfig TC = config(1);
  TC.SamplePromoteThreshold = 1ull << 60;
  TC.SampleWatchMs = 60000;
  CompileService S;
  TierManager TM(TC);
  for (unsigned E = 2; E < 18; ++E) {
    apps::PowerApp P(E);
    TieredFnHandle TF = P.specializeTiered(S, &TM);
    ASSERT_TRUE(TF);
    EXPECT_EQ(TF->call<int(int)>(1), 1);
    EXPECT_TRUE(TF->waitPromoted(std::chrono::milliseconds(500)))
        << "exponent " << E << " was never promoted";
  }
}

// --- Retirement --------------------------------------------------------------

TEST(Tier, SupersededBaselineLivesUntilSlotDies) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 512; // The churn below evicts the baseline.
  CompileService S(Cfg);
  TierManager TM(config(16));
  apps::PowerApp P(13);
  CompileOptions BaselineOpts;
  BaselineOpts.Backend = BackendKind::VCode;
  BaselineOpts.Profile = true;

  TieredFnHandle TF = P.specializeTiered(S, &TM);
  TieredFnHandle Again = P.specializeTiered(S, &TM);
  ASSERT_EQ(TF.get(), Again.get());
  // The raw baseline entry, as a caller that loaded it just before the
  // swap would still be running it.
  auto *Old = TF->handle()->as<int(int)>();
  ASSERT_TRUE(driveToPromotion(*TF, [&] { (void)TF->call<int(int)>(2); }));
  ASSERT_NE(TF->handle()->as<int(int)>(), Old);

  for (unsigned E = 20; E < 60; ++E) {
    apps::PowerApp C(E);
    FnHandle F = C.specializeCached(S);
    EXPECT_EQ(F->as<int(int)>()(1), 1);
  }
  ASSERT_FALSE(S.lookup(P.cacheKey(BaselineOpts)))
      << "the churn should have evicted the baseline";
  for (int X = -3; X <= 3; ++X)
    EXPECT_EQ(Old(X), P.powStaticO2(X)) << "x = " << X;

  // The worker drops its own reference right after publishing Promoted.
  std::weak_ptr<TieredFn> W = TF;
  for (unsigned I = 0; I < 2000 && W.use_count() > 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(W.use_count(), 2);

  auto Counter = [](const char *Name) {
    return obs::MetricsRegistry::global().snapshot().counter(Name);
  };
  std::uint64_t Fns = Counter(obs::names::TierRetiredFns);
  std::uint64_t Bytes = Counter(obs::names::TierRetiredBytes);
  Again.reset();
  EXPECT_EQ(Counter(obs::names::TierRetiredFns), Fns);
  EXPECT_EQ(Old(3), P.powStaticO2(3));
  TF.reset(); // The last handle: the slot and its baseline die here.
  EXPECT_EQ(Counter(obs::names::TierRetiredFns), Fns + 1);
  EXPECT_GT(Counter(obs::names::TierRetiredBytes), Bytes);
}

// --- Concurrency -------------------------------------------------------------

TEST(Tier, ConcurrentCallersAcrossTheSwap) {
  CompileService S;
  TierManager TM(config(128, 2));
  apps::QueryApp App(64);
  const apps::QueryNode *Q = App.benchmarkQuery();
  std::vector<int> Expected;
  for (const apps::Record &R : App.records())
    Expected.push_back(apps::QueryApp::matchStatic(Q, &R));

  TieredFnHandle TF = App.specializeTiered(Q, S, &TM);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      // Keep calling through the slot while the swap happens underneath.
      for (unsigned Sweep = 0; Sweep < 400 && !Stop.load(); ++Sweep)
        for (std::size_t I = 0; I < App.records().size(); ++I)
          if (TF->call<int(const apps::Record *)>(&App.records()[I]) !=
              Expected[I])
            Failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  bool Promoted = TF->waitPromoted();
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_TRUE(Promoted);
  EXPECT_EQ(Failures.load(), 0u);
  // Every caller kept agreeing through the swap; and post-join the slot is
  // on the optimized tier.
  EXPECT_EQ(TF->handle()->backend(), BackendKind::ICode);
  EXPECT_EQ(TF->handle()->profile(), nullptr);
}

TEST(Tier, ConcurrentCallersFromSlotBirthThroughPromotion) {
  // 8 threads hammer a loop spec's slot from the moment it is created
  // through the ICODE promotion, checking every answer.
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

TEST(Tier, ManyFreshSlotsUnderConcurrentLoad) {
  // Distinct specs churn the queue while callers race each slot's own
  // promotion: the manager's worker pool and the per-slot state machines
  // must not interfere across slots.
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
  // Every slot crossed its trigger; each promotion lands and agrees.
  for (unsigned N = 0; N < NumSlots; ++N) {
    EXPECT_TRUE(Slots[N]->waitPromoted()) << "slot " << N;
    EXPECT_EQ(Slots[N]->call<int(int)>(3), 3 * static_cast<int>(N + 1));
  }
}

TEST(Tier, CallersSurviveEvictionChurnAroundPromotion) {
  ServiceConfig Cfg;
  Cfg.Shards = 1;
  Cfg.MaxCodeBytes = 512; // Constant eviction pressure on both tiers.
  CompileService S(Cfg);
  TierManager TM(config(64, 2));
  apps::HashApp H(256, 100, 5);
  int Key = H.presentKey();
  int Want = Key * 2 + 1;

  TieredFnHandle TF = H.specializeTiered(S, &TM);
  constexpr unsigned NumThreads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      if (T % 2) {
        // Churners: flood the cache so baselines and promotions evict.
        for (unsigned I = 0; I < 150; ++I) {
          apps::PowerApp P(2 + (T * 31 + I) % 24);
          FnHandle F = P.specializeCached(S);
          if (F->as<int(int)>()(1) != 1)
            Failures.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        // Callers: the dispatch slot must stay correct through eviction of
        // its cache entries (handles pin the regions) and any swap.
        for (unsigned I = 0; I < 3000; ++I)
          if (TF->call<int(int)>(Key) != Want)
            Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GT(S.cache().stats().Evictions, 0u);
  // Promotion may have been dropped as stale (baseline evicted) — that is
  // legal. What is not legal is a wrong answer or a torn state.
  TierState St = TF->state();
  EXPECT_TRUE(St == TierState::Baseline || St == TierState::Queued ||
              St == TierState::Promoted);
  EXPECT_EQ(TF->call<int(int)>(Key), Want);
}

} // namespace
