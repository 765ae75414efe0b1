//===- tests/alloc_test.cpp - Zero-allocation compile fast path -----------==//
//
// Counts heap allocations by overriding the global operator new in this
// test binary. The contract under test: once a thread's CompileContext
// (and the code heap) are warm, repeat ICODE compiles of the same spec
// perform ZERO heap allocations — everything transient lives in the
// context's arena, which retains its slab across reset(). The same holds
// for machine-code admission on a warm thread, which reuses its scratch
// arrays.
//
// Also drives one CompileService from 8 threads, each compiling through its
// own context; CI runs this binary under TSan.
//
//===----------------------------------------------------------------------===//

#include "apps/Query.h"
#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/CompileContext.h"
#include "core/Context.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/CodeBuffer.h"
#include "support/Reloc.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

// --- Global allocation counter ----------------------------------------------
// Every path into the heap in this binary funnels through these operators;
// the tests read the counter around compile calls. (The arena's slab
// allocation uses std::malloc and is accounted separately by
// Arena::systemAllocs / the compile.allocs metric, which the tests also
// check — between the two counters the whole heap surface is covered.)

static std::atomic<std::uint64_t> GHeapAllocs{0};
/// Allocations at least as large as a compile context's emission buffer.
static std::atomic<std::uint64_t> GBufferSizedAllocs{0};

static void *countedAlloc(std::size_t Sz, std::size_t Align) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (Sz >= tcc::core::CompileContext::CodeBufferBytes)
    GBufferSizedAllocs.fetch_add(1, std::memory_order_relaxed);
  void *P = Align > alignof(std::max_align_t)
                ? std::aligned_alloc(Align, (Sz + Align - 1) / Align * Align)
                : std::malloc(Sz ? Sz : 1);
  if (!P)
    throw std::bad_alloc();
  return P;
}

void *operator new(std::size_t Sz) { return countedAlloc(Sz, 0); }
void *operator new[](std::size_t Sz) { return countedAlloc(Sz, 0); }
void *operator new(std::size_t Sz, std::align_val_t Al) {
  return countedAlloc(Sz, static_cast<std::size_t>(Al));
}
void *operator new[](std::size_t Sz, std::align_val_t Al) {
  return countedAlloc(Sz, static_cast<std::size_t>(Al));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace tcc;
using namespace tcc::core;

namespace {

/// The pow benchmark's square-and-multiply chain (apps/Power.cpp's shape),
/// built once so repeat compiles exercise only the compile path.
Stmt buildPowerSpec(Context &C, unsigned Exponent) {
  VSpec X = C.paramInt(0);
  VSpec Base = C.localInt();
  VSpec Acc = C.localInt();
  std::vector<Stmt> Steps;
  Steps.push_back(C.assign(Base, Expr(X)));
  bool HaveAcc = false;
  unsigned E = Exponent;
  while (E) {
    if (E & 1) {
      Steps.push_back(
          C.assign(Acc, HaveAcc ? Expr(Acc) * Expr(Base) : Expr(Base)));
      HaveAcc = true;
    }
    E >>= 1;
    if (E)
      Steps.push_back(C.assign(Base, Expr(Base) * Expr(Base)));
  }
  if (!HaveAcc)
    Steps.push_back(C.assign(Acc, C.intConst(1)));
  Steps.push_back(C.ret(Acc));
  return C.block(Steps);
}

/// The hash benchmark's specialized-lookup shape (apps/Hash.cpp): probes a
/// run-time-constant table with a loop — branches, labels, memory ops.
Stmt buildHashSpec(Context &C, const int *KeysData, const int *ValsData,
                   unsigned Size) {
  VSpec Key = C.paramInt(0);
  VSpec H = C.localInt();
  VSpec Probe = C.localInt();
  Expr KeysBase = C.rcPtr(KeysData);
  Expr ValsBase = C.rcPtr(ValsData);
  auto SizeC = [&] { return C.rcInt(static_cast<int>(Size)); };
  Stmt Init = C.assign(H, (Expr(Key) * C.rcInt(31)) % SizeC());
  Expr KeyAtH = C.index(KeysBase, Expr(H), MemType::I32);
  Expr Continue = (KeyAtH != C.rcInt(-1)) && (KeyAtH != Expr(Key));
  Stmt Loop = C.whileStmt(Continue,
                          C.assign(H, (Expr(H) + C.intConst(1)) % SizeC()));
  Stmt Tail = C.block({
      C.assign(Probe, C.index(KeysBase, Expr(H), MemType::I32)),
      C.ifStmt(Expr(Probe) == Expr(Key),
               C.ret(C.index(ValsBase, Expr(H), MemType::I32)),
               C.ret(C.intConst(-1))),
  });
  return C.block({Init, Loop, Tail});
}

/// Wrapping integer power, matching the generated code's int multiplies.
int powRef(int X, unsigned E) {
  std::uint32_t R = 1, B = static_cast<std::uint32_t>(X);
  while (E) {
    if (E & 1)
      R *= B;
    B *= B;
    E >>= 1;
  }
  return static_cast<int>(R);
}

/// Compiles \p Body repeatedly through the thread's warmed CompileContext
/// and returns the heap allocations the steady-state compiles cost.
std::uint64_t steadyStateAllocs(Context &Ctx, Stmt Body, unsigned Reps) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;

  // Warm up: first compiles grow the arena and the emission buffer, map the
  // code heap's chunk, and create the metrics registry entries and
  // function-local statics.
  for (int W = 0; W < 3; ++W) {
    CompiledFn F = compileFn(Ctx, Body, EvalType::Int, Opts);
    EXPECT_TRUE(F.valid());
  } // F destroyed here: its heap block goes back on its freelist before the
    // next install takes it again.

  obs::Counter &Allocs =
      obs::MetricsRegistry::global().counter(obs::names::CompileAllocs);
  std::uint64_t ArenaAllocsBefore = Allocs.value();
  std::uint64_t HeapBefore = GHeapAllocs.load(std::memory_order_relaxed);
  int Calls = 0;
  for (unsigned R = 0; R < Reps; ++R) {
    CompiledFn F = compileFn(Ctx, Body, EvalType::Int, Opts);
    Calls += F.as<int(int)>()(3) != 0;
  }
  std::uint64_t HeapAfter = GHeapAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(Calls, static_cast<int>(Reps));
  EXPECT_EQ(Allocs.value(), ArenaAllocsBefore)
      << "arena grew during steady-state compiles";
  return HeapAfter - HeapBefore;
}

} // namespace

TEST(AllocTest, PowerSteadyStateCompileIsAllocationFree) {
  // The allocation-freedom guarantee is about the compile pipeline itself;
  // the optional verify checkers are diagnostic tooling and build their
  // reports/worklists on the heap by design.
  if (verify::envEnabled())
    GTEST_SKIP() << "TICKC_VERIFY is set; checkers allocate by design";
  Context C;
  Stmt Body = buildPowerSpec(C, 13);
  EXPECT_EQ(steadyStateAllocs(C, Body, 10), 0u);
}

TEST(AllocTest, HashSteadyStateCompileIsAllocationFree) {
  if (verify::envEnabled())
    GTEST_SKIP() << "TICKC_VERIFY is set; checkers allocate by design";
  std::vector<int> Keys(16, -1), Vals(16, 0);
  Keys[5] = 37;
  Vals[5] = 75;
  Context C;
  Stmt Body = buildHashSpec(C, Keys.data(), Vals.data(), 16);
  EXPECT_EQ(steadyStateAllocs(C, Body, 10), 0u);
}

TEST(AllocTest, ThreadLocalFallbackContextReachesZeroAllocArena) {
  // After a warmup compile the thread's arena stops growing.
  Context C;
  Stmt Body = buildPowerSpec(C, 21);
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  for (int W = 0; W < 2; ++W) {
    CompiledFn F = compileFn(C, Body, EvalType::Int, Opts);
    EXPECT_TRUE(F.valid());
  }
  obs::Counter &Allocs =
      obs::MetricsRegistry::global().counter(obs::names::CompileAllocs);
  std::uint64_t Before = Allocs.value();
  for (int R = 0; R < 5; ++R) {
    CompiledFn F = compileFn(C, Body, EvalType::Int, Opts);
    EXPECT_TRUE(F.valid());
  }
  EXPECT_EQ(Allocs.value(), Before);
}

TEST(AllocTest, WarmAdmissionIsAllocationFree) {
  // Admission as a snapshot load runs it: a clean ICODE query body, handed
  // its reloc table. The analysis reuses its thread's scratch arrays, so
  // after one warm-up call on the thread it makes no heap allocation.
  apps::QueryApp App;
  support::RelocTable RT;
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  Opts.Relocs = &RT;
  CompiledFn F = App.specialize(App.benchmarkQuery(), Opts);
  ASSERT_TRUE(F.valid());
  ASSERT_FALSE(RT.Unportable);
  verify::AdmissionInputs AI;
  AI.Code = static_cast<const std::uint8_t *>(F.entry());
  AI.Size = F.stats().CodeBytes;
  AI.Relocs = RT.Entries.data();
  AI.NumRelocs = RT.Entries.size();
  AI.HaveRelocs = true;
  ASSERT_TRUE(verify::verifyAdmission(AI).ok());

  std::uint64_t Before = GHeapAllocs.load(std::memory_order_relaxed);
  int Admitted = 0;
  for (int I = 0; I < 16; ++I)
    Admitted += verify::verifyAdmission(AI).ok();
  std::uint64_t After = GHeapAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(Admitted, 16);
  EXPECT_EQ(After - Before, 0u);
}

TEST(AllocTest, EightThreadServiceStress) {
  // 8 threads hammer one CompileService with distinct specs (distinct
  // exponents -> distinct cache keys -> every request compiles). Each
  // thread compiles through its own context: its first compile is charged
  // the context's slab and code buffer (2 allocations), and after that its
  // arena never grows again. TSan (CI) checks that no context is shared
  // between threads.
  cache::CompileService Service;
  constexpr int NumThreads = 8;
  constexpr int PerThread = 24;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  std::atomic<int> WrongFirstCharges{0};
  std::atomic<int> GrowingCompiles{0};
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        unsigned Exponent = 2 + static_cast<unsigned>(T * PerThread + I);
        Context C;
        Stmt Body = buildPowerSpec(C, Exponent);
        CompileOptions Opts;
        Opts.Backend = BackendKind::ICode;
        cache::FnHandle F =
            Service.getOrCompile(C, Body, EvalType::Int, Opts);
        if (!F || F->as<int(int)>()(3) != powRef(3, Exponent))
          Failures.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t Charged =
            CompileContext::forCurrentThread().allocsThisCompile();
        if (I == 0 && Charged != 2)
          WrongFirstCharges.fetch_add(1, std::memory_order_relaxed);
        if (I > 0 && Charged != 0)
          GrowingCompiles.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(WrongFirstCharges.load(), 0)
      << "a fresh thread's first compile was not charged its slab and buffer";
  EXPECT_EQ(GrowingCompiles.load(), 0)
      << "a warm thread's compile grew its arena";
  EXPECT_EQ(Service.cache().stats().Insertions,
            static_cast<std::uint64_t>(NumThreads * PerThread));
}

TEST(AllocTest, NewServiceOnAWarmThreadReusesItsContext) {
  // A service built after its thread has compiled (a server that restarts
  // its cache) compiles its first miss in the thread's existing context:
  // no new emission buffer is allocated.
  {
    cache::CompileService Warm;
    Context C;
    Stmt Body = buildPowerSpec(C, 11);
    cache::FnHandle F = Warm.getOrCompile(C, Body, EvalType::Int);
    ASSERT_TRUE(F);
  }
  cache::CompileService Fresh;
  Context C;
  Stmt Body = buildPowerSpec(C, 12);
  std::uint64_t Before = GBufferSizedAllocs.load(std::memory_order_relaxed);
  cache::FnHandle F = Fresh.getOrCompile(C, Body, EvalType::Int);
  std::uint64_t After = GBufferSizedAllocs.load(std::memory_order_relaxed);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->as<int(int)>()(3), powRef(3, 12));
  EXPECT_EQ(Fresh.cache().stats().Insertions, 1u);
  EXPECT_EQ(After - Before, 0u)
      << "the first miss allocated a buffer of CodeBufferBytes or more";
}
