//===- observability/Names.h - Canonical metric names ----------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical metric names the instrumented pipeline publishes and the
/// report renderer consumes. One place, so producers and consumers cannot
/// drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_NAMES_H
#define TICKC_OBSERVABILITY_NAMES_H

namespace tcc {
namespace obs {
namespace names {

// Compile volume.
inline constexpr char CompileCountVCode[] = "compile.count.vcode";
inline constexpr char CompileCountICode[] = "compile.count.icode";
/// Compiles of the retired copy-and-patch back end: nothing increments it
/// (reads 0); declared because the serving benchmark still reads it.
inline constexpr char CompileCountPCode[] = "compile.count.pcode";
inline constexpr char CompileCyclesTotal[] = "compile.cycles.total";
inline constexpr char CompileCodeBytes[] = "compile.code.bytes";
inline constexpr char CompileMachineInstrs[] = "compile.machine.instrs";

// Per-phase cycle accumulators (the Figure 6/7 stacked-bar raw material).
inline constexpr char PhaseSetup[] = "phase.setup.cycles";
inline constexpr char PhaseCgfWalk[] = "phase.cgf_walk.cycles";
inline constexpr char PhaseFlowGraph[] = "phase.flow_graph.cycles";
inline constexpr char PhaseLiveness[] = "phase.liveness.cycles";
inline constexpr char PhaseLiveIntervals[] = "phase.live_intervals.cycles";
inline constexpr char PhaseRegAlloc[] = "phase.regalloc.cycles";
inline constexpr char PhasePeephole[] = "phase.peephole.cycles";
inline constexpr char PhaseEmit[] = "phase.emit.cycles";
inline constexpr char PhaseFinalize[] = "phase.finalize.cycles";

// Per-compile latency distributions, split by backend/allocator.
inline constexpr char HistCyclesVCode[] = "compile.cycles.vcode";
inline constexpr char HistCyclesLinearScan[] =
    "compile.cycles.icode.linear_scan";
inline constexpr char HistCyclesGraphColor[] =
    "compile.cycles.icode.graph_color";

// Register allocation.
inline constexpr char SpilledIntervals[] = "regalloc.spilled_intervals";

// Compile-path memory management: the reused-context zero-allocation fast
// path. compile.allocs counts heap allocations charged to compiles: each
// compiling thread's first compile takes its context's arena slab and code
// buffer, arena growth adds slabs, and the steady state takes none;
// compile.arena_bytes is the per-compile arena
// footprint; compile.cycles_per_insn.* are cycles per generated machine
// instruction, the normalized compile-overhead figure the paper's Table 1
// reports (~350 cycles/instruction for ICODE).
inline constexpr char CompileAllocs[] = "compile.allocs";
inline constexpr char HistArenaBytes[] = "compile.arena_bytes";
inline constexpr char HistCpiVCode[] = "compile.cycles_per_insn.vcode";
inline constexpr char HistCpiICode[] = "compile.cycles_per_insn.icode";

// Dynamic partial evaluation decisions (paper §4.4).
inline constexpr char LoopsUnrolled[] = "opt.loops_unrolled";
inline constexpr char BranchesEliminated[] = "opt.branches_eliminated";
inline constexpr char StrengthReductions[] = "opt.strength_reductions";
/// &&/||/! trees ICODE lowered to 0/1 compares combined with and/or (a
/// decisive first leaf keeps its branch), and those it left to the
/// short-circuit chain (each decline also records a predicate.declined
/// event naming its reason).
inline constexpr char PredicatesBranchFree[] = "icode.predicates.branch_free";
inline constexpr char PredicatesDeclined[] = "icode.predicates.declined";
/// ICODE compiles whose body has no call and so took the caller-saved
/// register pool (no callee-save traffic unless a fifth register is
/// needed), and those that kept the callee-saved pool.
inline constexpr char PoolCallerSaved[] = "icode.pool.caller_saved";
inline constexpr char PoolCalleeSaved[] = "icode.pool.callee_saved";

// Code cache (all CodeCache instances, cumulative).
inline constexpr char CacheHits[] = "cache.hits";
inline constexpr char CacheMisses[] = "cache.misses";
inline constexpr char CacheEvictions[] = "cache.evictions";
inline constexpr char CacheInsertions[] = "cache.insertions";
inline constexpr char CacheBytesInserted[] = "cache.bytes.inserted";
inline constexpr char CacheBytesEvicted[] = "cache.bytes.evicted";

// Persistent cross-process snapshot cache (src/persist). Hits/misses count
// probe outcomes on in-memory cache misses; rejects count records refused
// for fingerprint mismatch, corruption, or failed byte audit; unportable
// counts compiles whose pointers escaped the imm64 form and so could not
// be persisted. The load histogram is probe → executable-function latency.
inline constexpr char SnapshotHits[] = "cache.snapshot.hits";
inline constexpr char SnapshotMisses[] = "cache.snapshot.misses";
inline constexpr char SnapshotRejects[] = "cache.snapshot.rejects";
inline constexpr char SnapshotSaves[] = "cache.snapshot.saves";
inline constexpr char SnapshotUnportable[] = "cache.snapshot.unportable";
inline constexpr char SnapshotCompactions[] = "cache.snapshot.compactions";
/// Records dropped to keep a snapshot file under TICKC_SNAPSHOT_BUDGET.
inline constexpr char SnapshotEvictions[] = "cache.snapshot.evictions";
/// Probes that matched a record older than TICKC_SNAPSHOT_TTL (skipped;
/// the fresh compile re-saves the key with a new timestamp).
inline constexpr char SnapshotExpired[] = "cache.snapshot.expired";
inline constexpr char HistSnapshotLoad[] = "cache.snapshot.load.cycles";

// The code heap (support/CodeBuffer.h): chunks mapped, blocks carved fresh
// from chunk space, blocks reused from a size-class freelist, blocks freed.
inline constexpr char HeapChunks[] = "heap.chunks.mapped";
inline constexpr char HeapFresh[] = "heap.blocks.fresh";
inline constexpr char HeapReused[] = "heap.blocks.reused";
inline constexpr char HeapFreed[] = "heap.blocks.freed";

// Single-flight compilation: threads that blocked on another thread's
// in-flight compile of the same key instead of duplicating it.
inline constexpr char CacheSingleflightWait[] = "cache.singleflight_wait";

// Tiered compilation (src/tier): VCODE-first dispatch slots promoted in the
// background to ICODE once the prologue counter crosses the threshold.
inline constexpr char TierEnqueued[] = "tier.promote.enqueued";
inline constexpr char TierQueueFull[] = "tier.promote.queue_full";
inline constexpr char TierCompiled[] = "tier.promote.compiled";
inline constexpr char TierStale[] = "tier.promote.stale";
inline constexpr char TierAbandoned[] = "tier.promote.abandoned";
inline constexpr char TierPromotions[] = "tier.promotions";
/// Superseded baselines, counted when their dispatch slot dies.
inline constexpr char TierRetiredFns[] = "tier.retired.fns";
inline constexpr char TierRetiredBytes[] = "tier.retired.bytes";
/// Enqueue -> dispatch-slot swap, TSC ticks per promotion.
inline constexpr char HistTierPromoteLatency[] = "tier.promote.latency.cycles";
/// Tier baselines revived from a persistent snapshot instead of compiled
/// (warm-started processes answer at hit latency from the first call; the
/// promotion machinery works on them unchanged — loaded code carries a
/// live patched counter).
inline constexpr char TierBaselineSnapshot[] = "tier.baseline.from_snapshot";

/// Calls answered by the retired interpreter tier 0. Nothing increments it
/// any more; kept declared because servebench reports it
/// (tier0_calls_per_req), so the series reads 0 instead of vanishing.
inline constexpr char Tier0Invocations[] = "tier0.invocations";

// Runtime execution observability (src/observability/Runtime*): the JIT
// symbol table, SIGPROF sampling profiler, and flight recorder.
inline constexpr char SymtabRegistered[] = "symtab.registered";
inline constexpr char SymtabRetired[] = "symtab.retired";
inline constexpr char SymtabDropped[] = "symtab.dropped";
inline constexpr char SampleTotal[] = "sample.total";
inline constexpr char SampleHits[] = "sample.hits";
inline constexpr char SampleMisses[] = "sample.misses";
inline constexpr char FlightEvents[] = "flight.events";

// Verification (src/verify): per-layer pass/fail volume and the cycles the
// checkers themselves consumed (to report verify-time share of compile time).
inline constexpr char VerifySpecChecked[] = "verify.spec.checked";
inline constexpr char VerifySpecFailed[] = "verify.spec.failed";
inline constexpr char VerifyIrChecked[] = "verify.ir.checked";
inline constexpr char VerifyIrFailed[] = "verify.ir.failed";
inline constexpr char VerifyAllocChecked[] = "verify.alloc.checked";
inline constexpr char VerifyAllocFailed[] = "verify.alloc.failed";
inline constexpr char VerifyCycles[] = "verify.cycles";

// Flow-sensitive machine-code admission (src/verify/AdmissionVerify.cpp),
// the one machine-code analyzer: every snapshot load runs it
// unconditionally before the bytes can execute; fresh compiles run it under
// TICKC_VERIFY, and their findings count here too. Blocks/calls count the CFG
// blocks analyzed and the indirect-call sites whose targets were proven
// confined to the key's declared callees.
inline constexpr char VerifyAdmitChecked[] = "verify.admit.checked";
inline constexpr char VerifyAdmitFailed[] = "verify.admit.failed";
inline constexpr char VerifyAdmitCycles[] = "verify.admit.cycles";
inline constexpr char VerifyAdmitBlocks[] = "verify.admit.blocks";
inline constexpr char VerifyAdmitCalls[] = "verify.admit.calls";

} // namespace names
} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_NAMES_H
