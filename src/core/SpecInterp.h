//===- core/SpecInterp.h - Spec-tree interpreter (tier 0) ------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier 0 of the serving path: a direct interpreter over specification
/// trees. Where instantiation walks a cspec to *generate* code, SpecInterp
/// walks the same nodes to *execute* them — one semantics, zero compile
/// latency. The tier manager hands out an interpreted closure immediately,
/// compiles the PCODE baseline in the background, and swaps the entry
/// pointer when machine code lands (tier/Tier.h).
///
/// While interpreting, cheap profile signals accumulate in a Tier0Profile:
/// per-loop trip counts, taken-branch counts, and observed `$`-expression
/// stability. snapshotTier0() freezes them into per-loop unroll decisions
/// that the optimizing ICODE compile consumes through
/// CompileOptions::TripProfile — measured trip counts replacing the static
/// UnrollLimit heuristic (paper §4.4's dynamic loop unrolling, now
/// profile-directed).
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_SPECINTERP_H
#define TICKC_CORE_SPECINTERP_H

#include "core/Context.h"
#include "core/Semantics.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace tcc {
namespace core {

/// Execution-profile signals collected while a spec runs interpreted.
/// All counters are relaxed atomics: tier-0 closures are called from
/// arbitrary threads concurrently. Ordinals are assigned by a pre-order
/// walk of the statement tree that counts *every* visit of a For (or If)
/// node but maps each distinct node to its first-visit ordinal — the same
/// numbering the compiler's Walker derives without allocating.
struct Tier0Profile {
  static constexpr unsigned MaxLoops = 64;
  static constexpr unsigned MaxBranches = 64;
  static constexpr unsigned MaxRtConsts = 64;
  /// Measured trip counts above this roll the loop in the optimized body
  /// instead of unrolling it: past a few thousand copies the icache
  /// pressure of a fully unrolled loop outweighs the per-iteration win
  /// ("unless it is made too large ... it will easily outperform",
  /// paper §4.4 — this is the measured version of that caveat).
  static constexpr std::uint64_t UnrollCutoff = 2048;

  struct LoopStat {
    std::atomic<std::uint64_t> Entries{0};
    std::atomic<std::uint64_t> Iters{0};
    std::atomic<std::uint64_t> MaxTrip{0};
  };
  struct BranchStat {
    std::atomic<std::uint64_t> Taken{0};
    std::atomic<std::uint64_t> Total{0};
  };

  /// Interpreted dispatches of this spec.
  std::atomic<std::uint64_t> Invocations{0};

  LoopStat Loops[MaxLoops];
  BranchStat Branches[MaxBranches];

  /// Observed `$`-expression (rtEval) stability: 0 = never evaluated,
  /// 1 = every observed value identical, 2 = at least two distinct values.
  std::atomic<std::uint64_t> RtHash[MaxRtConsts];
  std::atomic<std::uint8_t> RtState[MaxRtConsts];

  /// Filled once at SpecInterp construction, before the profile is shared.
  unsigned NumLoops = 0;
  unsigned NumBranches = 0;
  unsigned NumRtConsts = 0;
  /// Loops whose body contains an rtEval that references a vspec: such a
  /// `$`-expression only folds when the enclosing loop unrolls (the
  /// induction variable must be a derived run-time constant), so the
  /// snapshot must never decide to roll them.
  bool FoldCritical[MaxLoops] = {};

  // No user constructor: make_shared<Tier0Profile>() value-initializes,
  // which zeroes every atomic (C++20) — a 2.5 KB memset instead of 128
  // individual stores, and slot creation is a latency path.
};

/// Per-loop unroll decisions frozen out of a Tier0Profile, consumed by the
/// optimizing compile through CompileOptions::TripProfile. The digest
/// enters SpecKey, so differently-profiled compiles of one spec occupy
/// distinct cache (and snapshot) slots.
struct Tier0ProfileSnapshot {
  /// 0 = unobserved (keep the static UnrollLimit heuristic),
  /// 1 = roll (measured trips exceed UnrollCutoff),
  /// 2 = unroll, bounded by the measured MaxTrip.
  std::uint32_t NumLoops = 0;
  std::uint8_t Decision[Tier0Profile::MaxLoops] = {};
  std::uint32_t MaxTrip[Tier0Profile::MaxLoops] = {};
};

/// Freezes the live profile into per-loop decisions. Fold-critical loops
/// are always decision 2 (their `$`-expressions require unrolling).
Tier0ProfileSnapshot snapshotTier0(const Tier0Profile &P);

/// True when SpecInterp::run can execute this spec exactly: no dynamic
/// labels/gotos, every call signature within the dispatch ladder, every
/// parameter within marshalling range, and no floating-point induction
/// variables. Uninterpretable specs fall back to the synchronous baseline.
bool specInterpretable(const Context &Ctx, Stmt Body, EvalType RetType);

/// The value a run produced: I for Int/Long/Ptr returns (Int values are
/// sign-extended int32), D for Double, both zero for Void / fall-off.
struct InterpResult {
  std::int64_t I = 0;
  double D = 0;
};

/// An executable view of one specification tree. Construction walks the
/// tree once (ordinal assignment, fold-critical analysis); run() is
/// reentrant and thread-safe — each call carries its own frame, and all
/// profile writes are relaxed atomics.
class SpecInterp {
public:
  /// Frame capacity; specs with more vspecs are not interpretable.
  static constexpr unsigned MaxLocals = 128;

  /// Non-owning: \p Ctx and the tree must outlive the interpreter.
  SpecInterp(const Context &Ctx, Stmt Body, EvalType RetType,
             Tier0Profile *Prof = nullptr);
  /// Owning: keeps the spec's Context (arena and all) alive for the
  /// interpreter's lifetime — the tier manager's form, where the closure
  /// must survive long after the builder's scope ends.
  SpecInterp(std::unique_ptr<Context> OwnedCtx, Stmt Body, EvalType RetType,
             Tier0Profile *Prof = nullptr);

  /// Executes the spec. \p IntArgs are the integer-class parameters in
  /// SysV order (Int/Long/Ptr share the sequence), \p FpArgs the doubles —
  /// the same split the compiled calling convention uses.
  InterpResult run(const std::int64_t *IntArgs, unsigned NumInt,
                   const double *FpArgs, unsigned NumFp) const;

  /// True when the construction walk found the spec within the
  /// interpreter's envelope (specInterpretable() is this verdict). It is
  /// computed during the ordinal-assignment walk so latency-sensitive
  /// creators (the tier manager) pay for one tree traversal, not two.
  /// run() must not be called when this is false.
  bool ok() const { return Ok; }

  /// Reclaims the owned Context from an interpreter that failed ok() —
  /// the fallback path hands the tree back to the synchronous compiler.
  std::unique_ptr<Context> takeContext() {
    Ctx = nullptr;
    Root = nullptr;
    return std::move(Owned);
  }

  EvalType retType() const { return RetType; }
  const Tier0Profile *profile() const { return Prof; }

private:
  void indexTree();
  void indexStmt(const StmtNode *S, std::vector<const StmtNode *> &ForStack);
  void indexExpr(const ExprNode *N, std::vector<const StmtNode *> &ForStack);

  std::unique_ptr<Context> Owned;
  const Context *Ctx = nullptr;
  const StmtNode *Root = nullptr;
  EvalType RetType = EvalType::Int;
  Tier0Profile *Prof = nullptr;
  bool Ok = true;

  /// First-visit ordinals (see Tier0Profile); ordinals at or beyond the
  /// profile's fixed capacity execute unrecorded.
  std::unordered_map<const StmtNode *, unsigned> LoopOrd;
  std::unordered_map<const StmtNode *, unsigned> BranchOrd;
  std::unordered_map<const ExprNode *, unsigned> RtOrd;
  unsigned LoopCounter = 0, BranchCounter = 0, RtCounter = 0;

  std::vector<EvalType> LocalTypes;
  struct ParamBind {
    std::int32_t LocalId;
    std::int32_t ArgIndex;
    EvalType Type;
  };
  std::vector<ParamBind> Params;

  struct Frame;
  using Val = sem::Value;
  enum class Flow : std::uint8_t;
  Val evalExpr(const ExprNode *N, Frame &F) const;
  Val evalCall(const ExprNode *N, Frame &F) const;
  Flow execStmt(const StmtNode *S, Frame &F, Val &Ret) const;
};

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_SPECINTERP_H
