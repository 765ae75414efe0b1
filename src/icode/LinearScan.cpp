//===- icode/LinearScan.cpp - Fast linear-scan register allocation --------==//
//
// Figure 3 of the paper — the original publication of linear scan:
//
//   GREEDY-REGISTER-ALLOCATION
//     active <- {}
//     foreach live interval i, from last to first
//       EXPIRE-OLD-INTERVALS(i)
//       if length(active) == R then
//         r <- SPILL-LONGEST-INTERVAL(i)
//       else
//         r <- a register from the pool of free registers
//       if r is a valid register then
//         register[i] <- r; add i to active, sorted by start point
//       else
//         location[i] <- new stack location
//
// Intervals arrive sorted by increasing end point and are traversed in
// reverse. `active` is kept sorted by increasing start point, so spilling
// the longest (earliest-starting) interval removes the first element, and
// expiring dead intervals is a short search backwards from the end.
// Asymptotic cost O(I * R).
//
// `active` can never hold more entries than the register class has physical
// registers, so it is a fixed in-object array — the scan allocates nothing
// but the result's Location table (from the ICode's arena).
//
//===----------------------------------------------------------------------===//

#include "icode/Analysis.h"

#include <algorithm>
#include <cassert>

using namespace tcc;
using namespace tcc::icode;

namespace {

/// One register class's scan state. The active list and free stack are
/// fixed arrays: both are bounded by the physical register count, which the
/// VCODE layer caps well below MaxPhysRegs.
class ScanState {
public:
  /// Upper bound on physical registers per class (the coloring bitmask and
  /// the VCODE pools assume <= 32).
  static constexpr int MaxPhysRegs = 32;

  ScanState(int NumRegs, SpillHeuristic Spill, Allocation &Result)
      : Spill(Spill), Result(Result) {
    assert(NumRegs <= MaxPhysRegs && "register pool exceeds fixed bound");
    for (int R = NumRegs - 1; R >= 0; --R)
      FreeRegs[NumFree++] = R;
    NumPhysRegs = NumRegs;
  }

  void process(const Interval &I) {
    expireOldIntervals(I);
    int R;
    if (NumActive == NumPhysRegs)
      R = spillVictim(I);
    else
      R = FreeRegs[--NumFree];
    if (R >= 0) {
      Result.Location[static_cast<std::size_t>(I.Reg)] = R;
      addActive(I, R);
    } else {
      Result.Location[static_cast<std::size_t>(I.Reg)] = Allocation::Spilled;
      ++Result.NumSpilled;
    }
  }

private:
  struct ActiveEntry {
    Interval IV;
    int Reg;
  };

  void addActive(const Interval &I, int R) {
    // Insert keeping `active` sorted by increasing start point; scanning
    // backwards touches few elements in practice (paper §5.2).
    int At = NumActive;
    while (At > 0 && Active[At - 1].IV.Start > I.Start) {
      Active[At] = Active[At - 1];
      --At;
    }
    Active[At] = ActiveEntry{I, R};
    ++NumActive;
  }

  /// Removes active intervals that start strictly after I's end point —
  /// they cannot overlap I or anything processed later.
  void expireOldIntervals(const Interval &I) {
    while (NumActive > 0 && Active[NumActive - 1].IV.Start > I.End) {
      FreeRegs[NumFree++] = Active[NumActive - 1].Reg;
      --NumActive;
    }
  }

  /// Decides whether to evict an active interval for I. Returns the freed
  /// register, or -1 meaning "spill I itself".
  int spillVictim(const Interval &I) {
    int VictimIdx = 0;
    bool VictimBeatsI;
    if (Spill == SpillHeuristic::LongestInterval) {
      // The longest interval is the earliest-starting one: active.front().
      VictimBeatsI = Active[0].IV.Start < I.Start;
    } else {
      // Ablation heuristic: evict the least-used interval per loop hints.
      std::uint64_t Best = ~0ull;
      for (int K = 0; K < NumActive; ++K)
        if (Active[K].IV.Weight < Best) {
          Best = Active[K].IV.Weight;
          VictimIdx = K;
        }
      VictimBeatsI = Best < I.Weight;
    }
    if (!VictimBeatsI)
      return -1;
    int R = Active[VictimIdx].Reg;
    Result.Location[static_cast<std::size_t>(Active[VictimIdx].IV.Reg)] =
        Allocation::Spilled;
    ++Result.NumSpilled;
    for (int K = VictimIdx; K + 1 < NumActive; ++K)
      Active[K] = Active[K + 1];
    --NumActive;
    return R;
  }

  SpillHeuristic Spill;
  Allocation &Result;
  ActiveEntry Active[MaxPhysRegs];
  int NumActive = 0;
  int FreeRegs[MaxPhysRegs];
  int NumFree = 0;
  int NumPhysRegs;
};

} // namespace

Allocation
tcc::icode::allocateLinearScan(const ICode &IC,
                               const ArenaVector<Interval> &Intervals,
                               int NumIntRegs, int NumFloatRegs,
                               SpillHeuristic Spill,
                               const std::uint8_t *MustSpill) {
  Allocation Result;
  Result.NumRegs = IC.numRegs();
  Result.Location = IC.arena().allocateArray<int>(Result.NumRegs);
  for (unsigned R = 0; R < Result.NumRegs; ++R)
    Result.Location[R] = Allocation::Unused;

  assert(std::is_sorted(Intervals.begin(), Intervals.end(),
                        [](const Interval &A, const Interval &B) {
                          return A.End < B.End;
                        }) &&
         "intervals must arrive sorted by end point");

  ScanState IntState(NumIntRegs, Spill, Result);
  ScanState FloatState(NumFloatRegs, Spill, Result);
  for (std::size_t K = Intervals.size(); K-- > 0;) {
    const Interval &I = Intervals[K];
    if (MustSpill && MustSpill[static_cast<std::size_t>(I.Reg)]) {
      // Caller-saved register class crossing a call: straight to memory.
      Result.Location[static_cast<std::size_t>(I.Reg)] = Allocation::Spilled;
      ++Result.NumSpilled;
      continue;
    }
    (I.IsFloat ? FloatState : IntState).process(I);
  }
  return Result;
}

const std::uint8_t *tcc::icode::computeMustSpill(const ICode &IC,
                                                 const Interval *Intervals,
                                                 std::size_t NumIntervals) {
  const auto &Instrs = IC.instrs();
  Arena &A = IC.arena();

  auto *CallSites = A.allocateArray<std::int32_t>(Instrs.size());
  std::size_t NumCalls = 0;
  for (std::size_t I = 0, E = Instrs.size(); I != E; ++I)
    if (Instrs[I].Opcode == Op::Call || Instrs[I].Opcode == Op::CallIndirect)
      CallSites[NumCalls++] = static_cast<std::int32_t>(I);
  if (NumCalls == 0)
    return nullptr; // No calls: nothing is forced to memory.

  auto *Result = A.allocateZeroed<std::uint8_t>(IC.numRegs());
  for (std::size_t K = 0; K < NumIntervals; ++K) {
    const Interval &IV = Intervals[K];
    if (!IV.IsFloat)
      continue; // Code with calls gets the callee-saved integer pool.
    for (std::size_t C = 0; C < NumCalls; ++C)
      if (CallSites[C] > IV.Start && CallSites[C] < IV.End) {
        Result[static_cast<std::size_t>(IV.Reg)] = 1;
        break;
      }
  }
  return Result;
}
