//===- observability/Events.h - One ring: spans and instants ----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one store for runtime events: a fixed-size lock-free ring of
///   * spans, one per pipeline phase the paper costs out (Figures 6/7) plus
///     the cache, code heap and tier layers around them, written by a
///     compile's LapClock and by obs::Phase while tracing is on (TICKC_TRACE=<path> or traceStart()) and
///     exported by traceStop() as Chrome trace-event JSON (Perfetto);
///   * instants (compile begin/end, tier swap, cache evict, verify failure,
///     region retire), always on, so the fatal-signal handler (opt-in via
///     TICKC_FLIGHT=1) can dump the newest records next to the
///     specialization the faulting PC landed in.
///
/// Writers claim a slot with one fetch_add and publish it by storing the
/// ticket into the slot's sequence word last; readers accept a record only
/// when the sequence matches its ticket, so half-written or wrapped records
/// are skipped, never torn. Recording takes no locks and allocates nothing.
///
/// A compile's phases are laps of one LapClock: one fenced stamp per phase
/// boundary, so the phases tile the compile, and while tracing each lap is
/// its span. Everything else is an obs::Phase, a span only: with tracing
/// off, one relaxed load and a branch.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_EVENTS_H
#define TICKC_OBSERVABILITY_EVENTS_H

#include "observability/Names.h"
#include "support/Timing.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcc {
namespace obs {

/// Every record kind in the ring. Span kinds come first; a span record
/// stores Tsc = begin and A = end. Instants carry their own payload.
enum class EventKind : std::uint8_t {
  // Spans.
  CompileTotal,    ///< The timed part of one compileFn() call.
  Setup,           ///< Backend and walker construction.
  SpecFingerprint, ///< buildSpecKey(): canonical serialization + hash.
  CacheProbe,      ///< CodeCache::lookup or acquire (hit or miss).
  CacheInsert,     ///< CodeCache::publish (includes CLOCK eviction).
  CGFWalk,         ///< The code-generating-function walk (§4.4).
  FlowGraph,       ///< ICODE flow-graph construction.
  Liveness,        ///< Iterative live-variable solution.
  LiveIntervals,   ///< Coarse interval derivation.
  LinearScan,      ///< Linear-scan register allocation (Figure 3).
  GraphColor,      ///< Graph-coloring register allocation.
  Peephole,        ///< ICODE dead-code/peephole pass.
  Emit,            ///< ICODE -> VCODE -> binary translation.
  Finalize,        ///< Code copied into its heap block, entry translated.
  Verify,          ///< One verify layer's check (TICKC_VERIFY).
  AdmitDecode,     ///< Admission: strict decode and the linear facts.
  AdmitCfg,        ///< Admission: control-flow graph recovery.
  AdmitFixpoint,   ///< Admission: abstract-interpretation fixpoint.
  ICacheFlush,     ///< makeExecutable(): mprotect + icache sync.
  CodeInstall,     ///< CodeHeap::install (block + copy).
  CodeFree,        ///< A dead function's block back on its freelist.
  TierEnqueue,     ///< Promotion request pushed onto the tier queue.
  TierCompile,     ///< Background recompile of a spec.
  TierSwap,        ///< Dispatch-slot swap to the new entry.
  // Instants.
  CompileBegin, ///< A = SpecKey hash (0 if uncacheable), Name = symbol.
  CompileEnd,   ///< A = code bytes, B = total compile cycles.
  TierSwapped,  ///< A = old entry, B = new entry, Name = symbol.
  CacheEvict,   ///< A = entry, B = code bytes, Name = symbol.
  VerifyFail,   ///< Name = failing layer/rule.
  RegionRetire, ///< A = entry, B = size, Name = symbol.
  PredicateDeclined, ///< A = leaves scanned, Name = reason (ICODE).
};

inline bool isSpan(EventKind K) { return K < EventKind::CompileBegin; }

/// Stable name of a kind: Perfetto span names ("cgf-walk") and the dotted
/// instant names of the crash dump ("compile.end").
const char *eventName(EventKind K);

class EventRing {
public:
  /// Power of two: 32K slots of 80 bytes, ~2.5 MiB of zero pages that are
  /// touched only as the ring fills.
  static constexpr unsigned Capacity = 1u << 15;
  /// Records the fatal-signal dump prints, newest last.
  static constexpr unsigned DumpWindow = 256;
  static constexpr unsigned NameBytes = 40;

  struct Record {
    std::uint64_t Tsc = 0;
    std::uint64_t A = 0, B = 0;
    EventKind Kind = EventKind::CompileBegin;
    std::uint32_t Tid = 0; ///< Small per-thread id, from 1.
    char Name[NameBytes] = {};
  };

  /// All fields are relaxed atomics (the name packed into words), so a
  /// reader racing a wrapping writer is well-defined — the sequence check
  /// then discards the torn result.
  struct Slot {
    /// 0 = never written; otherwise the claim ticket + 1 of the writer
    /// that last completed this slot.
    std::atomic<std::uint64_t> Seq{0};
    std::atomic<std::uint64_t> Tsc{0}, A{0}, B{0};
    std::atomic<std::uint8_t> Kind{0};
    std::atomic<std::uint32_t> Tid{0};
    std::atomic<std::uint64_t> Name[NameBytes / 8] = {};
  };

  /// The process-wide ring. Constant-initialized and trivially destructible:
  /// the fatal handler runs at arbitrary times, including during static
  /// destruction.
  static EventRing &global() {
    static constinit EventRing R;
    return R;
  }

  /// Appends an instant. Lock-free, allocation-free, callable from any
  /// normal thread (not from signal context — the fatal handler only
  /// reads).
  void record(EventKind Kind, std::uint64_t A = 0, std::uint64_t B = 0,
              const char *Name = nullptr);

  /// Appends a span in two steps around its closing stamp: claim() takes
  /// the next ticket and fills its slot, leaving it unreadable (sequence
  /// 0); publishSpan() stores the end stamp and publishes the record.
  std::uint64_t claim(EventKind Kind, std::uint64_t Tsc, std::uint64_t A = 0,
                      std::uint64_t B = 0, const char *Name = nullptr);
  void publishSpan(std::uint64_t Ticket, std::uint64_t EndTsc) {
    Slot &S = Ring[Ticket & (Capacity - 1)];
    S.A.store(EndTsc, std::memory_order_relaxed);
    S.Seq.store(Ticket + 1, std::memory_order_release);
  }

  /// Installs the fatal-signal dump handler (idempotent) on an alternate
  /// stack, chaining to the default disposition after dumping so the
  /// process still dies with the original signal.
  void installFatalHandler();
  bool fatalHandlerInstalled() const { return FatalInstalled.load(); }

  /// Writes the newest DumpWindow records (oldest first) to \p Fd using
  /// only async-signal-safe primitives. \p FaultPC, when nonzero, is
  /// resolved against the RuntimeSymbolTable and reported as the faulting
  /// specialization.
  void dump(int Fd, std::uintptr_t FaultPC = 0);

  /// Records ever appended (the next claim ticket).
  std::uint64_t eventCount() const {
    return Head.load(std::memory_order_relaxed);
  }

  /// Consistent copies of the readable records with ticket >= \p From,
  /// oldest first.
  std::vector<Record> snapshot(std::uint64_t From = 0);

  void resetForTesting();

  /// Touches every page of the ring, so a trace does not pay first-touch
  /// page faults inside the phases it measures.
  void prefault();

private:
  constexpr EventRing() = default;

  std::atomic<std::uint64_t> Head{0}; ///< Next claim ticket.
  std::atomic<bool> FatalInstalled{false};
  Slot Ring[Capacity];
};

/// Convenience: append an instant to the global ring.
inline void recordEvent(EventKind Kind, std::uint64_t A = 0,
                        std::uint64_t B = 0, const char *Name = nullptr) {
  EventRing::global().record(Kind, A, B, Name);
}

namespace detail {
extern std::atomic<bool> TraceActive;
} // namespace detail

/// True while a trace is being recorded. The disabled fast path every span
/// site takes: a relaxed load and a branch.
inline bool traceEnabled() {
  return detail::TraceActive.load(std::memory_order_relaxed);
}

/// Starts recording spans from the ring's current ticket; the eventual
/// traceStop() writes Chrome trace-event JSON to \p Path (pass nullptr to
/// record without a destination — useful for tests that export
/// explicitly). traceStart and traceStop are control calls: make them
/// from one thread at a time.
void traceStart(const char *Path);

/// Stops recording and exports the spans recorded since traceStart() to
/// its path (if any). Returns false if a destination was set but could not
/// be written.
bool traceStop();

/// Like traceStop() but writing to \p Path regardless of what traceStart()
/// was given.
bool traceStopTo(const char *Path);

/// A span-only instrument for the layers around a compile: while tracing,
/// a Phase stamps the fenced TSC at construction and destruction and
/// appends the pair as a span of its kind; otherwise it reads no clock.
/// Spans on one thread strictly nest (stack-scoped instances do), which is
/// how the exporter rebuilds begin/end pairs.
class Phase {
public:
  explicit Phase(EventKind K) : Kind(K), Traced(traceEnabled()) {
    if (Traced)
      Begin = readCycleCounterBegin();
  }
  ~Phase() {
    if (!Traced)
      return;
    // The span claims its slot before the closing stamp, so the append is
    // charged to the phase it records rather than falling between phases.
    EventRing &Ring = EventRing::global();
    std::uint64_t Ticket = Ring.claim(Kind, Begin);
    Ring.publishSpan(Ticket, readCycleCounterEnd());
  }

  Phase(const Phase &) = delete;
  Phase &operator=(const Phase &) = delete;

private:
  std::uint64_t Begin = 0;
  EventKind Kind;
  bool Traced;
};

/// The phases of one compile (paper Figures 6/7), in pipeline order. All
/// but Verify make up the compile's total; Verify is the checker time
/// TICKC_VERIFY adds, a lap of its own outside the total.
enum class CompilePhase : std::uint8_t {
  Setup, CgfWalk, FlowGraph, Liveness, LiveIntervals, RegAlloc, Peephole,
  Emit, Finalize, Verify,
};
inline constexpr unsigned NumTotalPhases =
    static_cast<unsigned>(CompilePhase::Verify);
inline constexpr unsigned NumCompilePhases = NumTotalPhases + 1;

/// Each compile phase's span kind, cycle counter and report label.
struct CompilePhaseInfo {
  EventKind Span;
  const char *Metric; ///< Verify's is charged by verify::recordOutcome.
  const char *Label;
};
inline constexpr CompilePhaseInfo CompilePhases[NumCompilePhases] = {
    {EventKind::Setup, names::PhaseSetup, "setup"},
    {EventKind::CGFWalk, names::PhaseCgfWalk, "cgf walk"},
    {EventKind::FlowGraph, names::PhaseFlowGraph, "flow graph"},
    {EventKind::Liveness, names::PhaseLiveness, "liveness"},
    {EventKind::LiveIntervals, names::PhaseLiveIntervals, "live intervals"},
    {EventKind::LinearScan, names::PhaseRegAlloc, "regalloc"},
    {EventKind::Peephole, names::PhasePeephole, "peephole"},
    {EventKind::Emit, names::PhaseEmit, "emit"},
    {EventKind::Finalize, names::PhaseFinalize, "finalize"},
    {EventKind::Verify, names::VerifyCycles, "verify"},
};

/// Cycles per compile phase, indexed by CompilePhase.
struct PhaseCycles {
  std::uint64_t Cycles[NumCompilePhases] = {};

  std::uint64_t &operator[](CompilePhase P) {
    return Cycles[static_cast<unsigned>(P)];
  }
  std::uint64_t operator[](CompilePhase P) const {
    return Cycles[static_cast<unsigned>(P)];
  }
  /// The compile's total: every lap but Verify's.
  std::uint64_t total() const {
    std::uint64_t Sum = 0;
    for (unsigned I = 0; I < NumTotalPhases; ++I)
      Sum += Cycles[I];
    return Sum;
  }
};

/// The one clock of a compile. It stamps the fenced TSC when it starts and
/// at each lap; lap(P) charges the cycles since the previous stamp to P, so
/// the laps tile the time since the start with nothing left over. While
/// tracing, each lap is also a span of its phase's kind.
class LapClock {
public:
  explicit LapClock(PhaseCycles &Into)
      : Into(Into), Traced(traceEnabled()), Start(readCycleCounterEnd()),
        Last(Start) {}

  /// Ends the current lap, charges it to \p P and returns its cycles; \p
  /// Span overrides the phase's span kind (linear-scan or graph-color).
  std::uint64_t lap(CompilePhase P, EventKind Span) {
    // The span claims its slot before the stamp, so the append is charged
    // to the lap it records.
    EventRing &Ring = EventRing::global();
    std::uint64_t Ticket = Traced ? Ring.claim(Span, Last) : 0;
    std::uint64_t Now = readCycleCounterEnd();
    if (Traced)
      Ring.publishSpan(Ticket, Now);
    std::uint64_t Cycles = Now - Last;
    Into[P] += Cycles;
    Last = Now;
    return Cycles;
  }
  std::uint64_t lap(CompilePhase P) {
    return lap(P, CompilePhases[static_cast<unsigned>(P)].Span);
  }

  /// While tracing, appends a span of kind \p K over every lap so far.
  void spanAll(EventKind K) const {
    if (Traced)
      EventRing::global().publishSpan(EventRing::global().claim(K, Start),
                                      Last);
  }

private:
  PhaseCycles &Into;
  bool Traced;
  std::uint64_t Start, Last;
};

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_EVENTS_H
