//===- observability/Report.cpp - tickc-report text renderer --------------===//

#include "observability/Report.h"

#include "observability/Events.h"
#include "observability/Names.h"
#include "observability/Profile.h"
#include "observability/RuntimeSymbols.h"
#include "observability/Sampler.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace tcc;
using namespace tcc::obs;

namespace {

struct PhaseRow {
  const char *Label;
  const char *Metric;
};

constexpr PhaseRow Phases[] = {
    {"setup", names::PhaseSetup},
    {"cgf walk", names::PhaseCgfWalk},
    {"flow graph", names::PhaseFlowGraph},
    {"liveness", names::PhaseLiveness},
    {"live intervals", names::PhaseLiveIntervals},
    {"regalloc", names::PhaseRegAlloc},
    {"peephole", names::PhasePeephole},
    {"emit", names::PhaseEmit},
    {"finalize", names::PhaseFinalize},
};

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, std::min<std::size_t>(static_cast<std::size_t>(N),
                                          sizeof(Buf) - 1));
}

void appendBar(std::string &Out, double Frac, unsigned Width = 28) {
  auto N = static_cast<unsigned>(Frac * Width + 0.5);
  N = std::min(N, Width);
  for (unsigned I = 0; I < N; ++I)
    Out += '#';
}

void renderHistogram(std::string &Out, const HistogramSnapshot &H) {
  if (H.Count == 0)
    return;
  double Mean = static_cast<double>(H.Sum) / static_cast<double>(H.Count);
  appendf(Out, "  %-34s n=%-8llu mean=%-10.0f min=%-8llu max=%llu\n",
          H.Name.c_str(), static_cast<unsigned long long>(H.Count), Mean,
          static_cast<unsigned long long>(H.Min),
          static_cast<unsigned long long>(H.Max));
}

} // namespace

std::uint64_t tcc::obs::phaseCycleSum(const MetricsSnapshot &S) {
  std::uint64_t Sum = 0;
  for (const PhaseRow &P : Phases)
    Sum += S.counter(P.Metric);
  return Sum;
}

bool tcc::obs::phaseCoverageOk(const MetricsSnapshot &S) {
  std::uint64_t Total = S.counter(names::CompileCyclesTotal);
  if (!Total)
    return true;
  return static_cast<double>(phaseCycleSum(S)) >=
         0.95 * static_cast<double>(Total);
}

std::string tcc::obs::renderReport(const MetricsSnapshot &S) {
  std::string Out;
  Out += "tickc-report: dynamic-compilation cost breakdown\n";
  Out += "================================================\n";

  std::uint64_t Total = S.counter(names::CompileCyclesTotal);
  std::uint64_t PhaseSum = phaseCycleSum(S);
  std::uint64_t Denom = std::max(Total, PhaseSum);

  Out += "compile phases (cycles, all compiles)\n";
  for (const PhaseRow &P : Phases) {
    std::uint64_t C = S.counter(P.Metric);
    if (C == 0)
      continue;
    double Frac = Denom ? static_cast<double>(C) / static_cast<double>(Denom)
                        : 0.0;
    appendf(Out, "  %-16s %12llu  %5.1f%%  ", P.Label,
            static_cast<unsigned long long>(C), Frac * 100.0);
    appendBar(Out, Frac);
    Out += '\n';
  }
  appendf(Out, "  %-16s %12llu  (compile total %llu; phases cover %.1f%%)\n",
          "phase sum", static_cast<unsigned long long>(PhaseSum),
          static_cast<unsigned long long>(Total),
          Total ? 100.0 * static_cast<double>(PhaseSum) /
                      static_cast<double>(Total)
                : 0.0);
  if (!phaseCoverageOk(S))
    appendf(Out,
            "  WARNING: phases cover only %.1f%% of compile.cycles.total "
            "(< 95%%) — a timed region lost its obs::Phase; the percentages "
            "above are understated\n",
            Total ? 100.0 * static_cast<double>(PhaseSum) /
                        static_cast<double>(Total)
                  : 0.0);

  std::uint64_t NV = S.counter(names::CompileCountVCode);
  std::uint64_t NI = S.counter(names::CompileCountICode);
  appendf(Out,
          "compiles: %llu vcode + %llu icode; %llu code bytes, "
          "%llu machine instrs, %llu spilled intervals\n",
          static_cast<unsigned long long>(NV),
          static_cast<unsigned long long>(NI),
          static_cast<unsigned long long>(S.counter(names::CompileCodeBytes)),
          static_cast<unsigned long long>(
              S.counter(names::CompileMachineInstrs)),
          static_cast<unsigned long long>(S.counter(names::SpilledIntervals)));
  appendf(Out,
          "partial evaluation: %llu loops unrolled, %llu dead branches "
          "eliminated, %llu strength reductions\n",
          static_cast<unsigned long long>(S.counter(names::LoopsUnrolled)),
          static_cast<unsigned long long>(
              S.counter(names::BranchesEliminated)),
          static_cast<unsigned long long>(
              S.counter(names::StrengthReductions)));
  appendf(Out,
          "icode predicates: %llu branch-free, %llu declined to the "
          "short-circuit chain\n",
          static_cast<unsigned long long>(
              S.counter(names::PredicatesBranchFree)),
          static_cast<unsigned long long>(
              S.counter(names::PredicatesDeclined)));

  std::uint64_t Hits = S.counter(names::CacheHits);
  std::uint64_t Misses = S.counter(names::CacheMisses);
  if (Hits + Misses) {
    appendf(Out,
            "cache: %llu hits / %llu misses (%.1f%% hit), %llu insertions, "
            "%llu evictions, %llu bytes resident\n",
            static_cast<unsigned long long>(Hits),
            static_cast<unsigned long long>(Misses),
            100.0 * static_cast<double>(Hits) /
                static_cast<double>(Hits + Misses),
            static_cast<unsigned long long>(
                S.counter(names::CacheInsertions)),
            static_cast<unsigned long long>(S.counter(names::CacheEvictions)),
            static_cast<unsigned long long>(
                S.counter(names::CacheBytesInserted) -
                S.counter(names::CacheBytesEvicted)));
  }
  // Persistent snapshot cache: warm-start loads are deliberately reported
  // apart from in-memory hits — a load costs a disk probe + relocation
  // patch + byte audit, not a map lookup, and "how many compiles did the
  // snapshot save this process" is the number the feature is judged by.
  std::uint64_t SnapHits = S.counter(names::SnapshotHits);
  std::uint64_t SnapMisses = S.counter(names::SnapshotMisses);
  std::uint64_t SnapSaves = S.counter(names::SnapshotSaves);
  std::uint64_t SnapRejects = S.counter(names::SnapshotRejects);
  if (SnapHits + SnapMisses + SnapSaves + SnapRejects) {
    Out += "snapshot (persistent cross-process code cache)\n";
    appendf(Out,
            "  %llu loads / %llu misses, %llu saves, %llu rejected, "
            "%llu unportable, %llu compactions, %llu budget evictions\n",
            static_cast<unsigned long long>(SnapHits),
            static_cast<unsigned long long>(SnapMisses),
            static_cast<unsigned long long>(SnapSaves),
            static_cast<unsigned long long>(SnapRejects),
            static_cast<unsigned long long>(
                S.counter(names::SnapshotUnportable)),
            static_cast<unsigned long long>(
                S.counter(names::SnapshotCompactions)),
            static_cast<unsigned long long>(
                S.counter(names::SnapshotEvictions)));
    std::uint64_t TierSnap = S.counter(names::TierBaselineSnapshot);
    if (TierSnap)
      appendf(Out, "  %llu tier baselines from snapshot, not compiled\n",
              static_cast<unsigned long long>(TierSnap));
    if (const HistogramSnapshot *H = S.histogram(names::HistSnapshotLoad))
      if (H->Count) {
        Out += "  load latency (probe -> executable fn, cycles)\n";
        renderHistogram(Out, *H);
      }
  }

  std::uint64_t Fresh = S.counter(names::HeapFresh);
  std::uint64_t Reused = S.counter(names::HeapReused);
  if (Fresh + Reused)
    appendf(Out,
            "code heap: %llu chunks mapped; %llu blocks fresh, %llu reused "
            "from freelists, %llu freed\n",
            static_cast<unsigned long long>(S.counter(names::HeapChunks)),
            static_cast<unsigned long long>(Fresh),
            static_cast<unsigned long long>(Reused),
            static_cast<unsigned long long>(S.counter(names::HeapFreed)));

  // Compile-overhead vitals for the zero-allocation fast path: per-backend
  // cycles per generated instruction, arena footprint, and how often a
  // compile had a recycled context waiting for it.
  const HistogramSnapshot *CpiV = S.histogram(names::HistCpiVCode);
  const HistogramSnapshot *CpiI = S.histogram(names::HistCpiICode);
  const HistogramSnapshot *ArenaB = S.histogram(names::HistArenaBytes);
  std::uint64_t CtxHits = S.counter(names::CtxPoolHits);
  std::uint64_t CtxMisses = S.counter(names::CtxPoolMisses);
  if ((CpiV && CpiV->Count) || (CpiI && CpiI->Count) ||
      (ArenaB && ArenaB->Count) || CtxHits + CtxMisses) {
    Out += "compile overhead (cycles per generated instruction)\n";
    for (auto [Label, H] : {std::pair<const char *, const HistogramSnapshot *>(
                                "vcode", CpiV),
                            {"icode", CpiI}}) {
      if (!H || !H->Count)
        continue;
      appendf(Out, "  %-6s mean=%-6.0f min=%-6llu max=%-8llu (%llu compiles)\n",
              Label,
              static_cast<double>(H->Sum) / static_cast<double>(H->Count),
              static_cast<unsigned long long>(H->Min),
              static_cast<unsigned long long>(H->Max),
              static_cast<unsigned long long>(H->Count));
    }
    if (ArenaB && ArenaB->Count)
      appendf(Out,
              "  arena: mean %.0f bytes/compile, high water %llu bytes, "
              "%llu slab allocations (compile.allocs; 0 = steady state)\n",
              static_cast<double>(ArenaB->Sum) /
                  static_cast<double>(ArenaB->Count),
              static_cast<unsigned long long>(ArenaB->Max),
              static_cast<unsigned long long>(
                  S.counter(names::CompileAllocs)));
    if (CtxHits + CtxMisses)
      appendf(Out, "  context pool: %llu hits / %llu misses (%.1f%% reuse)\n",
              static_cast<unsigned long long>(CtxHits),
              static_cast<unsigned long long>(CtxMisses),
              100.0 * static_cast<double>(CtxHits) /
                  static_cast<double>(CtxHits + CtxMisses));
  }

  std::uint64_t TierReq = S.counter(names::TierEnqueued);
  std::uint64_t TierDone = S.counter(names::TierPromotions);
  if (TierReq + TierDone) {
    Out += "tiers (baseline-first dispatch, background icode promotion)\n";
    appendf(Out,
            "  %llu requests -> %llu promotions (%llu queue-full, "
            "%llu stale, %llu abandoned)\n",
            static_cast<unsigned long long>(TierReq),
            static_cast<unsigned long long>(TierDone),
            static_cast<unsigned long long>(S.counter(names::TierQueueFull)),
            static_cast<unsigned long long>(S.counter(names::TierStale)),
            static_cast<unsigned long long>(S.counter(names::TierAbandoned)));
    appendf(Out, "  retired: %llu baseline fns, %llu code bytes; "
                 "%llu single-flight waits\n",
            static_cast<unsigned long long>(S.counter(names::TierRetiredFns)),
            static_cast<unsigned long long>(
                S.counter(names::TierRetiredBytes)),
            static_cast<unsigned long long>(
                S.counter(names::CacheSingleflightWait)));
    if (const HistogramSnapshot *H =
            S.histogram(names::HistTierPromoteLatency)) {
      if (H->Count) {
        Out += "  promotion latency (enqueue -> slot swap, cycles)\n";
        renderHistogram(Out, *H);
        // The bucket spread matters more than the mean here: the tail is
        // the window a caller spends on the baseline tier.
        for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
          std::uint64_t N = H->Buckets[B];
          if (!N)
            continue;
          appendf(Out, "    >=%-14llu %8llu  ",
                  static_cast<unsigned long long>(Histogram::bucketLo(B)),
                  static_cast<unsigned long long>(N));
          appendBar(Out,
                    static_cast<double>(N) / static_cast<double>(H->Count));
          Out += '\n';
        }
      }
    }
  }

  // Verification: per-layer pass/fail volume, plus what fraction of total
  // compile time the checkers themselves cost (they run inside compiles, so
  // verify.cycles is a share of compile.cycles.total).
  struct VerifyRow {
    const char *Label;
    const char *Checked, *Failed;
  };
  constexpr VerifyRow VRows[] = {
      {"spec lint", names::VerifySpecChecked, names::VerifySpecFailed},
      {"ir verifier", names::VerifyIrChecked, names::VerifyIrFailed},
      {"alloc audit", names::VerifyAllocChecked, names::VerifyAllocFailed},
      {"admission", names::VerifyAdmitChecked, names::VerifyAdmitFailed},
  };
  std::uint64_t VChecked = 0;
  for (const VerifyRow &V : VRows)
    VChecked += S.counter(V.Checked);
  if (VChecked) {
    Out += "verify (self-checks over the compile pipeline)\n";
    for (const VerifyRow &V : VRows) {
      std::uint64_t C = S.counter(V.Checked), F = S.counter(V.Failed);
      if (!C && !F)
        continue;
      appendf(Out, "  %-12s %10llu checked  %llu failed%s\n", V.Label,
              static_cast<unsigned long long>(C),
              static_cast<unsigned long long>(F), F ? "  <-- FAIL" : "");
    }
    std::uint64_t ABlk = S.counter(names::VerifyAdmitBlocks);
    std::uint64_t ACall = S.counter(names::VerifyAdmitCalls);
    if (ABlk)
      appendf(Out,
              "  admission: %llu CFG blocks analyzed, %llu indirect calls "
              "proven confined\n",
              static_cast<unsigned long long>(ABlk),
              static_cast<unsigned long long>(ACall));
    std::uint64_t VCyc = S.counter(names::VerifyCycles);
    appendf(Out, "  verify time: %llu cycles (%.1f%% of compile cycles)\n",
            static_cast<unsigned long long>(VCyc),
            Total ? 100.0 * static_cast<double>(VCyc) /
                        static_cast<double>(Total)
                  : 0.0);
  }

  // Admission stages, from the traced spans still in the ring (only a
  // traced run records them; the untraced cost is one relaxed load each).
  struct StageRow {
    EventKind Kind;
    std::uint64_t N = 0, Cycles = 0;
  };
  StageRow Stages[] = {{EventKind::AdmitDecode},
                       {EventKind::AdmitCfg},
                       {EventKind::AdmitFixpoint}};
  std::uint64_t StageSum = 0;
  for (const EventRing::Record &R : EventRing::global().snapshot())
    for (StageRow &St : Stages)
      if (R.Kind == St.Kind) {
        ++St.N;
        St.Cycles += R.A - R.Tsc;
        StageSum += R.A - R.Tsc;
      }
  if (StageSum) {
    Out += "admission stages (traced spans in the ring)\n";
    for (const StageRow &St : Stages)
      appendf(Out, "  %-16s n=%-8llu mean=%-8.0f %5.1f%%\n",
              eventName(St.Kind), static_cast<unsigned long long>(St.N),
              St.N ? static_cast<double>(St.Cycles) /
                         static_cast<double>(St.N)
                   : 0.0,
              100.0 * static_cast<double>(St.Cycles) /
                  static_cast<double>(StageSum));
  }

  bool AnyHist = false;
  for (const HistogramSnapshot &H : S.Histograms)
    AnyHist |= H.Count != 0;
  if (AnyHist) {
    Out += "compile latency (cycles per compile)\n";
    for (const HistogramSnapshot &H : S.Histograms)
      renderHistogram(Out, H);
  }

  auto Entries = ProfileRegistry::global().entries();
  std::vector<std::shared_ptr<ProfileEntry>> Hot;
  for (auto &E : Entries)
    if (E->Invocations.load(std::memory_order_relaxed) ||
        E->CompileCycles.load(std::memory_order_relaxed))
      Hot.push_back(E);
  if (!Hot.empty()) {
    std::sort(Hot.begin(), Hot.end(), [](const auto &A, const auto &B) {
      return A->Invocations.load(std::memory_order_relaxed) >
             B->Invocations.load(std::memory_order_relaxed);
    });
    Out += "hot dynamic functions (invocations vs compile cost)\n";
    std::size_t N = std::min<std::size_t>(Hot.size(), 10);
    for (std::size_t I = 0; I < N; ++I) {
      const ProfileEntry &E = *Hot[I];
      appendf(Out,
              "  %-24s %12llu calls  %10llu compile cycles  %6llu bytes "
              "(%s)\n",
              E.Name.empty() ? "<anon>" : E.Name.c_str(),
              static_cast<unsigned long long>(
                  E.Invocations.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  E.CompileCycles.load(std::memory_order_relaxed)),
              static_cast<unsigned long long>(
                  E.CodeBytes.load(std::memory_order_relaxed)),
              E.Backend.load(std::memory_order_relaxed));
    }
    if (Hot.size() > N)
      appendf(Out, "  ... and %llu more\n",
              static_cast<unsigned long long>(Hot.size() - N));
  }

  // Execution hotspots: where SIGPROF samples actually landed, resolved
  // against the runtime symbol table (live regions plus the retained
  // totals of tier-retired generations).
  std::uint64_t SampTotal = S.counter(names::SampleTotal);
  if (SampTotal) {
    std::uint64_t SampHits = S.counter(names::SampleHits);
    appendf(Out,
            "hotspots (execution samples @ %u Hz)\n"
            "  %llu samples, %llu in generated code (%.1f%% attributed), "
            "%llu native\n",
            Sampler::global().hz(),
            static_cast<unsigned long long>(SampTotal),
            static_cast<unsigned long long>(SampHits),
            100.0 * static_cast<double>(SampHits) /
                static_cast<double>(SampTotal),
            static_cast<unsigned long long>(S.counter(names::SampleMisses)));
    std::vector<SymbolInfo> Syms = RuntimeSymbolTable::global().hotSymbols();
    std::size_t Shown = 0;
    for (const SymbolInfo &Sym : Syms) {
      if (!Sym.Samples || Shown == 10)
        break;
      ++Shown;
      appendf(Out, "  %-32s %10llu samples  %5.1f%%%s  ", Sym.Name.c_str(),
              static_cast<unsigned long long>(Sym.Samples),
              100.0 * static_cast<double>(Sym.Samples) /
                  static_cast<double>(SampTotal),
              Sym.Live ? "" : " (retired)");
      appendBar(Out, static_cast<double>(Sym.Samples) /
                         static_cast<double>(SampTotal));
      Out += '\n';
    }
  }

  // Flight recorder: the tail of the event ring a fatal-signal dump would
  // print, summarized.
  EventRing &ER = EventRing::global();
  if (std::uint64_t Events = ER.eventCount()) {
    auto Ring = ER.snapshot();
    appendf(Out, "flight recorder: %llu events (%zu in ring%s); last:\n",
            static_cast<unsigned long long>(Events), Ring.size(),
            ER.fatalHandlerInstalled() ? ", fatal-signal dump armed" : "");
    std::size_t First = Ring.size() > 6 ? Ring.size() - 6 : 0;
    for (std::size_t I = First; I < Ring.size(); ++I) {
      const EventRing::Record &R = Ring[I];
      if (isSpan(R.Kind))
        appendf(Out, "  %-14s tid %-28u %llu cycles\n", eventName(R.Kind),
                R.Tid, static_cast<unsigned long long>(R.A - R.Tsc));
      else
        appendf(Out, "  %-14s %-32s a=%llx b=%llx\n", eventName(R.Kind),
                R.Name[0] ? R.Name : "-", static_cast<unsigned long long>(R.A),
                static_cast<unsigned long long>(R.B));
    }
  }
  return Out;
}

std::string tcc::obs::renderReport() {
  return renderReport(MetricsRegistry::global().snapshot());
}
