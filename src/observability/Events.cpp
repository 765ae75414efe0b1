//===- observability/Events.cpp - One event ring: spans and instants ------===//

#include "observability/Events.h"

#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/RuntimeSymbols.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <tuple>
#include <type_traits>

#include <signal.h>
#include <ucontext.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::obs;

namespace {

constexpr const char *EventNames[] = {
    // Spans.
    "compile", "spec-fingerprint", "cache-probe", "cache-insert", "cgf-walk",
    "flow-graph", "liveness", "live-intervals", "linear-scan", "graph-color",
    "peephole", "emit", "finalize", "verify", "admit-decode", "admit-cfg",
    "admit-fixpoint", "icache-flush", "code-install", "code-free",
    "tier-enqueue", "tier-compile", "tier-swap",
    // Instants.
    "compile.begin", "compile.end", "tier.swap", "cache.evict", "verify.fail",
    "region.retire", "predicate.declined"};
static_assert(std::size(EventNames) ==
                  static_cast<std::size_t>(EventKind::PredicateDeclined) + 1,
              "one name per event kind");

static_assert(sizeof(EventRing::Slot) == 80, "spans reuse the 80-byte slot");
static_assert(std::is_trivially_destructible_v<EventRing>,
              "the ring must survive static destruction");

std::atomic<std::uint32_t> NextTid{1};

/// Small per-thread id, taken on a thread's first record.
std::uint32_t threadId() {
  thread_local std::uint32_t Tid = 0;
  if (!Tid)
    Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

} // namespace

const char *tcc::obs::eventName(EventKind K) {
  unsigned I = static_cast<unsigned>(K);
  return I < std::size(EventNames) ? EventNames[I] : "?";
}

std::uint64_t EventRing::claim(EventKind Kind, std::uint64_t Tsc,
                               std::uint64_t A, std::uint64_t B,
                               const char *Name) {
  std::uint64_t Ticket = Head.fetch_add(1, std::memory_order_relaxed);
  Slot &S = Ring[Ticket & (Capacity - 1)];

  // Invalidate, fill, then (in the caller) publish: a reader that loads Seq
  // before and after and sees the same nonzero ticket knows every field
  // load between was sound.
  S.Seq.store(0, std::memory_order_release);
  S.Tsc.store(Tsc, std::memory_order_relaxed);
  S.A.store(A, std::memory_order_relaxed);
  S.B.store(B, std::memory_order_relaxed);
  S.Kind.store(static_cast<std::uint8_t>(Kind), std::memory_order_relaxed);
  S.Tid.store(threadId(), std::memory_order_relaxed);
  if (!isSpan(Kind)) {
    std::uint64_t Words[NameBytes / 8] = {};
    if (Name)
      std::strncpy(reinterpret_cast<char *>(Words), Name, NameBytes - 1);
    for (unsigned I = 0; I < NameBytes / 8; ++I)
      S.Name[I].store(Words[I], std::memory_order_relaxed);
  }
  return Ticket;
}

void EventRing::record(EventKind Kind, std::uint64_t A, std::uint64_t B,
                       const char *Name) {
  static Counter &Events =
      MetricsRegistry::global().counter(names::FlightEvents);
  std::uint64_t Ticket = claim(Kind, readCycleCounter(), A, B, Name);
  Ring[Ticket & (Capacity - 1)].Seq.store(Ticket + 1,
                                          std::memory_order_release);
  Events.inc();
}

//===----------------------------------------------------------------------===//
// Reading the ring
//===----------------------------------------------------------------------===//

namespace {

/// Reads one slot into \p Out iff it still holds \p Ticket's record.
bool readSlot(const EventRing::Slot &S, std::uint64_t Ticket,
              EventRing::Record &Out) {
  if (S.Seq.load(std::memory_order_acquire) != Ticket + 1)
    return false;
  Out.Tsc = S.Tsc.load(std::memory_order_relaxed);
  Out.A = S.A.load(std::memory_order_relaxed);
  Out.B = S.B.load(std::memory_order_relaxed);
  Out.Kind = static_cast<EventKind>(S.Kind.load(std::memory_order_relaxed));
  Out.Tid = S.Tid.load(std::memory_order_relaxed);
  std::uint64_t Words[EventRing::NameBytes / 8] = {};
  if (!isSpan(Out.Kind))
    for (unsigned I = 0; I < EventRing::NameBytes / 8; ++I)
      Words[I] = S.Name[I].load(std::memory_order_relaxed);
  if (S.Seq.load(std::memory_order_acquire) != Ticket + 1)
    return false;
  std::memcpy(Out.Name, Words, EventRing::NameBytes);
  Out.Name[EventRing::NameBytes - 1] = '\0';
  return true;
}

// --- Async-signal-safe formatting (write(2) + manual digits only) --------

void fdWrite(int Fd, const char *S, std::size_t N) {
  while (N) {
    ssize_t W = ::write(Fd, S, N);
    if (W <= 0)
      return;
    S += W;
    N -= static_cast<std::size_t>(W);
  }
}

void fdStr(int Fd, std::initializer_list<const char *> Parts) {
  for (const char *S : Parts)
    fdWrite(Fd, S, std::strlen(S));
}

/// Decimal, or 0x-prefixed hex when \p Base is 16.
void fdNum(int Fd, std::uint64_t V, unsigned Base = 10) {
  char Buf[24];
  char *P = Buf + sizeof(Buf);
  do {
    unsigned D = static_cast<unsigned>(V % Base);
    *--P = static_cast<char>(D < 10 ? '0' + D : 'a' + D - 10);
    V /= Base;
  } while (V);
  if (Base == 16) {
    *--P = 'x';
    *--P = '0';
  }
  fdWrite(Fd, P, static_cast<std::size_t>(Buf + sizeof(Buf) - P));
}

} // namespace

void EventRing::dump(int Fd, std::uintptr_t FaultPC) {
  fdStr(Fd, {"=== tickc flight recorder ===\n"});
  if (FaultPC) {
    fdStr(Fd, {"fault pc "});
    fdNum(Fd, FaultPC, 16);
    char Name[RuntimeSymbolTable::NameBytes];
    std::uintptr_t Start = 0;
    std::size_t Size = 0;
    if (RuntimeSymbolTable::global().resolve(FaultPC, Name, &Start, &Size)) {
      fdStr(Fd, {" in specialization '", Name, "' ("});
      fdNum(Fd, Start, 16);
      fdStr(Fd, {"+"});
      fdNum(Fd, FaultPC - Start, 16);
      fdStr(Fd, {", size "});
      fdNum(Fd, Size);
      fdStr(Fd, {")\n"});
    } else {
      fdStr(Fd, {" outside generated code\n"});
    }
  }
  std::uint64_t H = Head.load(std::memory_order_acquire);
  std::uint64_t First = H > DumpWindow ? H - DumpWindow : 0;
  fdStr(Fd, {"events "});
  fdNum(Fd, H);
  fdStr(Fd, {" total, newest "});
  fdNum(Fd, H - First);
  fdStr(Fd, {":\n"});
  for (std::uint64_t T = First; T < H; ++T) {
    Record R;
    if (!readSlot(Ring[T & (Capacity - 1)], T, R))
      continue;
    fdStr(Fd, {"  ["});
    fdNum(Fd, T);
    fdStr(Fd, {"] tsc="});
    fdNum(Fd, R.Tsc);
    if (isSpan(R.Kind)) {
      fdStr(Fd, {" span ", eventName(R.Kind), " tid="});
      fdNum(Fd, R.Tid);
      fdStr(Fd, {" cycles="});
      fdNum(Fd, R.A - R.Tsc);
    } else {
      fdStr(Fd, {" ", eventName(R.Kind)});
      if (R.Name[0])
        fdStr(Fd, {" '", R.Name, "'"});
      fdStr(Fd, {" a="});
      fdNum(Fd, R.A, 16);
      fdStr(Fd, {" b="});
      fdNum(Fd, R.B, 16);
    }
    fdStr(Fd, {"\n"});
  }
  fdStr(Fd, {"=== end flight recorder ===\n"});
}

std::vector<EventRing::Record> EventRing::snapshot(std::uint64_t From) {
  std::vector<Record> Out;
  std::uint64_t H = Head.load(std::memory_order_acquire);
  std::uint64_t First = std::max(From, H > Capacity ? H - Capacity : 0);
  for (std::uint64_t T = First; T < H; ++T) {
    Record R;
    if (readSlot(Ring[T & (Capacity - 1)], T, R))
      Out.push_back(R);
  }
  return Out;
}

void EventRing::prefault() {
  // One write per page (a slot is 80 bytes, a page 4096): the no-op RMW
  // keeps any record already there intact.
  for (unsigned I = 0; I < Capacity; I += 4096 / sizeof(Slot))
    Ring[I].Seq.fetch_add(0, std::memory_order_relaxed);
}

void EventRing::resetForTesting() {
  for (Slot &S : Ring)
    S.Seq.store(0, std::memory_order_relaxed);
  Head.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Chrome-trace export
//===----------------------------------------------------------------------===//

std::atomic<bool> tcc::obs::detail::TraceActive{false};

namespace {

/// First ticket of the current trace, and where traceStop() writes it (a
/// plain array: the atexit export must never see it destroyed).
std::atomic<std::uint64_t> TraceFrom{0};
char TracePath[4096];

bool exportTrace(const char *Path) {
  if (!Path || !*Path)
    return true;
  std::vector<EventRing::Record> Spans =
      EventRing::global().snapshot(TraceFrom.load(std::memory_order_relaxed));
  std::erase_if(Spans,
                [](const EventRing::Record &R) { return !isSpan(R.Kind); });
  // Per thread, begin ascending and end descending: a sweep with a stack
  // then reproduces the original call nesting as B/E pairs.
  std::sort(Spans.begin(), Spans.end(), [](const auto &X, const auto &Y) {
    return std::tuple(X.Tid, X.Tsc, Y.A) < std::tuple(Y.Tid, Y.Tsc, X.A);
  });

  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  std::uint64_t Epoch = UINT64_MAX;
  for (const EventRing::Record &R : Spans)
    Epoch = std::min(Epoch, R.Tsc);
  double CyclesPerUs = cyclesPerNano() * 1000.0;
  const char *Sep = "";
  auto Emit = [&](const char *Ph, const EventRing::Record &R,
                  std::uint64_t Tsc) {
    std::fprintf(F,
                 "%s\n    {\"name\": \"%s\", \"cat\": \"tickc\", "
                 "\"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                 Sep, eventName(R.Kind), Ph,
                 static_cast<double>(Tsc - Epoch) / CyclesPerUs, R.Tid);
    Sep = ",";
  };

  std::fprintf(F, "{\n  \"displayTimeUnit\": \"ns\",\n"
                  "  \"traceEvents\": [");
  std::vector<EventRing::Record> Stack;
  for (std::size_t I = 0; I <= Spans.size(); ++I) {
    bool Last = I == Spans.size();
    // Close the open spans that end before this one begins — all of them
    // at a thread change or at the end.
    while (!Stack.empty() &&
           (Last || Spans[I].Tid != Stack.back().Tid ||
            Stack.back().A <= Spans[I].Tsc)) {
      Emit("E", Stack.back(), Stack.back().A);
      Stack.pop_back();
    }
    if (Last)
      break;
    EventRing::Record R = Spans[I];
    // Spans on one thread nest strictly; clamp any drift (a parent span
    // lost to ring wraparound) so output stays balanced.
    if (!Stack.empty() && R.A > Stack.back().A)
      R.A = Stack.back().A;
    Emit("B", R, R.Tsc);
    Stack.push_back(R);
  }
  std::fprintf(F, "\n  ]\n}\n");
  return std::fclose(F) == 0;
}

/// TICKC_TRACE=<path>: start at load, export at exit.
struct EnvActivation {
  EnvActivation() {
    const char *Path = std::getenv("TICKC_TRACE");
    if (Path && *Path) {
      traceStart(Path);
      std::atexit([] { (void)traceStop(); });
    }
  }
} EnvActivationInit;

} // namespace

void tcc::obs::traceStart(const char *Path) {
  std::snprintf(TracePath, sizeof(TracePath), "%s", Path ? Path : "");
  EventRing::global().prefault();
  TraceFrom.store(EventRing::global().eventCount(), std::memory_order_relaxed);
  detail::TraceActive.store(true, std::memory_order_relaxed);
}

bool tcc::obs::traceStop() {
  return traceStopTo(TracePath);
}

bool tcc::obs::traceStopTo(const char *Path) {
  detail::TraceActive.store(false, std::memory_order_relaxed);
  return exportTrace(Path);
}

//===----------------------------------------------------------------------===//
// Fatal-signal handler
//===----------------------------------------------------------------------===//

namespace {

constexpr int FatalSignals[] = {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT};

void onFatal(int Sig, siginfo_t *, void *Uc) {
  std::uintptr_t PC = 0;
#if defined(__x86_64__)
  if (Uc)
    PC = static_cast<std::uintptr_t>(
        static_cast<ucontext_t *>(Uc)->uc_mcontext.gregs[REG_RIP]);
#else
  (void)Uc;
#endif
  fdStr(2, {"\ntickc: fatal signal "});
  fdNum(2, static_cast<std::uint64_t>(Sig));
  fdStr(2, {"\n"});
  EventRing::global().dump(2, PC);
  // Chain to the default disposition so the process dies with the original
  // signal (and the usual core/exit-status semantics).
  signal(Sig, SIG_DFL);
  raise(Sig);
}

} // namespace

void EventRing::installFatalHandler() {
  if (FatalInstalled.exchange(true))
    return;

  // Dedicated stack: a SIGSEGV from a runaway generated function may have
  // clobbered or exhausted the thread stack.
  static char AltStack[64 * 1024]; // SIGSTKSZ is not constexpr on glibc 2.34+.
  stack_t Ss;
  Ss.ss_sp = AltStack;
  Ss.ss_size = sizeof(AltStack);
  Ss.ss_flags = 0;
  sigaltstack(&Ss, nullptr);

  struct sigaction Sa;
  sigemptyset(&Sa.sa_mask);
  Sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  Sa.sa_sigaction = onFatal;
  for (int Sig : FatalSignals)
    sigaction(Sig, &Sa, nullptr);
}
