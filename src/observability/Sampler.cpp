//===- observability/Sampler.cpp - SIGPROF sampling profiler --------------===//

#include "observability/Sampler.h"

#include "observability/Metrics.h"
#include "observability/Names.h"
#include "observability/RuntimeSymbols.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>

#include <signal.h>
#include <time.h>
#include <ucontext.h>

using namespace tcc;
using namespace tcc::obs;

namespace {

// The sample.* counters: the one tally of samples, which the handler bumps
// and totalSamples()/hitSamples()/missSamples() read. start() registers
// them on a normal thread before it installs the handler, so in the handler
// get() is an initialized static and each bump a relaxed fetch_add.
struct SampleCounters {
  Counter &Total, &Hits, &Misses;
  static SampleCounters &get() {
    auto &R = MetricsRegistry::global();
    static SampleCounters C{R.counter(names::SampleTotal),
                            R.counter(names::SampleHits),
                            R.counter(names::SampleMisses)};
    return C;
  }
};

void onSigprof(int, siginfo_t *, void *Uc) {
  std::uintptr_t PC = 0;
#if defined(__x86_64__)
  if (Uc)
    PC = static_cast<std::uintptr_t>(
        static_cast<ucontext_t *>(Uc)->uc_mcontext.gregs[REG_RIP]);
#else
  (void)Uc;
#endif
  SampleCounters &C = SampleCounters::get();
  C.Total.inc();
  bool Hit = PC && RuntimeSymbolTable::global().sampleHit(PC) >= 0;
  (Hit ? C.Hits : C.Misses).inc();
}

// Mutator state (normal threads, under SamplerM).
std::mutex SamplerM;
timer_t GTimer;
bool GTimerLive = false;
bool GHandlerInstalled = false;
std::atomic<bool> GRunning{false};
std::atomic<unsigned> GHz{0};

} // namespace

Sampler &Sampler::global() {
  static Sampler *S = new Sampler();
  return *S;
}

bool Sampler::start(unsigned Hz) {
  if (Hz < 1)
    Hz = 1;
  if (Hz > 10000)
    Hz = 10000;
  std::lock_guard<std::mutex> G(SamplerM);

  // Resolve everything the handler will touch before any tick can fire.
  (void)SampleCounters::get();
  (void)RuntimeSymbolTable::global();

  if (!GHandlerInstalled) {
    struct sigaction Sa;
    sigemptyset(&Sa.sa_mask);
    Sa.sa_flags = SA_SIGINFO | SA_RESTART;
    Sa.sa_sigaction = onSigprof;
    if (sigaction(SIGPROF, &Sa, nullptr) != 0)
      return false;
    GHandlerInstalled = true;
  }

  if (!GTimerLive) {
    struct sigevent Sev;
    std::memset(&Sev, 0, sizeof(Sev));
    Sev.sigev_notify = SIGEV_SIGNAL;
    Sev.sigev_signo = SIGPROF;
    // CPU-time clock: ticks arrive proportional to cycles actually burned,
    // and an idle process is never interrupted.
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &Sev, &GTimer) != 0)
      return false;
    GTimerLive = true;
  }

  itimerspec Its{};
  long PeriodNs = 1000000000L / static_cast<long>(Hz);
  Its.it_interval.tv_sec = PeriodNs / 1000000000L;
  Its.it_interval.tv_nsec = PeriodNs % 1000000000L;
  Its.it_value = Its.it_interval;
  if (timer_settime(GTimer, 0, &Its, nullptr) != 0)
    return false;
  GHz.store(Hz, std::memory_order_relaxed);
  GRunning.store(true, std::memory_order_relaxed);
  return true;
}

void Sampler::stop() {
  std::lock_guard<std::mutex> G(SamplerM);
  if (GTimerLive) {
    itimerspec Its{};
    timer_settime(GTimer, 0, &Its, nullptr); // Disarm before deleting.
    timer_delete(GTimer);
    GTimerLive = false;
  }
  GRunning.store(false, std::memory_order_relaxed);
  GHz.store(0, std::memory_order_relaxed);
}

bool Sampler::running() const { return GRunning.load(std::memory_order_relaxed); }
unsigned Sampler::hz() const { return GHz.load(std::memory_order_relaxed); }

std::uint64_t Sampler::totalSamples() const {
  return SampleCounters::get().Total.value();
}
std::uint64_t Sampler::hitSamples() const {
  return SampleCounters::get().Hits.value();
}
std::uint64_t Sampler::missSamples() const {
  return SampleCounters::get().Misses.value();
}

std::string Sampler::foldedStacks() {
  std::string Out;
  for (const SymbolInfo &S : RuntimeSymbolTable::global().hotSymbols()) {
    if (!S.Samples)
      continue;
    Out += "tickc;";
    Out += S.Name;
    Out += ' ';
    Out += std::to_string(S.Samples);
    Out += '\n';
  }
  if (std::uint64_t Miss = missSamples()) {
    Out += "tickc;[native] ";
    Out += std::to_string(Miss);
    Out += '\n';
  }
  return Out;
}

bool Sampler::writeFolded(const char *Path) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F)
    return false;
  std::string S = foldedStacks();
  bool Ok = std::fwrite(S.data(), 1, S.size(), F) == S.size();
  return std::fclose(F) == 0 && Ok;
}

void Sampler::resetForTesting() {
  SampleCounters &C = SampleCounters::get();
  C.Total.reset();
  C.Hits.reset();
  C.Misses.reset();
}
