//===- bench/cache_service.cpp - Cold vs cached instantiation -------------===//
//
// Measures what the memoizing cache buys on the instantiation path for the
// Query and Power specializers:
//
//   cold   — compileFn(): a full instantiation into a code-heap block;
//   respec — CompileService::getOrCompile() after warmup: rebuilds the spec
//            and its fingerprint per call, then hits the cache (the lazy
//            caller's end-to-end number);
//   hit    — CompileService::lookup() with a key built once via
//            cacheKey(): the steady-state path for a caller that keeps the
//            fingerprint with its plan — one sharded map probe, no spec
//            rebuild, no codegen;
//   served — that caller's front door timed in batches: lookup(), and only
//            on a null return the respec path (rebuild, key, compile).
//
// Reports p50/p99 nanoseconds single-threaded and under an 8-thread
// cache-hit load, and writes BENCH_cache.json.
//
// The gate prices what the cache buys, as a ratio within one run: the cold
// compile's p50 over the served path's p50 per request must be at least
// MinColdOverServed. Batching amortizes the clock reads (tens of ns each on
// a VM), which otherwise dominate a sub-100 ns hit; a cache that stopped
// serving hits sends every request down the compile path and reads ~1x.
//
//===----------------------------------------------------------------------===//

#include "apps/Power.h"
#include "apps/Query.h"
#include "bench/Harness.h"
#include "cache/CompileService.h"
#include "observability/Metrics.h"
#include "observability/Report.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace tcc;
using namespace tcc::core;
using namespace tcc::cache;

namespace {

struct Dist {
  double P50 = 0, P99 = 0, Mean = 0;
};

Dist distribution(std::vector<double> &Samples) {
  std::sort(Samples.begin(), Samples.end());
  Dist D;
  if (Samples.empty())
    return D;
  D.P50 = Samples[Samples.size() / 2];
  D.P99 = Samples[std::min(Samples.size() - 1,
                           (Samples.size() * 99) / 100)];
  double Sum = 0;
  for (double S : Samples)
    Sum += S;
  D.Mean = Sum / static_cast<double>(Samples.size());
  return D;
}

/// One ns sample per call to \p Op.
Dist sampleNs(const std::function<void()> &Op, unsigned N = 2000) {
  Op(); // Warm.
  std::vector<double> Samples;
  Samples.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    std::uint64_t T0 = readMonotonicNanos();
    Op();
    Samples.push_back(static_cast<double>(readMonotonicNanos() - T0));
  }
  return distribution(Samples);
}

/// Per-op ns of \p Op, one sample per batch of \p Batch back-to-back calls.
Dist sampleNsBatched(const std::function<void()> &Op, unsigned Batches = 100,
                     unsigned Batch = 128) {
  Op(); // Warm.
  std::vector<double> Samples;
  Samples.reserve(Batches);
  for (unsigned B = 0; B < Batches; ++B) {
    std::uint64_t T0 = readMonotonicNanos();
    for (unsigned I = 0; I < Batch; ++I)
      Op();
    Samples.push_back(static_cast<double>(readMonotonicNanos() - T0) / Batch);
  }
  return distribution(Samples);
}

/// Per-op ns with \p Threads threads hammering \p Op concurrently.
Dist sampleNsThreaded(const std::function<void()> &Op, unsigned Threads,
                      unsigned PerThread = 1000) {
  std::vector<std::vector<double>> All(Threads);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      All[T].reserve(PerThread);
      while (!Go.load(std::memory_order_acquire))
        ;
      for (unsigned I = 0; I < PerThread; ++I) {
        std::uint64_t T0 = readMonotonicNanos();
        Op();
        All[T].push_back(static_cast<double>(readMonotonicNanos() - T0));
      }
    });
  }
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Pool)
    T.join();
  std::vector<double> Merged;
  for (auto &V : All)
    Merged.insert(Merged.end(), V.begin(), V.end());
  return distribution(Merged);
}

struct WorkloadResult {
  std::string Name;
  Dist Cold, Respec, Hit, HitMT, Served;
  double ColdOverHit = 0, ColdOverRespec = 0, ColdOverServed = 0;
  std::uint64_t ServedOps = 0, ServedMisses = 0;
  bool KeyHit = false; ///< The prebuilt key hit the warm cache.
};

/// The gate: a request the cache serves is at least this many times
/// cheaper than compiling it.
constexpr double MinColdOverServed = 8;

void report(const WorkloadResult &R) {
  std::printf("%-8s %12s %12s %12s %12s %12s\n", R.Name.c_str(), "cold",
              "respec", "hit", "hit(8thr)", "served");
  std::printf("%-8s %9.0f ns %9.0f ns %9.0f ns %9.0f ns %9.1f ns   (p50)\n",
              "", R.Cold.P50, R.Respec.P50, R.Hit.P50, R.HitMT.P50,
              R.Served.P50);
  std::printf("%-8s %9.0f ns %9.0f ns %9.0f ns %9.0f ns %9.1f ns   (p99)\n",
              "", R.Cold.P99, R.Respec.P99, R.Hit.P99, R.HitMT.P99,
              R.Served.P99);
  std::printf("%-8s cold/hit = %.1fx   cold/respec = %.1fx   "
              "cold/served = %.1fx (gate >= %.0fx; %llu of %llu served "
              "from the cache)\n\n",
              "", R.ColdOverHit, R.ColdOverRespec, R.ColdOverServed,
              MinColdOverServed,
              static_cast<unsigned long long>(R.ServedOps - R.ServedMisses),
              static_cast<unsigned long long>(R.ServedOps));
}

void emitJson(std::FILE *F, const WorkloadResult &R, bool Last) {
  std::fprintf(F,
               "    {\"workload\": \"%s\",\n"
               "     \"cold_ns\": {\"p50\": %.1f, \"p99\": %.1f, \"mean\": %.1f},\n"
               "     \"respecialize_ns\": {\"p50\": %.1f, \"p99\": %.1f, \"mean\": %.1f},\n"
               "     \"hit_ns\": {\"p50\": %.1f, \"p99\": %.1f, \"mean\": %.1f},\n"
               "     \"hit_8thread_ns\": {\"p50\": %.1f, \"p99\": %.1f, \"mean\": %.1f},\n"
               "     \"served_batched_ns\": {\"p50\": %.1f, \"p99\": %.1f, \"mean\": %.1f},\n"
               "     \"cold_over_hit_p50\": %.2f,\n"
               "     \"cold_over_respecialize_p50\": %.2f,\n"
               "     \"cold_over_served_p50\": %.2f}%s\n",
               R.Name.c_str(), R.Cold.P50, R.Cold.P99, R.Cold.Mean,
               R.Respec.P50, R.Respec.P99, R.Respec.Mean, R.Hit.P50, R.Hit.P99,
               R.Hit.Mean, R.HitMT.P50, R.HitMT.P99, R.HitMT.Mean,
               R.Served.P50, R.Served.P99, R.Served.Mean, R.ColdOverHit,
               R.ColdOverRespec, R.ColdOverServed, Last ? "" : ",");
}

WorkloadResult
runWorkload(const std::string &Name,
            const std::function<CompiledFn(const CompileOptions &)> &Cold,
            const std::function<FnHandle(CompileService &)> &Cached,
            const SpecKey &Key) {
  WorkloadResult R;
  R.Name = Name;

  CompileOptions Plain;
  R.Cold = sampleNs([&] { (void)Cold(Plain); });

  CompileService Service;
  (void)Cached(Service); // Warm: the one real compile.

  // End-to-end re-specialization: rebuild spec + fingerprint, then hit.
  R.Respec = sampleNs([&] { (void)Cached(Service); });

  // Steady state with the fingerprint kept alongside the plan: one probe.
  R.KeyHit = Service.lookup(Key) != nullptr;
  R.Hit = sampleNs([&] { (void)Service.lookup(Key); });
  R.HitMT = sampleNsThreaded([&] { (void)Service.lookup(Key); }, 8);

  // That caller's whole front door: a miss falls back to the respec path.
  R.Served = sampleNsBatched([&] {
    ++R.ServedOps;
    if (!Service.lookup(Key)) {
      ++R.ServedMisses;
      (void)Cached(Service);
    }
  });

  R.ColdOverHit = R.Hit.P50 > 0 ? R.Cold.P50 / R.Hit.P50 : 0;
  R.ColdOverRespec = R.Respec.P50 > 0 ? R.Cold.P50 / R.Respec.P50 : 0;
  R.ColdOverServed = R.Served.P50 > 0 ? R.Cold.P50 / R.Served.P50 : 0;
  return R;
}

} // namespace

int main() {
  std::printf("cache_service: instantiation latency, cold vs memoized "
              "(ns)\n");
  bench::printRule();

  apps::QueryApp Query(2000);
  apps::PowerApp Power(13);

  std::vector<WorkloadResult> Results;
  Results.push_back(runWorkload(
      "query",
      [&](const CompileOptions &O) {
        return Query.specialize(Query.benchmarkQuery(), O);
      },
      [&](CompileService &S) {
        return Query.specializeCached(Query.benchmarkQuery(), S);
      },
      Query.cacheKey(Query.benchmarkQuery())));
  Results.push_back(runWorkload(
      "pow",
      [&](const CompileOptions &O) { return Power.specialize(O); },
      [&](CompileService &S) { return Power.specializeCached(S); },
      Power.cacheKey()));

  for (const WorkloadResult &R : Results)
    report(R);

  std::FILE *F = std::fopen("BENCH_cache.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_cache.json\n");
    return 1;
  }
  std::fprintf(F, "{\n  \"benchmark\": \"cache_service\",\n"
                  "  \"units\": \"nanoseconds per instantiation\",\n"
                  "  \"threads_hit_mt\": 8,\n  \"workloads\": [\n");
  for (std::size_t I = 0; I < Results.size(); ++I)
    emitJson(F, Results[I], I + 1 == Results.size());
  std::fprintf(F, "  ],\n  \"metrics\": %s\n}\n",
               obs::MetricsRegistry::global().snapshotJson(2).c_str());
  std::fclose(F);
  std::printf("wrote BENCH_cache.json\n\n");

  // The registry has been accumulating across every compile above; the
  // report doubles as a smoke test of the observability surface.
  std::printf("%s", obs::renderReport().c_str());

  bool Ok = true;
  for (const WorkloadResult &R : Results) {
    if (!R.KeyHit) {
      std::fprintf(stderr, "FAIL: %s prebuilt key misses the warm cache\n",
                   R.Name.c_str());
      Ok = false;
    }
    if (R.ColdOverServed < MinColdOverServed) {
      std::fprintf(stderr,
                   "FAIL: %s served request only %.1fx cheaper than a cold "
                   "compile (want >= %.0fx)\n",
                   R.Name.c_str(), R.ColdOverServed, MinColdOverServed);
      Ok = false;
    }
  }
  return Ok ? 0 : 1;
}
