//===- observability/Profile.h - Generated-code profiling ------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invocation profiling for dynamically generated functions. When a spec is
/// compiled with CompileOptions::Profile, both back ends plant a single
/// `lock inc qword [counter]` in the function's prologue; the counter lives
/// in a ProfileEntry owned (via shared_ptr) by the CompiledFn, so the
/// generated code can never outlive the memory it increments.
///
/// This closes the loop on the paper's crossover economics (Figure 5): the
/// compile cost of a spec and its actual use count become observable side
/// by side, so "did dynamic compilation pay for itself?" is answerable at
/// runtime instead of by offline benchmarking.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_OBSERVABILITY_PROFILE_H
#define TICKC_OBSERVABILITY_PROFILE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tcc {
namespace obs {

/// One profiled dynamic function: its invocation count (incremented by the
/// generated prologue) next to what it cost to compile.
struct ProfileEntry {
  std::string Name; ///< Caller-supplied label; set once before publication.
  std::atomic<std::uint64_t> Invocations{0};
  std::atomic<std::uint64_t> CompileCycles{0};
  std::atomic<std::uint64_t> CodeBytes{0};
  std::atomic<std::uint64_t> MachineInstrs{0};
  std::atomic<const char *> Backend{""}; ///< "vcode" or "icode".
  /// SIGPROF samples attributed to this function's code region by the
  /// sampling profiler (Sampler.h) — the execution-side heat signal. Bumped
  /// from signal context (relaxed fetch_add); the RuntimeSymbolTable's
  /// retirement drain guarantees no bump after the entry is freed.
  std::atomic<std::uint64_t> Samples{0};
};

/// Weak registry of every live ProfileEntry; entries drop out when the last
/// CompiledFn holding them dies. Expired records (retired/evicted functions
/// whose handles are gone) are bounded: create() compacts the slot vector
/// whenever it doubles past a high-water mark, so a long-running server
/// churning short-lived profiled specs holds O(live) records, not
/// O(ever-created).
class ProfileRegistry {
public:
  /// The process-wide registry (never destroyed).
  static ProfileRegistry &global();

  std::shared_ptr<ProfileEntry> create(std::string_view Name);

  /// Registers an entry allocated elsewhere. For creators on a latency
  /// path: allocate the entry inline (cheap), name and publish it later
  /// from a background thread. Name must be set before publication.
  void publish(const std::shared_ptr<ProfileEntry> &E);

  /// Live entries, unordered. Expired entries are pruned as a side effect.
  std::vector<std::shared_ptr<ProfileEntry>> entries();

  /// Explicitly drops expired records; returns how many were removed.
  /// Servers with idle periods can call this to release the retirement
  /// list without waiting for the next create() high-water compaction.
  std::size_t drainExpired();

  /// Registered slots, live or expired-but-undrained. Regression surface
  /// for the bounded-retirement guarantee; not a count of live entries.
  std::size_t recordCount();

private:
  /// Compacts expired slots in place. Caller holds M.
  std::size_t pruneLocked();

  std::mutex M;
  std::vector<std::weak_ptr<ProfileEntry>> Entries;
  /// create() compacts when Entries grows past this; re-armed to
  /// max(MinHighWater, 2 * live) after each compaction.
  std::size_t HighWater = MinHighWater;
  static constexpr std::size_t MinHighWater = 128;
};

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_PROFILE_H
