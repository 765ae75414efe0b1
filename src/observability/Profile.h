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
/// The entry has no registry of its own: the function's runtime symbol
/// (RuntimeSymbols.h) points at it, and the report's "hot dynamic
/// functions" section reads it there, next to the symbol's name and size.
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

namespace tcc {
namespace obs {

/// One profiled dynamic function: its invocation count (incremented by the
/// generated prologue; the tier trigger reads it) next to what it cost to
/// compile.
struct ProfileEntry {
  std::atomic<std::uint64_t> Invocations{0};
  std::atomic<std::uint64_t> CompileCycles{0};
  std::atomic<const char *> Backend{""}; ///< "vcode", "icode" or "snapshot".
};

} // namespace obs
} // namespace tcc

#endif // TICKC_OBSERVABILITY_PROFILE_H
