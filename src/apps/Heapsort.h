//===- apps/Heapsort.h - Heapsort with a specialized swap -------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `heap` benchmark (§6.2, "Parameterized functions"): a
/// heapsort "parameterized with a code fragment to swap the contents of two
/// memory regions of arbitrary size", specialized to the element size it
/// sorts. The experiment sorts 500 12-byte records; the static version
/// swaps through memcpy with a run-time element size.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_APPS_HEAPSORT_H
#define TICKC_APPS_HEAPSORT_H

#include "cache/CompileService.h"
#include "core/Compile.h"

#include <cstdint>
#include <vector>

namespace tcc {
namespace apps {

/// The 12-byte record of the paper's experiment; sorted by Key.
struct HeapRecord {
  std::int32_t Key;
  std::int32_t Payload[2];
};
static_assert(sizeof(HeapRecord) == 12, "paper sorts 12-byte structures");

class HeapsortApp {
public:
  explicit HeapsortApp(unsigned Count = 500, unsigned Seed = 8);

  void sortStaticO0(HeapRecord *A) const;
  void sortStaticO2(HeapRecord *A) const;

  /// Instantiates `void sort(HeapRecord *a)` with the element count and a
  /// 12-byte swap specialized into the sort.
  core::CompiledFn specialize(const core::CompileOptions &Opts) const;

  /// Tiered instantiation: the VCODE baseline now, ICODE once hot. Call
  /// as `TF->call<void(HeapRecord *)>(A)`.
  tier::TieredFnHandle specializeTiered(
      cache::CompileService &Service, tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  std::vector<HeapRecord> data() const { return Data; }
  unsigned count() const { return static_cast<unsigned>(Data.size()); }

private:
  std::vector<HeapRecord> Data;
};

} // namespace apps
} // namespace tcc

#endif // TICKC_APPS_HEAPSORT_H
