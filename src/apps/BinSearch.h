//===- apps/BinSearch.h - Executable data structures ------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `binary` benchmark (§6.2, "Code construction"): compile a
/// sorted array *into code* — a tree of nested ifs comparing against
/// immediates, so lookups perform "neither memory loads nor looping
/// overhead". The experiment looks up two entries, one present, one not,
/// in a 16-entry table.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_APPS_BINSEARCH_H
#define TICKC_APPS_BINSEARCH_H

#include "cache/CompileService.h"
#include "core/Compile.h"

#include <vector>

namespace tcc {
namespace apps {

class BinSearchApp {
public:
  explicit BinSearchApp(unsigned Count = 16, unsigned Seed = 3);

  /// Standard binary search over the array; returns index or -1.
  int findStaticO0(int Key) const;
  int findStaticO2(int Key) const;

  /// Instantiates `int find(int key)` as a nested-if decision tree with
  /// the array values hardwired into the instruction stream.
  core::CompiledFn specialize(const core::CompileOptions &Opts) const;

  /// Tiered instantiation: the PCODE baseline now, ICODE once hot. Call
  /// as `TF->call<int(int)>(Key)`.
  tier::TieredFnHandle specializeTiered(
      cache::CompileService &Service, tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  int presentKey() const { return Sorted[Sorted.size() / 3]; }
  int absentKey() const { return Absent; }
  const std::vector<int> &data() const { return Sorted; }

private:
  std::vector<int> Sorted;
  int Absent;
};

} // namespace apps
} // namespace tcc

#endif // TICKC_APPS_BINSEARCH_H
