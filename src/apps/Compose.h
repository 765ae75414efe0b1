//===- apps/Compose.h - Composed message-pipeline operations ----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `cmp` benchmark (§6.2, "Function composition"): copy a
/// 4096-byte message buffer while computing a checksum and a byteswap in
/// the same pass. The static version calls the two data operations through
/// function pointers per word; the `C version splices both cspecs into one
/// copying loop — the networking-stack integrated-layer-processing story.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_APPS_COMPOSE_H
#define TICKC_APPS_COMPOSE_H

#include "cache/CompileService.h"
#include "core/Compile.h"

#include <cstdint>
#include <vector>

namespace tcc {
namespace apps {

class ComposeApp {
public:
  explicit ComposeApp(unsigned Bytes = 4096, unsigned Seed = 5);

  /// Copies Src to Dst (word-at-a-time), byteswapping each word and
  /// accumulating a checksum; returns the checksum.
  std::uint32_t pipeStaticO0(std::uint32_t *Dst) const;
  std::uint32_t pipeStaticO2(std::uint32_t *Dst) const;

  /// Instantiates `int pipe(uint32_t *dst)` with both data operations
  /// composed into the copy loop.
  core::CompiledFn specialize(const core::CompileOptions &Opts) const;

  /// Tiered instantiation: the VCODE baseline now, ICODE once hot. The
  /// ComposeApp must outlive the returned slot. Call as
  /// `TF->call<int(std::uint32_t *)>(Dst)`.
  tier::TieredFnHandle specializeTiered(
      cache::CompileService &Service, tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  unsigned words() const { return static_cast<unsigned>(Src.size()); }
  const std::uint32_t *source() const { return Src.data(); }

private:
  std::vector<std::uint32_t> Src;
};

} // namespace apps
} // namespace tcc

#endif // TICKC_APPS_COMPOSE_H
