//===- apps/Marshal.h - Dynamic function-call construction ------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's `mshl`/`umshl` benchmarks (§6.2, "Dynamic function call
/// construction"): given a printf-style format string, generate marshaling
/// code (a function with a statically unknown number of parameters that
/// packs them into a byte vector) and unmarshaling code (unpack a byte
/// vector and *call a function* with that many arguments). ANSI C cannot
/// express either generically; the static baselines are hand-written for
/// the five-int case, as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_APPS_MARSHAL_H
#define TICKC_APPS_MARSHAL_H

#include "cache/CompileService.h"
#include "core/Compile.h"

#include <cstdint>
#include <string>

namespace tcc {
namespace apps {

class MarshalApp {
public:
  /// \p Format uses 'i' for int arguments (the benchmark uses "iiiii").
  explicit MarshalApp(std::string Format = "iiiii")
      : Format(std::move(Format)) {}

  /// Hand-written static marshal/unmarshal for exactly five ints.
  static void marshal5StaticO0(std::uint8_t *Buf, int A0, int A1, int A2,
                               int A3, int A4);
  static void marshal5StaticO2(std::uint8_t *Buf, int A0, int A1, int A2,
                               int A3, int A4);
  static int unmarshal5StaticO0(const std::uint8_t *Buf,
                                int (*Fn)(int, int, int, int, int));
  static int unmarshal5StaticO2(const std::uint8_t *Buf,
                                int (*Fn)(int, int, int, int, int));

  /// Generates `void marshal(int a0, ..., uint8_t *buf)` from the format:
  /// the buffer pointer is the last parameter.
  core::CompiledFn buildMarshaler(const core::CompileOptions &Opts) const;

  /// Generates `int unmarshal(const uint8_t *buf)` that unpacks the
  /// arguments and calls \p Target with them — a call with a run-time
  /// determined number of arguments.
  core::CompiledFn buildUnmarshaler(const void *Target,
                                    const core::CompileOptions &Opts) const;

  /// Memoized variants for the per-request RPC path: one compile per
  /// format (and, for unmarshaling, per target function).
  cache::FnHandle buildMarshalerCached(
      cache::CompileService &Service,
      const core::CompileOptions &Opts = core::CompileOptions()) const;
  cache::FnHandle buildUnmarshalerCached(
      const void *Target, cache::CompileService &Service,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  /// Tiered marshaler: the VCODE baseline now, ICODE once hot. Call as
  /// `TF->call<void(int, int, int, int, int, std::uint8_t *)>(...)`.
  tier::TieredFnHandle buildMarshalerTiered(
      cache::CompileService &Service, tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  /// Tiered unmarshaler: answers RPC dispatch at VCODE latency and promotes
  /// the hot format's stub to ICODE in the background. Call as
  /// `TF->call<int(const std::uint8_t *)>(Buf)`.
  tier::TieredFnHandle buildUnmarshalerTiered(
      const void *Target, cache::CompileService &Service,
      tier::TierManager *Manager = nullptr,
      const core::CompileOptions &Opts = core::CompileOptions()) const;

  unsigned numArgs() const { return static_cast<unsigned>(Format.size()); }

private:
  std::string Format;
};

} // namespace apps
} // namespace tcc

#endif // TICKC_APPS_MARSHAL_H
