//===- core/Compile.h - The compile() special form -------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic compilation (instantiation, paper §4.4): compileFn() walks a
/// statement cspec — the walk is the code-generating function — and produces
/// executable machine code through one of the two dynamic back ends:
///
///   * BackendKind::VCode — one pass, code emitted immediately; fastest
///     compilation, weakest code (paper §5.1).
///   * BackendKind::ICode — builds the ICODE IR, allocates registers
///     globally (linear scan or graph coloring), then emits (paper §5.2).
///
/// During the walk the automatic dynamic partial evaluation of §4.4 runs:
/// run-time constants fold, multiplications/divisions by run-time constants
/// strength-reduce, loops bounded by run-time constants unroll (binding
/// derived run-time constants down loop nests), and branches controlled by
/// run-time constants disappear.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_COMPILE_H
#define TICKC_CORE_COMPILE_H

#include "core/Context.h"
#include "icode/ICode.h"
#include "observability/Events.h"
#include "observability/Profile.h"
#include "observability/RuntimeSymbols.h"
#include "support/CodeBuffer.h"
#include "support/Reloc.h"

#include <cstdint>
#include <memory>

namespace tcc {
namespace core {

/// Which dynamic back end instantiation uses. Serialized into SpecKey (the
/// first option byte), so each backend's output occupies its own cache slot.
/// The values are persisted key bytes: a record keyed under a retired back
/// end's byte (2 was the copy-and-patch PCODE back end) is never looked up,
/// so it reads as a miss.
enum class BackendKind {
  VCode,
  ICode,
};

/// Lower-case name of a back end ("vcode" or "icode"), as profiles spell it.
const char *backendName(BackendKind K);

/// Knobs for one instantiation.
struct CompileOptions {
  BackendKind Backend = BackendKind::VCode;
  icode::RegAllocKind RegAlloc = icode::RegAllocKind::LinearScan;
  icode::SpillHeuristic Spill = icode::SpillHeuristic::LongestInterval;
  CodePlacement Placement = CodePlacement::Sequential;
  /// Maximum iteration count dynamic loop unrolling will expand; loops with
  /// larger run-time-constant trip counts fall back to runtime loops ("unless
  /// it is made too large ... it will easily outperform", paper §4.4).
  unsigned UnrollLimit = 16384;
  /// When true, both back ends plant an atomic invocation-counter bump in
  /// the generated prologue; the CompiledFn carries the counter (see
  /// profile()), making hot specs identifiable at runtime next to their
  /// compile cost. Part of the cache key: it changes the emitted code.
  bool Profile = false;
  /// The function's runtime symbol (optional; copied, truncated to
  /// RuntimeSymbolTable::NameBytes-1; null means a generic label), which
  /// CompileService decorates as "name#hash". Not part of the cache key.
  const char *Name = nullptr;
  /// When true, every compile is re-checked by the src/verify static
  /// analyzers (spec lint, IR verifier, register-allocation audit, emitted
  /// x86 audit); any finding aborts with a structured report. The
  /// TICKC_VERIFY environment variable enables it globally. Part of the
  /// cache key: a cached hit must carry the same guarantee the options
  /// asked for. Zero overhead when off.
  bool Verify = false;
  /// When set, the backend's assembler records every external imm64 it
  /// plants (free-variable addresses, callee entries, the profile counter)
  /// into this side table — the raw material for persistent snapshots
  /// (src/persist). Recording never changes the emitted bytes. Not part of
  /// the cache key. Owned by the caller; must outlive the compile.
  support::RelocTable *Relocs = nullptr;
};

/// Cost account of one instantiation — the raw material of Table 1 and
/// Figures 6/7.
struct DynStats {
  std::uint64_t CyclesTotal = 0; ///< TSC ticks: every lap but Verify's.
  /// Laps of the compile's clock. CgfWalk is emission for VCODE and IR
  /// construction for ICODE; Verify is TICKC_VERIFY's checker time.
  obs::PhaseCycles Cycles;
  icode::CompileStats ICode; ///< What the ICODE pipeline produced.
  unsigned MachineInstrs = 0;
  std::size_t CodeBytes = 0;
};

/// An instantiated dynamic function: owns its CodeHeap block, which goes
/// back on the heap's freelist when the function is destroyed.
class CompiledFn {
public:
  CompiledFn() = default;
  CompiledFn(CompiledFn &&) = default;
  /// Retires the old symbol first, as the destructor does, before the old
  /// profile entry and code block are released.
  CompiledFn &operator=(CompiledFn &&O) noexcept {
    if (this != &O) {
      Sym.reset();
      Code = std::move(O.Code);
      Entry = O.Entry;
      O.Entry = nullptr;
      Stats = O.Stats;
      Backend = O.Backend;
      FromSnapshot = O.FromSnapshot;
      Prof = std::move(O.Prof);
      Sym = std::move(O.Sym);
    }
    return *this;
  }

  void *entry() const { return Entry; }
  bool valid() const { return Entry != nullptr; }
  /// The function pointer, typed. `int (*f)(int) = F.as<int(int)>();`
  template <typename FnT> FnT *as() const {
    return reinterpret_cast<FnT *>(Entry);
  }
  const DynStats &stats() const { return Stats; }
  /// The profile entry carrying this function's invocation counter and
  /// compile cost, or nullptr when compiled without CompileOptions::Profile.
  /// This function owns it, so it lives as long as the generated code that
  /// increments it; the function's runtime symbol points at it for the
  /// report, and the symbol retires before the entry is released.
  const obs::ProfileEntry *profile() const { return Prof.get(); }
  /// The back end that generated this code (CompileOptions::Backend; for a
  /// snapshot load, the back end the request's key named).
  BackendKind backend() const { return Backend; }
  /// True when this function was revived from a persistent snapshot
  /// (src/persist) rather than compiled in this process. Lets the cache
  /// and tier layers classify warm-start loads separately from compiles.
  bool fromSnapshot() const { return FromSnapshot; }

private:
  friend CompiledFn compileFn(Context &, Stmt, EvalType,
                              const CompileOptions &);
  friend CompiledFn adoptLoadedCode(struct LoadedCode &&);
  friend struct Instantiation; ///< compileFn's per-backend step.
  CodeBlock Code;
  void *Entry = nullptr;
  DynStats Stats;
  BackendKind Backend = BackendKind::VCode;
  bool FromSnapshot = false;
  std::shared_ptr<obs::ProfileEntry> Prof;
  /// Runtime symbol registration. Declared last on purpose: destruction
  /// runs in reverse order, so the symbol retires (after which no report
  /// reads Prof through it) before Prof is released and before Code can be
  /// handed to another function.
  obs::SymbolHandle Sym;
};

/// The `compile` special form: instantiates \p Body as a function returning
/// \p RetType. Parameters are the Context's param* vspecs referenced by the
/// body. Thin wrappers below fix the backend.
CompiledFn compileFn(Context &Ctx, Stmt Body, EvalType RetType,
                     const CompileOptions &Opts = CompileOptions());

/// Everything the persistence layer hands core to revive one snapshot
/// record as a live function: a heap block already holding the
/// relocation-patched bytes (the loader admits them *before* calling this).
struct LoadedCode {
  CodeBlock Code;
  unsigned MachineInstrs = 0;
  /// The loading process's freshly created profile entry whose counter the
  /// patched code increments; null for unprofiled records.
  std::shared_ptr<obs::ProfileEntry> Prof;
  /// Runtime symbol name (copied; may be null for a generic label).
  const char *Name = nullptr;
  /// The back end the request's options named (part of the record's key).
  BackendKind Backend = BackendKind::VCode;
};

/// Publishes a loaded block's exec-view entry and wraps it in a CompiledFn
/// indistinguishable from a fresh compile except for its fromSnapshot()
/// provenance bit and zeroed compile-cost stats.
CompiledFn adoptLoadedCode(LoadedCode &&L);

inline CompiledFn compileVCode(Context &Ctx, Stmt Body, EvalType RetType) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::VCode;
  return compileFn(Ctx, Body, RetType, Opts);
}

inline CompiledFn compileICode(Context &Ctx, Stmt Body, EvalType RetType) {
  CompileOptions Opts;
  Opts.Backend = BackendKind::ICode;
  return compileFn(Ctx, Body, RetType, Opts);
}

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_COMPILE_H
