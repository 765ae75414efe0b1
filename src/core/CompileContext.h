//===- core/CompileContext.h - Pooled per-compile scratch memory -*- C++ -*-==//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CompileContext owns the arena every transient compile-time structure
/// (ICODE instruction stream, flow graph, liveness bitsets, live intervals,
/// VCODE label/patch tables, the CGF walker's scratch) is carved from, and
/// the buffer machine code is emitted into. The arena's reset() retains its
/// slab and the buffer its size between compiles, so the second and every
/// later compile through the same context performs zero heap allocations on
/// the fast path.
///
/// Contexts are recycled through a CompileContextPool (one per
/// CompileService, shared with the tier manager's promotion workers) or, for
/// direct compileFn callers, through a per-thread fallback context.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_COMPILECONTEXT_H
#define TICKC_CORE_COMPILECONTEXT_H

#include "support/Arena.h"
#include "support/ThreadSafety.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tcc {
namespace core {

/// Reusable per-compile scratch: one arena plus the bookkeeping needed to
/// report per-compile allocation behaviour. Not thread-safe; a context is
/// used by one compile at a time (the pool / thread-local owner enforces
/// that, and nested compiles on the same thread fall back to a fresh
/// context).
class CompileContext {
public:
  /// Slab size tuned so a typical fig7-sized compile (flow graph + liveness
  /// bitsets + intervals + emitter tables) fits in one slab on the first
  /// compile and never allocates again.
  static constexpr std::size_t SlabBytes = 256 * 1024;

  CompileContext() : A(SlabBytes) {}
  CompileContext(const CompileContext &) = delete;
  CompileContext &operator=(const CompileContext &) = delete;

  Arena &arena() { return A; }

  /// RAII frame for one compile: resets the arena (retaining capacity),
  /// snapshots the system-allocation counter, and marks the context in use
  /// so re-entrant compiles on the same thread can detect the conflict.
  class Scope {
  public:
    explicit Scope(CompileContext &C) : C(C) {
      C.A.reset();
      C.AllocsAtBegin = C.A.systemAllocs();
      C.InUse = true;
    }
    ~Scope() { C.InUse = false; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    CompileContext &C;
  };

  /// Heap allocations the arena performed since the current Scope began.
  /// Zero in steady state: reset() retains capacity.
  std::uint64_t allocsThisCompile() const {
    return A.systemAllocs() - AllocsAtBegin;
  }

  /// Arena bytes consumed by the current (or last) compile.
  std::size_t arenaBytes() const { return A.bytesAllocated(); }

  /// Maximum arena footprint over the context's lifetime.
  std::size_t arenaHighWater() const { return A.highWater(); }

  bool inUse() const { return InUse; }

  /// Bytes a back end may emit for one function.
  static constexpr std::size_t CodeBufferBytes = std::size_t(1) << 20;

  /// The buffer back ends emit into: plain writable memory of
  /// CodeBufferBytes, reused across compiles and never executable. The
  /// finished bytes are copied out into a CodeHeap block sized to them.
  std::uint8_t *codeBuffer() {
    if (!Code)
      Code.reset(new std::uint8_t[CodeBufferBytes]);
    return Code.get();
  }

  /// Per-thread fallback for compileFn callers that pass no context and no
  /// service: each thread gets one lazily-created context that lives for
  /// the thread's lifetime, so even ad-hoc compiles hit the zero-allocation
  /// steady state.
  static CompileContext &forCurrentThread();

private:
  Arena A;
  std::unique_ptr<std::uint8_t[]> Code;
  std::uint64_t AllocsAtBegin = 0;
  bool InUse = false;
};

/// Free-list recycler for CompileContexts. CompileService owns one and
/// threads it through every compile it performs (including those the tier
/// manager's promotion workers request), so a warm service compiles with
/// zero heap allocations regardless of which thread asks.
class CompileContextPool {
public:
  /// Move-only handle; returns the context to the pool on destruction.
  class Handle {
  public:
    Handle() = default;
    Handle(CompileContextPool &Pool, CompileContext &C) : P(&Pool), C(&C) {}
    Handle(Handle &&O) noexcept : P(O.P), C(O.C) {
      O.P = nullptr;
      O.C = nullptr;
    }
    Handle &operator=(Handle &&O) noexcept {
      if (this != &O) {
        reset();
        P = O.P;
        C = O.C;
        O.P = nullptr;
        O.C = nullptr;
      }
      return *this;
    }
    ~Handle() { reset(); }

    CompileContext *get() const { return C; }
    explicit operator bool() const { return C != nullptr; }

  private:
    void reset() {
      if (P && C)
        P->release(*C);
      P = nullptr;
      C = nullptr;
    }

    CompileContextPool *P = nullptr;
    CompileContext *C = nullptr;
  };

  /// Pops a warmed context off the free list, or creates one on first use.
  /// Publishes hit/miss to the obs registry so tickc-report can show the
  /// pool's steady-state reuse rate.
  Handle acquire();

  struct Stats {
    std::uint64_t Hits = 0;   ///< Acquires served from the free list.
    std::uint64_t Misses = 0; ///< Acquires that created a new context.
  };
  Stats stats() const;

  /// Contexts ever created (== peak concurrency the pool has seen).
  std::size_t size() const;

private:
  friend class Handle;
  void release(CompileContext &C);

  mutable support::Mutex M;
  std::vector<std::unique_ptr<CompileContext>> All TICKC_GUARDED_BY(M);
  std::vector<CompileContext *> Free TICKC_GUARDED_BY(M);
  std::uint64_t Hits TICKC_GUARDED_BY(M) = 0;
  std::uint64_t Misses TICKC_GUARDED_BY(M) = 0;
};

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_COMPILECONTEXT_H
