//===- core/CompileContext.h - Per-thread compile scratch memory -*- C++ -*-===//
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
/// Each compiling thread owns one context (forCurrentThread()), created at
/// its first compile and destroyed with the thread. compileFn is its only
/// user: every compile on that thread, whether a direct call, a
/// CompileService miss or a tier promotion, reuses it. A compile nested
/// inside another on the same thread (a CGF that itself compiles) finds the
/// context in use and gets a private one for its duration.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CORE_COMPILECONTEXT_H
#define TICKC_CORE_COMPILECONTEXT_H

#include "support/Arena.h"

#include <cstddef>
#include <cstdint>
#include <memory>

namespace tcc {
namespace core {

/// Reusable per-compile scratch: one arena plus the bookkeeping needed to
/// report per-compile allocation behaviour. Not thread-safe; a context is
/// used by one compile at a time (it belongs to one thread, and nested
/// compiles on that thread fall back to a fresh context).
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
  /// snapshots the allocation counter, and marks the context in use so
  /// re-entrant compiles on the same thread can detect the conflict. The
  /// first compile through a context skips the snapshot, so it is charged
  /// the slab the constructor took as well as the code buffer.
  class Scope {
  public:
    explicit Scope(CompileContext &C) : C(C) {
      C.A.reset();
      if (C.Used)
        C.AllocsAtBegin = C.allocs();
      C.Used = C.InUse = true;
    }
    ~Scope() { C.InUse = false; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    CompileContext &C;
  };

  /// Heap allocations (arena slabs and the code buffer) charged to the
  /// current compile: two for a context's first compile (its slab and its
  /// buffer) plus any arena growth, zero in steady state (reset() retains
  /// capacity).
  std::uint64_t allocsThisCompile() const { return allocs() - AllocsAtBegin; }

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
    if (!Code) {
      Code.reset(new std::uint8_t[CodeBufferBytes]);
      ++BufferAllocs;
    }
    return Code.get();
  }

  /// The calling thread's context: created lazily at its first compile and
  /// kept for the thread's lifetime, so every compile after the first on a
  /// thread hits the zero-allocation steady state.
  static CompileContext &forCurrentThread();

private:
  std::uint64_t allocs() const { return A.systemAllocs() + BufferAllocs; }

  Arena A;
  std::unique_ptr<std::uint8_t[]> Code;
  std::uint64_t BufferAllocs = 0;
  std::uint64_t AllocsAtBegin = 0;
  bool Used = false; ///< A Scope has opened on this context before.
  bool InUse = false;
};

} // namespace core
} // namespace tcc

#endif // TICKC_CORE_COMPILECONTEXT_H
