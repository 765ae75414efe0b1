//===- support/CodeBuffer.h - Executable memory management -----*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable memory for dynamically generated code. Follows the paper
/// (§4.4): code placement may be randomized modulo the instruction cache
/// size to avoid systematically poor cache behaviour, and code is made
/// executable before the function pointer is handed back (Keppel [28]
/// addressed this portability problem; on x86-64/Linux no icache flush is
/// needed).
///
/// Every compiled or loaded function lives in one block of the process-wide
/// CodeHeap. The heap maps large dual-mapped chunks (memfd shared memory
/// mapped twice: a writable view the heap installs bytes through and a
/// read+exec alias entry points land in), so installing a function costs no
/// syscall and no single virtual range is ever writable and executable at
/// once. Blocks start 64-byte aligned, are sized by class, and go back on
/// their class's freelist, scrubbed, when the function that owns them dies.
///
/// CodeRegion is a standalone buffer that code is emitted into in place
/// (assembler and back-end unit tests, ablation benches) and flipped
/// executable with the classic W^X mprotect.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SUPPORT_CODEBUFFER_H
#define TICKC_SUPPORT_CODEBUFFER_H

#include "support/ThreadSafety.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tcc {

/// Where a function's code starts inside its heap block.
enum class CodePlacement {
  Sequential, ///< At the block start.
  Randomized, ///< After a random pad modulo the i-cache size (paper §4.4).
};

/// A page-granular private mapping that machine code is written into and
/// executed from, one protection at a time.
class CodeRegion {
public:
  explicit CodeRegion(std::size_t Capacity);
  ~CodeRegion();

  CodeRegion(const CodeRegion &) = delete;
  CodeRegion &operator=(const CodeRegion &) = delete;

  /// Start of the mapping.
  std::uint8_t *base() const { return Mapping; }

  /// Bytes available starting at base() (the request, page rounded).
  std::size_t capacity() const { return Capacity; }

  /// Flips the region executable (and read-only for writes under W^X).
  /// Must be called before executing emitted code.
  void makeExecutable();

  /// Flips the region back to writable.
  void makeWritable();

  bool isExecutable() const { return Executable; }

private:
  std::uint8_t *Mapping = nullptr; ///< Page-aligned mmap base.
  std::size_t Capacity = 0;
  bool Executable = false;
};

/// One function's memory in the CodeHeap: installed bytes behind a writable
/// view and the read+exec alias they run from. Move-only; destruction
/// returns the block to the heap, so its owner must outlive every call into
/// the code (CompiledFn is destroyed only when its FnHandle count or its
/// tier slot dies).
class CodeBlock {
public:
  CodeBlock() = default;
  CodeBlock(CodeBlock &&O) noexcept { *this = std::move(O); }
  CodeBlock &operator=(CodeBlock &&O) noexcept;
  ~CodeBlock();

  CodeBlock(const CodeBlock &) = delete;
  CodeBlock &operator=(const CodeBlock &) = delete;

  /// The installed bytes through the writable view: relocations are
  /// patched and admission runs here, before exec() is published.
  std::uint8_t *code() const { return W + Pad; }
  /// Where the installed bytes execute.
  std::uint8_t *exec() const { return X + Pad; }
  /// Installed byte count.
  std::size_t size() const { return Len; }
  explicit operator bool() const { return W != nullptr; }

private:
  friend class CodeHeap;
  std::uint8_t *W = nullptr; ///< Block start, writable view.
  std::uint8_t *X = nullptr; ///< Block start, exec view.
  std::uint32_t Len = 0;     ///< Installed bytes.
  std::uint32_t Pad = 0;     ///< Randomized-placement offset of code().
  std::uint16_t Class = 0;   ///< Size class (freelist index).
};

/// Heap activity counters (monotonic except LiveBytes).
struct CodeHeapStats {
  std::uint64_t Chunks = 0;    ///< Dual-mapped chunks mapped.
  std::uint64_t Fresh = 0;     ///< Blocks carved from unused chunk space.
  std::uint64_t Reused = 0;    ///< Blocks taken from a freelist.
  std::uint64_t Freed = 0;     ///< Blocks returned by dying functions.
  std::uint64_t LiveBytes = 0; ///< Block bytes currently installed.
};

/// The one process-wide code heap. Chunks are never unmapped, and the heap
/// itself is never destroyed, so no static-destruction order can free code
/// that is still in use. A freed block keeps its address range for reuse
/// by its own class but not its memory: its partial pages are filled with
/// int3 and its whole pages are handed back to the kernel. All methods are
/// thread-safe.
class CodeHeap {
public:
  /// Size of an ordinary chunk. A block of more than a quarter of it gets
  /// a chunk of its own.
  static constexpr std::size_t ChunkBytes = std::size_t(4) << 20;
  /// Block alignment and size granule: one cache line, so a new install
  /// never shares a line with code another thread is running.
  static constexpr std::size_t BlockAlign = 64;

  static CodeHeap &global();

  /// Copies \p Len bytes into a block of their size class (multiples of
  /// 64 up to 4 KiB, then four classes per power of two), after a random
  /// 16-byte-aligned pad below hostICacheSize() for Randomized placement.
  CodeBlock install(const std::uint8_t *Bytes, std::size_t Len,
                    CodePlacement Placement);

  CodeHeapStats stats() const;

private:
  friend class CodeBlock;
  /// 64 exact classes plus 4 per doubling up to 4 GiB.
  static constexpr unsigned NumClasses = 64 + 4 * 20;
  /// A block's two views. Freelists live here, outside the blocks, so a
  /// freed block holds no heap metadata.
  struct Views {
    std::uint8_t *W; ///< Writable view.
    std::uint8_t *X; ///< Read+exec alias of the same pages.
  };

  CodeHeap() = default;
  /// Maps \p Bytes of fresh memfd shared memory twice; fatal on failure.
  static Views mapChunk(std::size_t Bytes);
  void release(CodeBlock &B);

  mutable support::Mutex M;
  Views Cur TICKC_GUARDED_BY(M) = {};              ///< Bump pointer.
  std::uint8_t *End TICKC_GUARDED_BY(M) = nullptr; ///< Cur chunk's end (W).
  std::vector<Views> Free[NumClasses] TICKC_GUARDED_BY(M);
  CodeHeapStats Stats TICKC_GUARDED_BY(M);
};

/// Returns the host instruction-cache size used by the randomized placement
/// policy (a fixed plausible constant when it cannot be queried).
std::size_t hostICacheSize();

} // namespace tcc

#endif // TICKC_SUPPORT_CODEBUFFER_H
