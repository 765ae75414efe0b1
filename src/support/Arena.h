//===- support/Arena.h - Bump-pointer arena allocator ----------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena (region) allocator. The paper allocates closures from arenas so
/// allocation cost is "a pointer increment, in the normal case" (§4.2) and
/// deallocation of all dynamic-compilation metadata is essentially free.
/// ICODE's flow graph and liveness structures use the same allocator (§5.2).
///
/// reset() retains capacity: a multi-slab arena coalesces into one slab
/// sized for everything it held, so a CompileContext that resets its
/// arena between compiles stops touching the system allocator entirely once
/// it has seen its largest compile. systemAllocs() counts the residual
/// malloc traffic — the quantity the compile.allocs gate drives to zero.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SUPPORT_ARENA_H
#define TICKC_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tcc {

/// A bump-pointer arena. Individual objects cannot be freed; the whole arena
/// is released at once. Objects allocated here must be trivially
/// destructible or must not rely on their destructor running.
class Arena {
public:
  explicit Arena(std::size_t SlabBytes = DefaultSlabBytes);
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Bytes with the given \p Align. Never returns null; aborts
  /// on out-of-memory.
  void *allocate(std::size_t Bytes, std::size_t Align = alignof(max_align_t)) {
    // The pointer increment is inline (specification time allocates one
    // node per factory call); a new slab is out of line.
    auto P = reinterpret_cast<std::uintptr_t>(Cur);
    std::uintptr_t Aligned = (P + Align - 1) & ~(std::uintptr_t(Align) - 1);
    char *Result = reinterpret_cast<char *>(Aligned);
    if (Result + Bytes > End)
      return allocateInNewSlab(Bytes, Align);
    Cur = Result + Bytes;
    BytesAllocated += Bytes;
    if (BytesAllocated > HighWater)
      HighWater = BytesAllocated;
    return Result;
  }

  /// Constructs a T in the arena.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<ArgTs>(Args)...);
  }

  /// Allocates an uninitialized array of \p Count T objects.
  template <typename T> T *allocateArray(std::size_t Count) {
    return static_cast<T *>(allocate(sizeof(T) * Count, alignof(T)));
  }

  /// Allocates a zero-filled array of \p Count T objects (T must be
  /// trivially constructible from all-zero bytes, like the liveness words).
  template <typename T> T *allocateZeroed(std::size_t Count) {
    void *Mem = allocate(sizeof(T) * Count, alignof(T));
    std::memset(Mem, 0, sizeof(T) * Count);
    return static_cast<T *>(Mem);
  }

  /// Resets the bump pointer, retaining capacity. A single-slab arena is
  /// reset in place (no system-allocator traffic at all); a multi-slab
  /// arena coalesces into one slab sized for the total it held, so the
  /// *next* reset is free. All previously returned pointers become invalid.
  void reset();

  /// Total bytes handed out since construction or the last reset().
  std::size_t bytesAllocated() const { return BytesAllocated; }

  /// Largest bytesAllocated() ever observed (across resets) — the arena's
  /// high-water mark, reported as compile.arena_bytes.
  std::size_t highWater() const { return HighWater; }

  /// Number of live slabs. The fast path (no new slab) is a pointer
  /// increment, matching the paper's closure-allocation cost claim.
  std::size_t slabCount() const { return NumSlabs; }

  /// Monotonic count of system (malloc) slab requests over the arena's
  /// lifetime. Steady-state compiles must not move this.
  std::uint64_t systemAllocs() const { return TotalSystemAllocs; }

private:
  static constexpr std::size_t DefaultSlabBytes = 64 * 1024;

  struct Slab {
    Slab *Next;
    std::size_t Size;
    // Payload follows the header.
  };

  void addSlab(std::size_t MinBytes);
  void *allocateInNewSlab(std::size_t Bytes, std::size_t Align);

  Slab *Head = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  std::size_t SlabBytes;
  std::size_t BytesAllocated = 0;
  std::size_t HighWater = 0;
  std::size_t NumSlabs = 0;
  std::uint64_t TotalSystemAllocs = 0;
};

/// A growable array whose storage lives in an Arena. The compile pipeline's
/// replacement for std::vector: push_back is a bump allocation at worst,
/// and "freeing" is the enclosing arena reset. Restricted to trivially
/// copyable, trivially destructible element types — growth relocates with
/// memcpy and abandoned storage is never destroyed.
///
/// A default-constructed ArenaVector is detached; it must not be grown
/// until it is re-assigned from one constructed with an arena.
template <typename T> class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector elements must be trivially copyable");
  static_assert(std::is_trivially_destructible_v<T>,
                "ArenaVector elements must be trivially destructible");

public:
  ArenaVector() = default;
  explicit ArenaVector(Arena &A) : A(&A) {}

  void push_back(const T &V) {
    if (Count == Cap)
      grow(Count + 1);
    ::new (static_cast<void *>(Data + Count)) T(V);
    ++Count;
  }

  template <typename... ArgTs> T &emplace_back(ArgTs &&...Args) {
    if (Count == Cap)
      grow(Count + 1);
    T *P = ::new (static_cast<void *>(Data + Count))
        T(std::forward<ArgTs>(Args)...);
    ++Count;
    return *P;
  }

  void pop_back() { --Count; }
  /// Drops the elements; capacity (arena storage) is retained.
  void clear() { Count = 0; }

  /// Grows or shrinks to \p N elements; new elements are copies of \p V.
  void resize(std::size_t N, const T &V = T()) {
    if (N > Cap)
      grow(N);
    for (std::size_t I = Count; I < N; ++I)
      ::new (static_cast<void *>(Data + I)) T(V);
    Count = N;
  }

  /// Replaces the contents with \p N copies of \p V.
  void assign(std::size_t N, const T &V) {
    clear();
    resize(N, V);
  }

  void reserve(std::size_t N) {
    if (N > Cap)
      grow(N);
  }

  T &operator[](std::size_t I) { return Data[I]; }
  const T &operator[](std::size_t I) const { return Data[I]; }
  T &back() { return Data[Count - 1]; }
  const T &back() const { return Data[Count - 1]; }
  T &front() { return Data[0]; }
  const T &front() const { return Data[0]; }

  T *data() { return Data; }
  const T *data() const { return Data; }
  T *begin() { return Data; }
  T *end() { return Data + Count; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Count; }

  std::size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

private:
  void grow(std::size_t MinCap) {
    std::size_t NewCap = Cap ? Cap * 2 : 8;
    if (NewCap < MinCap)
      NewCap = MinCap;
    T *NewData = A->allocateArray<T>(NewCap);
    if (Count)
      std::memcpy(static_cast<void *>(NewData),
                  static_cast<const void *>(Data), Count * sizeof(T));
    // The old storage is abandoned in the arena; reclaimed at reset().
    Data = NewData;
    Cap = NewCap;
  }

  T *Data = nullptr;
  std::size_t Count = 0;
  std::size_t Cap = 0;
  Arena *A = nullptr;
};

} // namespace tcc

#endif // TICKC_SUPPORT_ARENA_H
