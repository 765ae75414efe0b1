//===- cache/SpecKey.h - Structural cache key for cspecs -------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives a structural identity for one instantiation request: a canonical
/// byte fingerprint of the cspec closure tree — node kinds, types,
/// operators, vspec ids, bound run-time constants (`$` values) — plus the
/// Context's vspec table, the return type, and every CompileOptions knob
/// that changes generated code. Captured free-variable and callee addresses
/// stay out of the bytes: each is written as the ordinal of its first
/// occurrence and listed in Refs, so the bytes are the same in every
/// process that builds the spec, and the persistent snapshot keys on them
/// as they are.
///
/// Two instantiation requests with equal SpecKeys (bytes and Refs) produce
/// byte-identical machine code, even when their trees were built by
/// different Contexts: instantiation is a pure function of exactly the facts
/// serialized here. The one exception is `$`-at-instantiation over memory
/// (rtEval of a load or free variable): the embedded immediate depends on
/// what memory holds *when the walk runs*, which no tree fingerprint can
/// capture — such specs are marked not Cacheable and always compile.
///
/// Byte encoding (snapshot format 4). Kinds, types, ops and masks are one
/// byte each; counts, ids, Refs ordinals and integer constants are LEB128
/// varints, and "zz" marks a zigzag-mapped signed one.
///
///   key     := options locals root
///   options := Backend RegAlloc Spill Placement UnrollLimit Profile Verify
///              RetType                     (one byte each but UnrollLimit)
///   locals  := count (Type zz(ArgIndex))*
///   root    := 0 | 1 stmt
///   expr    := Kind|mask<<4  Type  payload  A? B? C?  args
///   stmt    := Kind  mask  payload  E? E2? E3? S1? S2?  body
///
/// An expr's mask has bit 0/1/2 set when A/B/C is present (stmt: bits 0..4
/// for E, E2, E3, S1, S2), so a missing child costs nothing. The payload
/// carries only the fields the node's kind uses, as the Context factories
/// set them:
///
///   ConstInt, ConstLong  zz(IntVal)          Local      LocalId
///   ConstDouble          8 raw FpVal bytes   FreeVar    Op ordinal
///   Binary, Cmp, Unary, Load  Op             Call       ordinal ArgC
///   Store  Op      AssignLocal, LabelDef, Goto  LocalId
///   For    Op LocalId        Block  BodyC
///
/// and `args`/`body` are the ArgC arguments / BodyC statements that follow
/// a Call / Block. Every field is self-delimiting and the kind says which
/// follow, so bytes and Refs decode to exactly one tree: equal keys mean
/// equal trees. Derived facts (RegNeed, Flags, CallFpArgs) are left out: they are
/// functions of what is written. servebench's five-comparison query
/// encodes in about 120 bytes, inside SpecKey's inline buffer.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_CACHE_SPECKEY_H
#define TICKC_CACHE_SPECKEY_H

#include "core/Compile.h"
#include "core/Context.h"

#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

namespace tcc {
namespace cache {

/// One canonical external reference of a spec tree, in first-occurrence
/// walk order. Kind is the ExprKind byte (FreeVar or Call) so the same
/// numeric address captured both as data and as a callee never aliases.
struct ExtRef {
  std::uint8_t Kind = 0;
  std::uint64_t Addr = 0;
  bool operator==(const ExtRef &O) const {
    return Kind == O.Kind && Addr == O.Addr;
  }
};

/// A key's canonical bytes: inline up to InlineBytes, on the heap past
/// that. Building a key that fits mallocs nothing and clears nothing.
class KeyBytes {
public:
  static constexpr std::size_t InlineBytes = 192;
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t *;
  using iterator = const_iterator;

  // User-provided, so even a value-initialized key leaves Inline uncleared.
  KeyBytes() {}
  KeyBytes(const KeyBytes &O) { copyFrom(O); }
  KeyBytes(KeyBytes &&O) noexcept { take(O); }
  KeyBytes &operator=(const KeyBytes &O) {
    if (this != &O) {
      release();
      copyFrom(O);
    }
    return *this;
  }
  KeyBytes &operator=(KeyBytes &&O) noexcept {
    if (this != &O) {
      release();
      take(O);
    }
    return *this;
  }
  ~KeyBytes() { ::operator delete(Heap); }

  const std::uint8_t *data() const { return Heap ? Heap : Inline; }
  std::size_t size() const { return Len; }
  bool empty() const { return Len == 0; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Len; }
  std::uint8_t operator[](std::size_t I) const { return data()[I]; }
  bool operator==(const KeyBytes &O) const {
    return Len == O.Len && std::memcmp(data(), O.data(), Len) == 0;
  }

  // The serializer's interface (SpecKey.cpp): the writable buffer, growth
  // that keeps its first \p Used bytes, and the final length.
  std::uint8_t *buffer() { return Heap ? Heap : Inline; }
  std::size_t capacity() const { return Cap; }
  std::uint8_t *grow(std::size_t Used, std::size_t MinCap);
  void setSize(std::size_t N) { Len = static_cast<std::uint32_t>(N); }

private:
  void release() {
    ::operator delete(Heap);
    Heap = nullptr;
    Len = 0;
    Cap = InlineBytes;
  }
  void copyFrom(const KeyBytes &O);
  void take(KeyBytes &O) {
    if (O.Heap) {
      Heap = O.Heap;
      Cap = O.Cap;
      O.Heap = nullptr;
      O.Cap = InlineBytes;
    } else {
      std::memcpy(Inline, O.Inline, O.Len);
    }
    Len = O.Len;
    O.Len = 0;
  }

  std::uint8_t *Heap = nullptr;
  std::uint32_t Len = 0;
  std::uint32_t Cap = InlineBytes;
  std::uint8_t Inline[InlineBytes];
};

/// The one spec identity: the memoization key, the tier-slot key and the
/// snapshot record key. Bytes plus Refs is complete — the address-bearing
/// form is Bytes with each ordinal replaced by its Refs entry.
struct SpecKey {
  /// Canonical bytes, address-independent (captures appear as ordinals).
  KeyBytes Bytes;
  /// The captured addresses, indexed by the ordinals in Bytes. A loader
  /// re-points a record's imm64 slots through them (stored ordinal i →
  /// this process's address at i).
  std::vector<ExtRef> Refs;
  /// Hash of Bytes alone; equal across processes. Snapshot records store
  /// and index it.
  std::uint64_t BytesHash = 0;
  /// BytesHash mixed with every Ref: the in-process identity hash that
  /// unordered containers, cache shards and symbol names use, so specs
  /// differing only in a captured address spread apart.
  std::uint64_t Hash = 0;
  /// False when the spec's generated code can depend on instantiation-time
  /// memory contents (rtEval over loads); never memoized or persisted.
  bool Cacheable = true;

  bool operator==(const SpecKey &O) const {
    return Hash == O.Hash && Bytes == O.Bytes && Refs == O.Refs;
  }
};

/// Hasher for unordered containers: the hash is already computed.
struct SpecKeyHash {
  std::size_t operator()(const SpecKey &K) const {
    return static_cast<std::size_t>(K.Hash);
  }
};

/// Fingerprints one instantiation request, recorded as a `spec-fingerprint`
/// span. Cost is one tree walk — the same order of work as the CGF walk
/// itself, minus all emission.
SpecKey buildSpecKey(const core::Context &Ctx, core::Stmt Body,
                     core::EvalType RetType,
                     const core::CompileOptions &Opts);

} // namespace cache
} // namespace tcc

#endif // TICKC_CACHE_SPECKEY_H
