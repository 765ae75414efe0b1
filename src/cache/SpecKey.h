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
//===----------------------------------------------------------------------===//

#ifndef TICKC_CACHE_SPECKEY_H
#define TICKC_CACHE_SPECKEY_H

#include "core/Compile.h"
#include "core/Context.h"

#include <cstdint>
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

/// The one spec identity: the memoization key, the tier-slot key and the
/// snapshot record key. Bytes plus Refs is complete — the address-bearing
/// form is Bytes with each ordinal replaced by its Refs entry.
struct SpecKey {
  /// Canonical bytes, address-independent (captures appear as ordinals).
  std::vector<std::uint8_t> Bytes;
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
