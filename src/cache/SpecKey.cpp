//===- cache/SpecKey.cpp - Structural fingerprint of a cspec --------------==//

#include "cache/SpecKey.h"

#include "observability/Events.h"
#include "support/Hash.h"
#include "verify/Verify.h"

#include <bit>
#include <cstring>
#include <new>

using namespace tcc;
using namespace tcc::cache;
using namespace tcc::core;

std::uint8_t *KeyBytes::grow(std::size_t Used, std::size_t MinCap) {
  std::size_t NewCap = Cap;
  while (NewCap < MinCap)
    NewCap *= 2;
  auto *P = static_cast<std::uint8_t *>(::operator new(NewCap));
  std::memcpy(P, buffer(), Used);
  ::operator delete(Heap);
  Heap = P;
  Cap = static_cast<std::uint32_t>(NewCap);
  return P;
}

void KeyBytes::copyFrom(const KeyBytes &O) {
  if (O.Len > InlineBytes) {
    Heap = static_cast<std::uint8_t *>(::operator new(O.Len));
    Cap = O.Len;
  }
  std::memcpy(buffer(), O.data(), O.Len);
  Len = O.Len;
}

namespace {

std::uint64_t zigzag(std::int64_t V) {
  return (static_cast<std::uint64_t>(V) << 1) ^
         static_cast<std::uint64_t>(V >> 63);
}

/// Serializes a specification tree in the compact encoding SpecKey.h
/// describes. Key construction sits on the cache-hit path, so the writer is
/// tuned like one: a raw cursor into the key's inline buffer, one capacity
/// check per node covering all of that node's fixed fields, then unchecked
/// stores. Host byte order is fine — snapshot files carry the build/ISA
/// fingerprint, so keys only ever meet keys from the same build.
class KeyWriter {
public:
  KeyWriter(KeyBytes &Out, std::vector<ExtRef> &Refs)
      : Out(Out), Refs(Refs), Base(Out.buffer()), Cur(Base),
        End(Base + Out.capacity()) {}

  bool Cacheable = true;

  /// Records the bytes written as the key's length. Must be called before
  /// the caller reads Out.
  void finish() { Out.setSize(static_cast<std::size_t>(Cur - Base)); }

  /// Room for \p N more bytes.
  void ensure(std::size_t N) {
    if (static_cast<std::size_t>(End - Cur) < N)
      grow(N);
  }
  void u8(std::uint8_t V) { *Cur++ = V; }
  void varint(std::uint64_t V) {
    while (V >= 0x80) {
      *Cur++ = static_cast<std::uint8_t>(V | 0x80);
      V >>= 7;
    }
    *Cur++ = static_cast<std::uint8_t>(V);
  }

  /// Widest node head: two header bytes and a 10-byte varint (a ConstLong),
  /// or two header bytes and two 5-byte varints (a Call).
  static constexpr std::size_t MaxNodeHead = 12;

  void expr(const ExprNode *N) {
    ensure(MaxNodeHead);
    unsigned Mask = (N->A ? 1u : 0u) | (N->B ? 2u : 0u) | (N->C ? 4u : 0u);
    u8(static_cast<std::uint8_t>(static_cast<unsigned>(N->Kind) | Mask << 4));
    u8(static_cast<std::uint8_t>(N->Type));
    switch (N->Kind) {
    case ExprKind::ConstInt:
    case ExprKind::ConstLong:
      varint(zigzag(N->IntVal));
      break;
    case ExprKind::ConstDouble: {
      std::uint64_t Bits = std::bit_cast<std::uint64_t>(N->FpVal);
      std::memcpy(Cur, &Bits, 8);
      Cur += 8;
      break;
    }
    case ExprKind::Local:
      varint(static_cast<std::uint32_t>(N->LocalId));
      break;
    case ExprKind::FreeVar:
      u8(N->OpByte);
      [[fallthrough]];
    case ExprKind::Call:
      // Captured addresses are part of the code the walk emits, but the
      // bytes stay address-independent: they carry the first-occurrence
      // ordinal, the addresses land in Refs.
      varint(refOrdinal(static_cast<std::uint8_t>(N->Kind),
                        static_cast<std::uint64_t>(
                            reinterpret_cast<std::uintptr_t>(N->PtrVal))));
      if (N->Kind == ExprKind::Call)
        varint(N->ArgC);
      break;
    case ExprKind::Binary:
    case ExprKind::Cmp:
    case ExprKind::Unary:
    case ExprKind::Load:
      u8(N->OpByte);
      break;
    case ExprKind::RtEval:
      // The rc interpreter may read memory under $: the immediate it embeds
      // depends on the pointee at instantiation time, not on the tree.
      if (N->A && (N->A->Flags & EF_HasMemOp))
        Cacheable = false;
      break;
    case ExprKind::Cond:
      break;
    }
    if (N->A)
      expr(N->A);
    if (N->B)
      expr(N->B);
    if (N->C)
      expr(N->C);
    for (std::uint32_t I = 0; I < N->ArgC; ++I)
      expr(N->ArgV[I]);
  }

  void stmt(const StmtNode *S) {
    ensure(MaxNodeHead);
    u8(static_cast<std::uint8_t>(S->Kind));
    u8(static_cast<std::uint8_t>((S->E ? 1u : 0u) | (S->E2 ? 2u : 0u) |
                                 (S->E3 ? 4u : 0u) | (S->S1 ? 8u : 0u) |
                                 (S->S2 ? 16u : 0u)));
    switch (S->Kind) {
    case StmtKind::Store:
      u8(S->OpByte);
      break;
    case StmtKind::For:
      u8(S->OpByte);
      [[fallthrough]];
    case StmtKind::AssignLocal:
    case StmtKind::LabelDef:
    case StmtKind::Goto:
      varint(static_cast<std::uint32_t>(S->LocalId));
      break;
    case StmtKind::Block:
      varint(S->BodyC);
      break;
    default:
      break;
    }
    if (S->E)
      expr(S->E);
    if (S->E2)
      expr(S->E2);
    if (S->E3)
      expr(S->E3);
    if (S->S1)
      stmt(S->S1);
    if (S->S2)
      stmt(S->S2);
    for (std::uint32_t I = 0; I < S->BodyC; ++I)
      stmt(S->BodyV[I]);
  }

private:
  /// First-occurrence ordinal of (Kind, Addr). Linear scan: spec trees
  /// capture a handful of externals, not hundreds.
  std::uint32_t refOrdinal(std::uint8_t Kind, std::uint64_t Addr) {
    for (std::size_t I = 0; I < Refs.size(); ++I)
      if (Refs[I].Kind == Kind && Refs[I].Addr == Addr)
        return static_cast<std::uint32_t>(I);
    Refs.push_back({Kind, Addr});
    return static_cast<std::uint32_t>(Refs.size() - 1);
  }

  void grow(std::size_t N) {
    std::size_t Len = static_cast<std::size_t>(Cur - Base);
    Base = Out.grow(Len, Len + N);
    Cur = Base + Len;
    End = Base + Out.capacity();
  }

  KeyBytes &Out;
  std::vector<ExtRef> &Refs;
  std::uint8_t *Base, *Cur, *End;
};

} // namespace

SpecKey cache::buildSpecKey(const Context &Ctx, Stmt Body, EvalType RetType,
                            const CompileOptions &Opts) {
  obs::Phase Span(obs::EventKind::SpecFingerprint);
  SpecKey K;
  KeyWriter W(K.Bytes, K.Refs);
  // Everything in CompileOptions that changes generated code.
  //
  // Backend is the FIRST key byte and covers BackendKind exhaustively:
  // VCode=0 and ICode=1 serialize to distinct bytes, and key equality is
  // full byte-string equality, so the back ends can never share a cache
  // slot. A record keyed under a retired back end's byte (2, copy-and-patch)
  // is never probed. Pinned by SpecKey.BackendsOccupyDistinctSlots.
  W.ensure(KeyWriter::MaxNodeHead);
  W.u8(static_cast<std::uint8_t>(Opts.Backend));
  W.u8(static_cast<std::uint8_t>(Opts.RegAlloc));
  W.u8(static_cast<std::uint8_t>(Opts.Spill));
  W.u8(static_cast<std::uint8_t>(Opts.Placement));
  W.varint(Opts.UnrollLimit);
  // Profiled code carries an extra prologue instruction, so it can never
  // share an entry with unprofiled code. Name is a label, not a semantic
  // input: same-key profiled compiles share the first entry's counter (and
  // name).
  W.u8(Opts.Profile ? 1 : 0);
  // The *effective* verify setting (option OR the TICKC_VERIFY environment):
  // a hit on a verified entry must mean the stored code actually passed the
  // checkers, and flipping the environment variable mid-run must not let
  // unverified cached code satisfy a verified lookup.
  W.u8(verify::enabled(Opts.Verify) ? 1 : 0);
  W.u8(static_cast<std::uint8_t>(RetType));

  // The vspec table: LocalIds in the tree index into it.
  const std::vector<LocalInfo> &Locals = Ctx.locals();
  W.ensure(10 + 6 * Locals.size());
  W.varint(Locals.size());
  for (const LocalInfo &L : Locals) {
    W.u8(static_cast<std::uint8_t>(L.Type));
    W.varint(zigzag(L.ArgIndex));
  }

  W.ensure(1);
  W.u8(Body.valid() ? 1 : 0);
  if (Body.valid())
    W.stmt(Body.node());
  W.finish();
  K.Cacheable = W.Cacheable;
  // The bytes hash is the one snapshot records store (support/Hash.h, the
  // algorithm the persistence layer shares); the identity hash folds each
  // captured address in on top of it.
  K.BytesHash = support::hashBytes(K.Bytes.data(), K.Bytes.size());
  K.Hash = K.BytesHash;
  for (const ExtRef &R : K.Refs)
    K.Hash = support::hashMix64(K.Hash ^ R.Addr);
  return K;
}
