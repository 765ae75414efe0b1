//===- cache/SpecKey.cpp - Structural fingerprint of a cspec --------------==//

#include "cache/SpecKey.h"

#include "observability/Events.h"
#include "support/Hash.h"
#include "verify/Verify.h"

#include <bit>
#include <cstring>

using namespace tcc;
using namespace tcc::cache;
using namespace tcc::core;

namespace {

/// Serializes a specification tree into canonical bytes. Derived node facts
/// (RegNeed, Flags) are skipped: they are functions of the serialized
/// structure. Null children get an explicit marker so sibling boundaries
/// stay unambiguous.
class KeyWriter {
public:
  KeyWriter(std::vector<std::uint8_t> &Out, std::vector<ExtRef> &Refs)
      : Out(Out), Refs(Refs) {
    Out.resize(1024);
    Cur = Out.data();
    End = Cur + Out.size();
  }

  bool Cacheable = true;

  /// Trims the buffer to the bytes actually written. Must be called before
  /// the caller reads Out.
  void finish() { Out.resize(static_cast<std::size_t>(Cur - Out.data())); }

  // Key construction sits on the cache-hit path, so the serializer is tuned
  // like one: a raw cursor over a pre-grown buffer, one capacity check per
  // node covering all of that node's fixed-width fields, then unchecked
  // stores. Host byte order is fine — snapshot files carry the build/ISA
  // fingerprint, so keys only ever meet keys from the same build.
  void ensure(std::size_t N) {
    if (static_cast<std::size_t>(End - Cur) < N)
      grow(N);
  }
  void raw(const void *P, std::size_t N) {
    std::memcpy(Cur, P, N);
    Cur += N;
  }
  void u8(std::uint8_t V) { *Cur++ = V; }
  void u32(std::uint32_t V) { raw(&V, sizeof V); }
  void u64(std::uint64_t V) { raw(&V, sizeof V); }

  void expr(const ExprNode *N) {
    if (!N) {
      ensure(1);
      u8(0);
      return;
    }
    // Header (8) plus the widest leaf payload (8).
    ensure(16);
    std::uint8_t Hdr[8];
    Hdr[0] = 1;
    Hdr[1] = static_cast<std::uint8_t>(N->Kind);
    Hdr[2] = static_cast<std::uint8_t>(N->Type);
    Hdr[3] = N->OpByte;
    std::uint32_t Local = static_cast<std::uint32_t>(N->LocalId);
    std::memcpy(Hdr + 4, &Local, 4);
    raw(Hdr, 8);
    switch (N->Kind) {
    case ExprKind::ConstInt:
    case ExprKind::ConstLong:
      u64(static_cast<std::uint64_t>(N->IntVal));
      break;
    case ExprKind::ConstDouble:
      u64(std::bit_cast<std::uint64_t>(N->FpVal));
      break;
    case ExprKind::FreeVar:
    case ExprKind::Call: {
      // Captured addresses are part of the code the walk emits, but the
      // bytes stay address-independent: they carry the first-occurrence
      // ordinal, the addresses land in Refs.
      u32(refOrdinal(static_cast<std::uint8_t>(N->Kind),
                     static_cast<std::uint64_t>(
                         reinterpret_cast<std::uintptr_t>(N->PtrVal))));
      break;
    }
    case ExprKind::RtEval:
      // The rc interpreter may read memory under $: the immediate it embeds
      // depends on the pointee at instantiation time, not on the tree.
      if (N->A && (N->A->Flags & EF_HasMemOp))
        Cacheable = false;
      break;
    default:
      break;
    }
    expr(N->A);
    expr(N->B);
    expr(N->C);
    ensure(4);
    u32(N->ArgC);
    for (std::uint32_t I = 0; I < N->ArgC; ++I)
      expr(N->ArgV[I]);
  }

  void stmt(const StmtNode *S) {
    if (!S) {
      ensure(1);
      u8(0);
      return;
    }
    ensure(7);
    std::uint8_t Hdr[7];
    Hdr[0] = 1;
    Hdr[1] = static_cast<std::uint8_t>(S->Kind);
    Hdr[2] = S->OpByte;
    std::uint32_t Local = static_cast<std::uint32_t>(S->LocalId);
    std::memcpy(Hdr + 3, &Local, 4);
    raw(Hdr, 7);
    expr(S->E);
    expr(S->E2);
    expr(S->E3);
    stmt(S->S1);
    stmt(S->S2);
    ensure(4);
    u32(S->BodyC);
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
    std::size_t Len = static_cast<std::size_t>(Cur - Out.data());
    std::size_t Cap = Out.size();
    do
      Cap *= 2;
    while (Cap - Len < N);
    Out.resize(Cap);
    Cur = Out.data() + Len;
    End = Out.data() + Out.size();
  }

  std::vector<std::uint8_t> &Out;
  std::vector<ExtRef> &Refs;
  std::uint8_t *Cur = nullptr;
  std::uint8_t *End = nullptr;
};

} // namespace

SpecKey cache::buildSpecKey(const Context &Ctx, Stmt Body, EvalType RetType,
                            const CompileOptions &Opts) {
  obs::Phase Span(obs::EventKind::SpecFingerprint);
  SpecKey K;
  KeyWriter W(K.Bytes, K.Refs);
  // Everything in CompileOptions that changes generated code.
  //
  // Fixed-width options prefix: one capacity check covers it all.
  W.ensure(32);
  // Backend is the FIRST key byte and covers BackendKind exhaustively:
  // VCode=0 and ICode=1 serialize to distinct bytes, and key equality is
  // full byte-string equality, so the back ends can never share a cache
  // slot. A record keyed under a retired back end's byte (2, copy-and-patch)
  // is never probed. Pinned by SpecKey.BackendsOccupyDistinctSlots.
  W.u8(static_cast<std::uint8_t>(Opts.Backend));
  W.u8(static_cast<std::uint8_t>(Opts.RegAlloc));
  W.u8(static_cast<std::uint8_t>(Opts.Spill));
  W.u8(static_cast<std::uint8_t>(Opts.Placement));
  W.u32(Opts.UnrollLimit);
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
  W.ensure(4 + 5 * Locals.size());
  W.u32(static_cast<std::uint32_t>(Locals.size()));
  for (const LocalInfo &L : Locals) {
    W.u8(static_cast<std::uint8_t>(L.Type));
    W.u32(static_cast<std::uint32_t>(L.ArgIndex));
  }

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
