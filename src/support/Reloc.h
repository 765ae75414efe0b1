//===- support/Reloc.h - External-reference side table ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relocation side table the persistent code cache (src/persist) needs
/// to re-target a finalized CodeRegion against another process's address
/// space. Generated code embeds exactly three kinds of external 64-bit
/// addresses, all materialized through `movabs` (x86::Assembler::movRI64):
/// captured free-variable addresses, direct-call callee entry points, and
/// the profile invocation-counter slot. The emitting layer arms the
/// assembler with the pending kind (VCode::setP / emitCall /
/// prepareCallArgP / profileEntry); the assembler records the imm64's byte
/// offset when the movabs actually fires.
///
/// When an armed pointer takes a *non*-imm64 encoding (a captured address
/// that happens to fit a sign-extended imm32, or a null pointer folded to
/// `xor`), the emitted bytes carry the address in a form the loader cannot
/// safely re-point. Emission is deliberately left byte-identical to the
/// unrecorded build — the table is just marked unportable and the compile
/// is excluded from the snapshot (counted, never wrong).
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SUPPORT_RELOC_H
#define TICKC_SUPPORT_RELOC_H

#include <cstdint>
#include <vector>

namespace tcc {
namespace support {

/// What the imm64 at a recorded offset means to the loader.
enum class RelocKind : std::uint8_t {
  None = 0,
  /// A captured data address (FreeVar, pointer call argument). Re-pointed
  /// via the spec tree's canonical external-reference table.
  Ptr,
  /// A direct-call callee entry point. Re-pointed the same way; kept
  /// distinct so audits can tell data captures from code captures.
  Callee,
  /// The profile invocation counter. Re-pointed at the loading process's
  /// freshly created obs::ProfileEntry, not at anything in the tree.
  Profile,
};

/// One recorded imm64: Offset bytes from the region base, holding Value
/// (the emitting process's address) at record time.
struct RelocEntry {
  std::uint32_t Offset = 0;
  RelocKind Kind = RelocKind::None;
  std::uint64_t Value = 0;
};

/// Side table for one compile. Owned by the caller that wants persistence
/// (CompileService); wired to the assembler through CompileOptions::Relocs.
struct RelocTable {
  std::vector<RelocEntry> Entries;
  /// An armed external pointer escaped the imm64 form; the compile must
  /// not be written to a snapshot.
  bool Unportable = false;
};

} // namespace support
} // namespace tcc

#endif // TICKC_SUPPORT_RELOC_H
