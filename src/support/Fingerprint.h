//===- support/Fingerprint.h - Build/ISA compatibility stamp ---*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process-wide fingerprint answering "may this process execute machine
/// code emitted by that build?". Snapshot files (src/persist) are stamped
/// with it at creation and rejected wholesale on mismatch — a counted,
/// recoverable miss, never an abort. Folds together:
///
///   * the compiler identity (__VERSION__) and language/ABI basics, so a
///     rebuild with a different toolchain invalidates old snapshots;
///   * the build-flag hash CMake passes as TICKC_BUILD_FLAGS (optimization
///     level and sanitizers change emitted-code expectations such as the
///     admission verifier's strictness posture);
///   * the CPUID feature bits the emitters rely on, so a snapshot written
///     on a wider machine never reaches a narrower one;
///   * a format version, bumped whenever the snapshot record layout or the
///     relocation scheme changes.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SUPPORT_FINGERPRINT_H
#define TICKC_SUPPORT_FINGERPRINT_H

#include <cstdint>

namespace tcc {
namespace support {

/// Bumped on any persisted-format or relocation-scheme change.
inline constexpr std::uint32_t SnapshotFormatVersion = 3;

/// The process-wide build/ISA fingerprint (computed once, then cached).
std::uint64_t buildFingerprint();

/// The raw CPUID-derived feature word folded into buildFingerprint() —
/// exposed so tests can prove a feature-bit flip changes the fingerprint.
std::uint64_t cpuFeatureBits();

} // namespace support
} // namespace tcc

#endif // TICKC_SUPPORT_FINGERPRINT_H
