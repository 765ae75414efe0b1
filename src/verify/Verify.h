//===- verify/Verify.h - Self-checking compile pipeline ---------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Four independent static-analysis layers that check a dynamic compile
/// after the fact. The first three are gated by CompileOptions::Verify or
/// TICKC_VERIFY=1; the last also runs on every snapshot load:
///
///   Spec     — lints the cspec tree before lowering (dangling cross-context
///              references after a closure-arena reset, unbound free
///              variables, `$`-bound expressions that can never be run-time
///              constants, malformed nodes).
///   IR       — structural ICODE verification plus a forward must-dataflow
///              pass proving every vreg is defined on all paths before use.
///              Runs after Walker lowering and again after the peephole.
///   RegAlloc — independently recomputes exact liveness and proves the
///              allocator's assignment is conflict-free, correctly shaped,
///              and keeps no float in a (caller-saved) register across a
///              call.
///   Admit    — decodes the finalized region with the strict x86 decoder,
///              recovers its CFG, and proves by abstract interpretation the
///              frame, stack, callee-saved, call-target and profile-hook
///              properties; fresh ICODE compiles add that back end's own
///              facts (EmitterUsage cross-check and spill
///              store-before-load).
///
/// Every checker is deliberately *independent* of the code it audits: it
/// has its own operand-signature table, its own CFG construction, and its
/// own liveness solver, so a shared bug cannot vouch for itself.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_VERIFY_VERIFY_H
#define TICKC_VERIFY_VERIFY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tcc {
namespace icode {
class ICode;
struct Instr;
struct Allocation;
} // namespace icode
namespace core {
class Context;
struct StmtNode;
} // namespace core
namespace support {
struct RelocEntry;
} // namespace support

namespace verify {

enum class Layer : std::uint8_t { Spec, IR, RegAlloc, Admit };

const char *layerName(Layer L);

/// One structured finding. Category is a stable machine-checkable slug
/// (e.g. "use-before-def", "phys-conflict", "branch-target"); Message is
/// human-oriented; Dump carries the offending IR window, location table, or
/// hex bytes.
struct Diagnostic {
  Layer L;
  std::string Category;
  std::string Message;
  std::string Dump;
};

/// Accumulated result of one checker run.
class Result {
public:
  bool ok() const { return Diags.empty(); }
  void fail(Layer L, const char *Category, std::string Message,
            std::string Dump = {}) {
    Diags.push_back({L, Category, std::move(Message), std::move(Dump)});
  }
  const std::vector<Diagnostic> &diags() const { return Diags; }
  bool has(const char *Category) const;
  /// Renders all diagnostics (with dumps) into a printable report.
  std::string render() const;

private:
  std::vector<Diagnostic> Diags;
};

/// True when TICKC_VERIFY is set to anything but "0"/"" (read once).
bool envEnabled();

/// Effective gate: explicit option or ambient environment.
inline bool enabled(bool OptFlag) { return OptFlag || envEnabled(); }

/// Layer 0 (runs first): cspec tree lint before lowering.
Result lintSpec(const core::Context &Ctx, const core::StmtNode *Body);

/// Layer 1: ICODE verification over the builder's own stream.
Result verifyICode(const icode::ICode &IC);

/// Layer 1, raw-stream form: verifies \p N instructions at \p Instrs against
/// the register/label/pool metadata of \p IC. The mutation harness uses this
/// to check corrupted copies without rebuilding an ICode.
Result verifyInstrs(const icode::ICode &IC, const icode::Instr *Instrs,
                    std::size_t N);

/// Layer 2: audits a finished register allocation against independently
/// recomputed exact liveness.
Result auditAllocation(const icode::ICode &IC, const icode::Allocation &Alloc);

/// Inputs for the machine-code admission verifier (AdmissionVerify.cpp).
/// Code must be a readable view of the bytes that will run *after*
/// relocation patching (for installed code, the heap block's writable
/// view) — the analysis proves properties of exactly those bytes.
struct AdmissionInputs {
  const std::uint8_t *Code = nullptr;
  std::size_t Size = 0;
  /// Address the ProfileInc counter must target; null when profiling is off.
  const void *ProfileCounter = nullptr;
  /// When set, the function must contain exactly the planted counter
  /// increments; when clear, any `lock inc` is an error.
  bool ExpectProfile = false;
  /// The relocation side table (snapshot record or fresh RelocTable); only
  /// Offset and Kind are read. Slots are the only immediates whose values
  /// came from the loader's own SpecKey::Refs walk (or a freshly created
  /// profile counter) — everything else embedded in the bytes is untrusted
  /// input. When HaveRelocs is set, every slot must land exactly on a
  /// decoded movabs payload, and an indirect call may only target a value
  /// materialized by a Callee/Ptr slot or computed at run time — a stray
  /// embedded imm64 used as a call target is rejected. When clear (fresh
  /// compile with no recorded table), immediates are the emitter's own and
  /// are trusted.
  const support::RelocEntry *Relocs = nullptr;
  std::size_t NumRelocs = 0;
  bool HaveRelocs = false;
  /// ICODE-backend compiles only: every decoded instruction is justified by
  /// an opcode EmitterUsage recorded (link-time-pruning drift check), and
  /// every spill-slot load is preceded by a store to that slot on all paths.
  /// (VCODE output has no such guarantee — an uninitialized C local may
  /// legitimately be read.) In a page-guarded function both facts stop at
  /// the VCODE fallback behind the guard.
  bool ICodeFacts = false;
};

/// Layer 3: machine-code admission, the one analyzer of emitted bytes.
/// Strict whole-region decode, canonical prologue and reloc shape, then
/// full CFG recovery (branch targets on boundaries, well-formed terminator
/// structure; unreachable ranges are admitted but proven inert — no
/// reachable transfer can enter them) and a worklist abstract
/// interpretation proving stack-depth balance and callee-saved
/// save/restore obligations on *all* paths to every ret, frame-pointer
/// integrity (no rsp/rbp escape, no store above the frame), and the
/// call-target confinement properties. Every snapshot load must pass this
/// before its bytes can execute; under TICKC_VERIFY it also runs on fresh
/// compiles from both back ends, with ICODE's optional facts (ICodeFacts)
/// switched on. Each thread reuses one set of analysis arrays, so a warm
/// call that admits allocates nothing.
Result verifyAdmission(const AdmissionInputs &In);

/// Feeds verify.<layer>.{checked,failed} and verify.cycles into the
/// MetricsRegistry.
void recordOutcome(Layer L, bool Failed, std::uint64_t Cycles);

/// Prints the rendered result to stderr and aborts the compile via
/// reportFatalError. Only called when a checker found corruption — a wrong
/// answer later would be strictly worse than dying loudly here.
[[noreturn]] void failCompile(const Result &R);

} // namespace verify
} // namespace tcc

#endif // TICKC_VERIFY_VERIFY_H
