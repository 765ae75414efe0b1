//===- verify/Verify.cpp - Shared verification machinery ------------------===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"
#include "verify/VerifyInternal.h"

#include "observability/Events.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "support/Error.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tcc {
namespace verify {

using icode::Instr;
using icode::Op;
using icode::VReg;

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Spec: return "spec";
  case Layer::IR: return "ir";
  case Layer::RegAlloc: return "alloc";
  case Layer::Admit: return "admit";
  }
  return "?";
}

bool Result::has(const char *Category) const {
  for (const Diagnostic &D : Diags)
    if (D.Category == Category)
      return true;
  return false;
}

std::string Result::render() const {
  std::string S;
  char Buf[128];
  for (const Diagnostic &D : Diags) {
    std::snprintf(Buf, sizeof(Buf), "[verify:%s] %s: ", layerName(D.L),
                  D.Category.c_str());
    S += Buf;
    S += D.Message;
    S += '\n';
    if (!D.Dump.empty()) {
      S += D.Dump;
      if (S.back() != '\n')
        S += '\n';
    }
  }
  return S;
}

bool envEnabled() {
  static const bool On = [] {
    const char *E = std::getenv("TICKC_VERIFY");
    return E && *E && std::strcmp(E, "0") != 0;
  }();
  return On;
}

namespace {

/// Resolved once; every verification outcome funnels through here.
struct VerifyMetrics {
  obs::Counter &SpecChecked, &SpecFailed;
  obs::Counter &IrChecked, &IrFailed;
  obs::Counter &AllocChecked, &AllocFailed;
  obs::Counter &AdmitChecked, &AdmitFailed, &AdmitCycles;
  obs::Counter &AdmitBlocks, &AdmitCalls;
  obs::Counter &Cycles;

  static VerifyMetrics &get() {
    static VerifyMetrics M = [] {
      auto &R = obs::MetricsRegistry::global();
      namespace N = obs::names;
      return VerifyMetrics{R.counter(N::VerifySpecChecked),
                           R.counter(N::VerifySpecFailed),
                           R.counter(N::VerifyIrChecked),
                           R.counter(N::VerifyIrFailed),
                           R.counter(N::VerifyAllocChecked),
                           R.counter(N::VerifyAllocFailed),
                           R.counter(N::VerifyAdmitChecked),
                           R.counter(N::VerifyAdmitFailed),
                           R.counter(N::VerifyAdmitCycles),
                           R.counter(N::VerifyAdmitBlocks),
                           R.counter(N::VerifyAdmitCalls),
                           R.counter(N::VerifyCycles)};
    }();
    return M;
  }
};

} // namespace

void recordOutcome(Layer L, bool Failed, std::uint64_t Cycles) {
  VerifyMetrics &M = VerifyMetrics::get();
  switch (L) {
  case Layer::Spec:
    M.SpecChecked.inc();
    if (Failed)
      M.SpecFailed.inc();
    break;
  case Layer::IR:
    M.IrChecked.inc();
    if (Failed)
      M.IrFailed.inc();
    break;
  case Layer::RegAlloc:
    M.AllocChecked.inc();
    if (Failed)
      M.AllocFailed.inc();
    break;
  case Layer::Admit:
    M.AdmitChecked.inc();
    if (Failed)
      M.AdmitFailed.inc();
    M.AdmitCycles.inc(Cycles);
    break;
  }
  M.Cycles.inc(Cycles);
}

void detail::recordAdmitShape(std::uint64_t Blocks, std::uint64_t Calls) {
  VerifyMetrics &M = VerifyMetrics::get();
  M.AdmitBlocks.inc(Blocks);
  M.AdmitCalls.inc(Calls);
}

void failCompile(const Result &R) {
  std::string Report = R.render();
  obs::recordEvent(obs::EventKind::VerifyFail, 0, 0,
                   R.diags().empty() ? "verify"
                                     : R.diags().front().Category.c_str());
  std::fwrite(Report.data(), 1, Report.size(), stderr);
  reportFatalError("verification failed: the compile pipeline produced "
                   "output that violates its own invariants (see report "
                   "above)");
}

//===----------------------------------------------------------------------===//
// Shared checker machinery (VerifyInternal.h)
//===----------------------------------------------------------------------===//

namespace detail {

namespace {

/// The verifier's own model of every opcode, written against the builder
/// methods in ICode.h rather than derived from any compile-path table.
struct SigTable {
  OpSig S[icode::NumOpcodes] = {};

  void set(Op O, FK A, FK B = FK::None, FK C = FK::None, bool Cmp = false) {
    S[static_cast<unsigned>(O)] = OpSig{A, B, C, Cmp};
  }

  SigTable() {
    set(Op::SetI, FK::IntDef, FK::Imm);
    set(Op::SetL, FK::IntDef, FK::Pool);
    set(Op::SetP, FK::IntDef, FK::Pool);
    set(Op::SetD, FK::FloatDef, FK::Pool);
    set(Op::MovI, FK::IntDef, FK::IntUse);
    set(Op::MovD, FK::FloatDef, FK::FloatUse);
    for (Op O : {Op::AddI, Op::SubI, Op::MulI, Op::DivI, Op::ModI, Op::DivUI,
                 Op::ModUI, Op::AndI, Op::OrI, Op::XorI, Op::ShlI, Op::ShrI,
                 Op::UShrI, Op::AddL, Op::SubL, Op::MulL})
      set(O, FK::IntDef, FK::IntUse, FK::IntUse);
    for (Op O : {Op::AddII, Op::SubII, Op::MulII, Op::DivII, Op::ModII,
                 Op::AndII, Op::OrII, Op::XorII, Op::AddLI, Op::MulLI})
      set(O, FK::IntDef, FK::IntUse, FK::Imm);
    for (Op O : {Op::ShlII, Op::ShrII, Op::UShrII, Op::ShlLI})
      set(O, FK::IntDef, FK::IntUse, FK::ShiftImm);
    set(Op::NegI, FK::IntDef, FK::IntUse);
    set(Op::NotI, FK::IntDef, FK::IntUse);
    set(Op::SextIToL, FK::IntDef, FK::IntUse);
    for (Op O : {Op::AddD, Op::SubD, Op::MulD, Op::DivD})
      set(O, FK::FloatDef, FK::FloatUse, FK::FloatUse);
    set(Op::NegD, FK::FloatDef, FK::FloatUse);
    set(Op::CvtIToD, FK::FloatDef, FK::IntUse);
    set(Op::CvtLToD, FK::FloatDef, FK::IntUse);
    set(Op::CvtDToI, FK::IntDef, FK::FloatUse);
    set(Op::CmpSetI, FK::IntDef, FK::IntUse, FK::IntUse, true);
    set(Op::CmpSetII, FK::IntDef, FK::IntUse, FK::Imm, true);
    set(Op::CmpSetL, FK::IntDef, FK::IntUse, FK::IntUse, true);
    set(Op::CmpSetD, FK::IntDef, FK::FloatUse, FK::FloatUse, true);
    for (Op O : {Op::LdI, Op::LdL, Op::LdI8s, Op::LdI8u, Op::LdI16s,
                 Op::LdI16u})
      set(O, FK::IntDef, FK::IntUse, FK::Imm);
    set(Op::LdD, FK::FloatDef, FK::IntUse, FK::Imm);
    for (Op O : {Op::StI, Op::StL, Op::StI8, Op::StI16})
      set(O, FK::IntUse, FK::IntUse, FK::Imm);
    set(Op::StD, FK::IntUse, FK::FloatUse, FK::Imm);
    set(Op::Label, FK::LabelId);
    set(Op::Jump, FK::LabelId);
    set(Op::BrCmpI, FK::IntUse, FK::IntUse, FK::LabelId, true);
    set(Op::BrCmpII, FK::IntUse, FK::Imm, FK::LabelId, true);
    set(Op::BrCmpL, FK::IntUse, FK::IntUse, FK::LabelId, true);
    set(Op::BrCmpD, FK::FloatUse, FK::FloatUse, FK::LabelId, true);
    set(Op::BrTrue, FK::IntUse, FK::LabelId);
    set(Op::BrFalse, FK::IntUse, FK::LabelId);
    set(Op::BindArgI, FK::IntDef, FK::ArgIdx);
    set(Op::BindArgD, FK::FloatDef, FK::FpArgIdx);
    set(Op::RetI, FK::IntUse);
    set(Op::RetL, FK::IntUse);
    set(Op::RetD, FK::FloatUse);
    set(Op::RetVoid, FK::None);
    set(Op::CallArgI, FK::Slot, FK::IntUse);
    set(Op::CallArgP, FK::Slot, FK::Pool);
    set(Op::CallArgII, FK::Slot, FK::Pool);
    set(Op::CallArgD, FK::FpSlot, FK::FloatUse);
    set(Op::Call, FK::Pool, FK::NumFp);
    set(Op::CallIndirect, FK::IntUse, FK::NumFp);
    set(Op::ResultI, FK::IntDef);
    set(Op::ResultL, FK::IntDef);
    set(Op::ResultD, FK::FloatDef);
    set(Op::Hint, FK::Hint);
    set(Op::ProfileInc, FK::Pool);
    set(Op::Nop, FK::None);
  }
};

const SigTable &sigTable() {
  static const SigTable T;
  return T;
}

bool isDef(FK K) { return K == FK::IntDef || K == FK::FloatDef; }
bool isUse(FK K) { return K == FK::IntUse || K == FK::FloatUse; }

} // namespace

const OpSig &sigFor(Op O) { return sigTable().S[static_cast<unsigned>(O)]; }

bool isTerminator(Op O) {
  switch (O) {
  case Op::Jump:
  case Op::BrCmpI:
  case Op::BrCmpII:
  case Op::BrCmpL:
  case Op::BrCmpD:
  case Op::BrTrue:
  case Op::BrFalse:
  case Op::RetI:
  case Op::RetL:
  case Op::RetD:
  case Op::RetVoid:
    return true;
  default:
    return false;
  }
}

std::int32_t branchLabel(const Instr &I) {
  switch (I.Opcode) {
  case Op::Jump:
    return I.A;
  case Op::BrCmpI:
  case Op::BrCmpII:
  case Op::BrCmpL:
  case Op::BrCmpD:
    return I.C;
  case Op::BrTrue:
  case Op::BrFalse:
    return I.B;
  default:
    return -1;
  }
}

unsigned sigDefs(const Instr &I, VReg *Defs) {
  const OpSig &S = sigFor(I.Opcode);
  unsigned N = 0;
  if (isDef(S.A))
    Defs[N++] = I.A;
  // No opcode defines through B or C; keep the scan for robustness.
  if (isDef(S.B))
    Defs[N++] = I.B;
  if (isDef(S.C))
    Defs[N++] = I.C;
  return N;
}

unsigned sigUses(const Instr &I, VReg *Uses) {
  const OpSig &S = sigFor(I.Opcode);
  unsigned N = 0;
  if (isUse(S.A))
    Uses[N++] = I.A;
  if (isUse(S.B))
    Uses[N++] = I.B;
  if (isUse(S.C))
    Uses[N++] = I.C;
  return N;
}

void Cfg::build(const Instr *Instrs, std::size_t N, const icode::ICode &IC) {
  Blocks.clear();
  BlockOf.assign(N, -1);

  // Pass 1: leaders.
  std::vector<std::uint8_t> Leader(N + 1, 0);
  if (N)
    Leader[0] = 1;
  for (std::size_t I = 0; I < N; ++I) {
    if (Instrs[I].Opcode == Op::Label)
      Leader[I] = 1;
    if (isTerminator(Instrs[I].Opcode) && I + 1 < N)
      Leader[I + 1] = 1;
  }

  // Pass 2: block spans.
  for (std::size_t I = 0; I < N;) {
    std::size_t J = I + 1;
    while (J < N && !Leader[J])
      ++J;
    Block B;
    B.Begin = static_cast<std::int32_t>(I);
    B.End = static_cast<std::int32_t>(J);
    for (std::size_t K = I; K < J; ++K)
      BlockOf[K] = static_cast<std::int32_t>(Blocks.size());
    Blocks.push_back(B);
    I = J;
  }

  // Pass 3: edges.
  for (std::size_t BI = 0; BI < Blocks.size(); ++BI) {
    Block &B = Blocks[BI];
    const Instr &Last = Instrs[B.End - 1];
    std::int32_t L = branchLabel(Last);
    bool Fall = true;
    if (Last.Opcode == Op::Jump || Last.Opcode == Op::RetI ||
        Last.Opcode == Op::RetL || Last.Opcode == Op::RetD ||
        Last.Opcode == Op::RetVoid)
      Fall = false;
    if (Fall && B.End < static_cast<std::int32_t>(N))
      B.Succ[B.NumSucc++] = BlockOf[static_cast<std::size_t>(B.End)];
    if (L >= 0) {
      std::int32_t T = IC.labelTarget(L);
      std::int32_t TB = BlockOf[static_cast<std::size_t>(T)];
      if (B.NumSucc == 0 || B.Succ[0] != TB)
        B.Succ[B.NumSucc++] = TB;
    }
  }
}

void LiveSets::solve(const Instr *Instrs, std::size_t N, unsigned NumRegs,
                     const Cfg &G) {
  (void)N;
  Words = (NumRegs + 63) / 64;
  std::size_t NB = G.Blocks.size();
  In.assign(NB * Words, 0);
  Out.assign(NB * Words, 0);

  // Per-block def (any def) and upward-exposed use sets.
  std::vector<std::uint64_t> Def(NB * Words, 0), Use(NB * Words, 0);
  for (std::size_t BI = 0; BI < NB; ++BI) {
    std::uint64_t *D = Def.data() + BI * Words;
    std::uint64_t *U = Use.data() + BI * Words;
    const Cfg::Block &B = G.Blocks[BI];
    for (std::int32_t I = B.Begin; I < B.End; ++I) {
      VReg Rs[2];
      unsigned NU = sigUses(Instrs[I], Rs);
      for (unsigned K = 0; K < NU; ++K)
        if (!bitTest(D, static_cast<std::uint32_t>(Rs[K])))
          bitSet(U, static_cast<std::uint32_t>(Rs[K]));
      VReg Ds[1 + 2];
      unsigned ND = sigDefs(Instrs[I], Ds);
      for (unsigned K = 0; K < ND; ++K)
        bitSet(D, static_cast<std::uint32_t>(Ds[K]));
    }
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t BI = NB; BI-- > 0;) {
      const Cfg::Block &B = G.Blocks[BI];
      std::uint64_t *O = out(BI);
      for (unsigned S = 0; S < B.NumSucc; ++S) {
        const std::uint64_t *SI = in(static_cast<std::size_t>(B.Succ[S]));
        for (unsigned W = 0; W < Words; ++W)
          O[W] |= SI[W];
      }
      std::uint64_t *I2 = in(BI);
      const std::uint64_t *D = Def.data() + BI * Words;
      const std::uint64_t *U = Use.data() + BI * Words;
      for (unsigned W = 0; W < Words; ++W) {
        std::uint64_t NewIn = U[W] | (O[W] & ~D[W]);
        if (NewIn != I2[W]) {
          I2[W] = NewIn;
          Changed = true;
        }
      }
    }
  }
}

std::string dumpWindow(const Instr *Instrs, std::size_t N,
                       std::size_t Center) {
  std::string S;
  char Buf[160];
  std::size_t Lo = Center >= 6 ? Center - 6 : 0;
  std::size_t Hi = std::min(N, Center + 7);
  for (std::size_t I = Lo; I < Hi; ++I) {
    const Instr &In = Instrs[I];
    unsigned OpIdx = static_cast<unsigned>(In.Opcode);
    const char *Name =
        OpIdx < icode::NumOpcodes ? icode::opName(In.Opcode) : "<invalid>";
    std::snprintf(Buf, sizeof(Buf), "  %c%4zu: %-10s sub=%u A=%d B=%d C=%d\n",
                  I == Center ? '*' : ' ', I, Name, In.Sub, In.A, In.B, In.C);
    S += Buf;
  }
  return S;
}

std::string hexWindow(const std::uint8_t *Code, std::size_t Size,
                      std::size_t Off) {
  std::string S;
  char Buf[32];
  std::size_t Lo = Off >= 24 ? Off - 24 : 0;
  std::size_t Hi = std::min(Size, Off + 24);
  for (std::size_t Row = Lo; Row < Hi; Row += 8) {
    std::snprintf(Buf, sizeof(Buf), "  +%04zx:", Row);
    S += Buf;
    for (std::size_t I = Row; I < std::min(Row + 8, Hi); ++I) {
      std::snprintf(Buf, sizeof(Buf), I == Off ? " [%02x]" : " %02x", Code[I]);
      S += Buf;
    }
    S += '\n';
  }
  return S;
}

} // namespace detail
} // namespace verify
} // namespace tcc
