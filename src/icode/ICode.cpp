//===- icode/ICode.cpp - ICODE buffer, def/use model, labels --------------==//

#include "icode/ICode.h"

#include "support/Error.h"

#include <cassert>
#include <cstring>

using namespace tcc;
using namespace tcc::icode;

ICode::ICode() : Owned(new Arena()), A(Owned.get()), Instrs(*A), Pool(*A),
                 RegIsFloat(*A), LabelTargets(*A), Guards(*A) {
  Instrs.reserve(64);
  Pool.reserve(8);
}

ICode::ICode(Arena &BackingArena)
    : A(&BackingArena), Instrs(*A), Pool(*A), RegIsFloat(*A),
      LabelTargets(*A), Guards(*A) {
  Instrs.reserve(64);
  Pool.reserve(8);
}

VReg ICode::newIntReg() {
  RegIsFloat.push_back(0);
  return static_cast<VReg>(RegIsFloat.size() - 1);
}

VReg ICode::newFloatReg() {
  RegIsFloat.push_back(1);
  return static_cast<VReg>(RegIsFloat.size() - 1);
}

void ICode::setD(VReg D, double Imm) {
  std::uint64_t Bits;
  std::memcpy(&Bits, &Imm, 8);
  append(Op::SetD, 0, D, addPool(Bits), 0);
}

ILabel ICode::newLabel() {
  LabelTargets.push_back(-1);
  return ILabel{static_cast<std::int32_t>(NumLabels++)};
}

void ICode::bindLabel(ILabel L) {
  assert(L.valid() && static_cast<unsigned>(L.Id) < NumLabels && "bad label");
  assert(LabelTargets[L.Id] == -1 && "label bound twice");
  LabelTargets[L.Id] = static_cast<std::int32_t>(Instrs.size());
  append(Op::Label, 0, L.Id, 0, 0);
}

ICode ICode::clone() const {
  ICode C;
  auto CopyInto = [](auto &Dst, const auto &Src) {
    Dst.reserve(Src.size());
    for (std::size_t I = 0, E = Src.size(); I != E; ++I)
      Dst.push_back(Src[I]);
  };
  CopyInto(C.Instrs, Instrs);
  CopyInto(C.Pool, Pool);
  CopyInto(C.RegIsFloat, RegIsFloat);
  CopyInto(C.LabelTargets, LabelTargets);
  CopyInto(C.Guards, Guards);
  C.NumLabels = NumLabels;
  return C;
}

EmitterUsage &ICode::emitterUsage() {
  static EmitterUsage Usage;
  return Usage;
}

unsigned EmitterUsage::usedOpcodes() const {
  unsigned N = 0;
  for (bool B : Used)
    N += B;
  return N;
}

const char *tcc::icode::opName(Op O) {
  switch (O) {
#define CASE(X)                                                                \
  case Op::X:                                                                  \
    return #X
    CASE(SetI);
    CASE(SetL);
    CASE(SetD);
    CASE(MovI);
    CASE(MovD);
    CASE(AddI);
    CASE(SubI);
    CASE(MulI);
    CASE(DivI);
    CASE(ModI);
    CASE(DivUI);
    CASE(ModUI);
    CASE(AndI);
    CASE(OrI);
    CASE(XorI);
    CASE(ShlI);
    CASE(ShrI);
    CASE(UShrI);
    CASE(AddII);
    CASE(SubII);
    CASE(MulII);
    CASE(DivII);
    CASE(ModII);
    CASE(AndII);
    CASE(OrII);
    CASE(XorII);
    CASE(ShlII);
    CASE(ShrII);
    CASE(UShrII);
    CASE(NegI);
    CASE(NotI);
    CASE(AddL);
    CASE(SubL);
    CASE(MulL);
    CASE(AddLI);
    CASE(MulLI);
    CASE(ShlLI);
    CASE(SextIToL);
    CASE(AddD);
    CASE(SubD);
    CASE(MulD);
    CASE(DivD);
    CASE(NegD);
    CASE(CvtIToD);
    CASE(CvtLToD);
    CASE(CvtDToI);
    CASE(CmpSetI);
    CASE(CmpSetII);
    CASE(CmpSetL);
    CASE(CmpSetD);
    CASE(LdI);
    CASE(LdL);
    CASE(LdI8s);
    CASE(LdI8u);
    CASE(LdI16s);
    CASE(LdI16u);
    CASE(LdD);
    CASE(StI);
    CASE(StL);
    CASE(StI8);
    CASE(StI16);
    CASE(StD);
    CASE(Label);
    CASE(Jump);
    CASE(BrCmpI);
    CASE(BrCmpII);
    CASE(BrCmpL);
    CASE(BrCmpD);
    CASE(BrTrue);
    CASE(BrFalse);
    CASE(BindArgI);
    CASE(BindArgD);
    CASE(RetI);
    CASE(RetL);
    CASE(RetD);
    CASE(RetVoid);
    CASE(CallArgI);
    CASE(CallArgP);
    CASE(CallArgII);
    CASE(CallArgD);
    CASE(Call);
    CASE(CallIndirect);
    CASE(ResultI);
    CASE(ResultL);
    CASE(ResultD);
    CASE(Hint);
    CASE(ProfileInc);
    CASE(SetP);
    CASE(Nop);
#undef CASE
  }
  tcc_unreachable("bad opcode");
}

void ICode::defsUses(const Instr &I, VReg *Defs, unsigned &NumDefs, VReg *Uses,
                     unsigned &NumUses) {
  NumDefs = 0;
  NumUses = 0;
  switch (I.Opcode) {
  // def-only
  case Op::SetI:
  case Op::SetL:
  case Op::SetP:
  case Op::SetD:
  case Op::BindArgI:
  case Op::BindArgD:
  case Op::ResultI:
  case Op::ResultL:
  case Op::ResultD:
    Defs[NumDefs++] = I.A;
    break;
  // def A, use B
  case Op::MovI:
  case Op::MovD:
  case Op::NegI:
  case Op::NotI:
  case Op::SextIToL:
  case Op::NegD:
  case Op::CvtIToD:
  case Op::CvtLToD:
  case Op::CvtDToI:
  case Op::AddII:
  case Op::SubII:
  case Op::MulII:
  case Op::DivII:
  case Op::ModII:
  case Op::AndII:
  case Op::OrII:
  case Op::XorII:
  case Op::ShlII:
  case Op::ShrII:
  case Op::UShrII:
  case Op::AddLI:
  case Op::MulLI:
  case Op::ShlLI:
  case Op::CmpSetII:
  case Op::LdI:
  case Op::LdL:
  case Op::LdI8s:
  case Op::LdI8u:
  case Op::LdI16s:
  case Op::LdI16u:
  case Op::LdD:
    Defs[NumDefs++] = I.A;
    Uses[NumUses++] = I.B;
    break;
  // def A, use B and C
  case Op::AddI:
  case Op::SubI:
  case Op::MulI:
  case Op::DivI:
  case Op::ModI:
  case Op::DivUI:
  case Op::ModUI:
  case Op::AndI:
  case Op::OrI:
  case Op::XorI:
  case Op::ShlI:
  case Op::ShrI:
  case Op::UShrI:
  case Op::AddL:
  case Op::SubL:
  case Op::MulL:
  case Op::AddD:
  case Op::SubD:
  case Op::MulD:
  case Op::DivD:
  case Op::CmpSetI:
  case Op::CmpSetL:
  case Op::CmpSetD:
    Defs[NumDefs++] = I.A;
    Uses[NumUses++] = I.B;
    Uses[NumUses++] = I.C;
    break;
  // stores: use A (base) and B (value)
  case Op::StI:
  case Op::StL:
  case Op::StI8:
  case Op::StI16:
  case Op::StD:
    Uses[NumUses++] = I.A;
    Uses[NumUses++] = I.B;
    break;
  // branches
  case Op::BrCmpI:
  case Op::BrCmpL:
  case Op::BrCmpD:
    Uses[NumUses++] = I.A;
    Uses[NumUses++] = I.B;
    break;
  case Op::BrCmpII:
  case Op::BrTrue:
  case Op::BrFalse:
    Uses[NumUses++] = I.A;
    break;
  // returns / call plumbing
  case Op::RetI:
  case Op::RetL:
  case Op::RetD:
    Uses[NumUses++] = I.A;
    break;
  case Op::CallArgI:
  case Op::CallArgD:
    Uses[NumUses++] = I.B;
    break;
  case Op::CallIndirect:
    Uses[NumUses++] = I.A;
    break;
  // no registers
  case Op::Label:
  case Op::Jump:
  case Op::RetVoid:
  case Op::CallArgP:
  case Op::CallArgII:
  case Op::Call:
  case Op::Hint:
  case Op::ProfileInc:
  case Op::Nop:
    break;
  }
}
