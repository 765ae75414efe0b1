//===- vcode/VCode.cpp ----------------------------------------------------==//
//
// Out-of-line pieces of the VCODE machine: the comparison-kind algebra and
// the division magic-number search.
//
//===----------------------------------------------------------------------===//

#include "vcode/VCode.h"

#include "support/Error.h"

using namespace tcc;
using namespace tcc::vcode;

CmpKind tcc::vcode::swapOperands(CmpKind K) {
  switch (K) {
  case CmpKind::Eq:
  case CmpKind::Ne:
    return K;
  case CmpKind::LtS:
    return CmpKind::GtS;
  case CmpKind::LeS:
    return CmpKind::GeS;
  case CmpKind::GtS:
    return CmpKind::LtS;
  case CmpKind::GeS:
    return CmpKind::LeS;
  case CmpKind::LtU:
    return CmpKind::GtU;
  case CmpKind::LeU:
    return CmpKind::GeU;
  case CmpKind::GtU:
    return CmpKind::LtU;
  case CmpKind::GeU:
    return CmpKind::LeU;
  }
  tcc_unreachable("bad CmpKind");
}

CmpKind tcc::vcode::negate(CmpKind K) {
  switch (K) {
  case CmpKind::Eq:
    return CmpKind::Ne;
  case CmpKind::Ne:
    return CmpKind::Eq;
  case CmpKind::LtS:
    return CmpKind::GeS;
  case CmpKind::LeS:
    return CmpKind::GtS;
  case CmpKind::GtS:
    return CmpKind::LeS;
  case CmpKind::GeS:
    return CmpKind::LtS;
  case CmpKind::LtU:
    return CmpKind::GeU;
  case CmpKind::LeU:
    return CmpKind::GtU;
  case CmpKind::GtU:
    return CmpKind::LeU;
  case CmpKind::GeU:
    return CmpKind::LtU;
  }
  tcc_unreachable("bad CmpKind");
}

std::pair<std::int32_t, int>
tcc::vcode::signedDivisionMagicImpl(std::int32_t Divisor) {
  // Hacker's Delight, figure 10-1 (Granlund & Montgomery). Returns the
  // magic multiplier M and post-shift s such that for all 32-bit a,
  //   a / Divisor == high32(M * a) [+/- a] >> s, plus a sign-bit fixup.
  const std::uint32_t Two31 = 0x80000000u;
  std::uint32_t Ad = Divisor < 0 ? -static_cast<std::uint32_t>(Divisor)
                                 : static_cast<std::uint32_t>(Divisor);
  std::uint32_t T = Two31 + (static_cast<std::uint32_t>(Divisor) >> 31);
  std::uint32_t Anc = T - 1 - T % Ad;
  int P = 31;
  std::uint32_t Q1 = Two31 / Anc, R1 = Two31 - Q1 * Anc;
  std::uint32_t Q2 = Two31 / Ad, R2 = Two31 - Q2 * Ad;
  std::uint32_t Delta;
  do {
    ++P;
    Q1 *= 2;
    R1 *= 2;
    if (R1 >= Anc) {
      ++Q1;
      R1 -= Anc;
    }
    Q2 *= 2;
    R2 *= 2;
    if (R2 >= Ad) {
      ++Q2;
      R2 -= Ad;
    }
    Delta = Ad - R2;
  } while (Q1 < Delta || (Q1 == Delta && R1 == 0));
  auto Magic = static_cast<std::int32_t>(Q2 + 1);
  if (Divisor < 0)
    Magic = -Magic;
  return {Magic, P - 32};
}
