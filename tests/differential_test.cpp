//===- tests/differential_test.cpp - Cross-backend differential fuzzing ---===//
//
// Generates random structured programs (locals, arithmetic, nested ifs and
// bounded loops) and checks that every configuration of the system — VCODE,
// ICODE with linear scan, ICODE with graph coloring, and both spill
// heuristics — computes exactly the same result as a host-side reference
// interpreter. This is the strongest whole-pipeline invariant we have: any
// divergence in the encoder, register allocators, spill paths, strength
// reduction, or the CGF walk shows up as a value mismatch.
//
//===----------------------------------------------------------------------===//

#include "cache/CompileService.h"
#include "core/Compile.h"
#include "core/Context.h"
#include "core/Semantics.h"
#include "observability/Metrics.h"
#include "observability/Names.h"
#include "tier/Tier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

using namespace tcc;
using namespace tcc::core;

namespace {

/// A tiny program generator that builds the same computation twice: once
/// as a cspec tree and once as a host-side closure ("the reference").
class ProgramGen {
public:
  ProgramGen(Context &C, std::mt19937 &Rng) : C(C), Rng(Rng) {
    // Two int parameters plus a handful of int locals.
    Params[0] = C.paramInt(0);
    Params[1] = C.paramInt(1);
    for (int I = 0; I < 4; ++I)
      Locals.push_back(C.localInt());
    Ref.assign(Locals.size(), 0);
  }

  /// Builds a random statement sequence; returns the specification and
  /// keeps a parallel reference evaluator.
  Stmt build(unsigned Depth) {
    std::vector<Stmt> Body;
    // Dynamic locals start with garbage (as in C); zero them so the
    // generated program matches the reference's zeroed state.
    for (VSpec L : Locals)
      Body.push_back(C.assign(L, C.intConst(0)));
    unsigned N = 2 + Rng() % 4;
    for (unsigned I = 0; I < N; ++I)
      Body.push_back(genStmt(Depth));
    return C.block(Body);
  }

  /// Runs the reference on concrete arguments; call after build().
  long long runReference(int A0, int A1) {
    Args[0] = A0;
    Args[1] = A1;
    Ref.assign(Locals.size(), 0);
    for (auto &Step : Trace)
      Step();
    long long Acc = 0;
    for (std::size_t I = 0; I < Ref.size(); ++I)
      Acc = wrap(Acc * 31 + Ref[I]);
    return Acc;
  }

  /// Final checksum expression matching runReference's accumulation.
  Expr checksum() {
    Expr Acc = C.intConst(0);
    for (VSpec L : Locals)
      Acc = Acc * C.intConst(31) + Expr(L);
    return Acc;
  }

private:
  static long long wrap(long long V) {
    return static_cast<long long>(static_cast<std::int32_t>(V));
  }

  /// A random int expression over params/locals/constants, with a
  /// host-side evaluator captured into EvalFns.
  struct GenExpr {
    Expr E;
    std::function<long long()> Eval;
  };

  GenExpr genExpr(unsigned Depth) {
    unsigned Sel = Rng() % (Depth == 0 ? 3 : 5);
    switch (Sel) {
    case 0: {
      int V = static_cast<int>(Rng() % 200) - 100;
      return {C.intConst(V), [V] { return static_cast<long long>(V); }};
    }
    case 1: {
      std::size_t P = Rng() % 2;
      return {Expr(Params[P]), [this, P] {
                return static_cast<long long>(Args[P]);
              }};
    }
    case 2: {
      std::size_t L = Rng() % Locals.size();
      return {Expr(Locals[L]), [this, L] {
                return static_cast<long long>(Ref[L]);
              }};
    }
    default: {
      GenExpr A = genExpr(Depth - 1);
      GenExpr B = genExpr(Depth - 1);
      switch (Rng() % 4) {
      case 0:
        return {A.E + B.E,
                [A, B] { return wrap(A.Eval() + B.Eval()); }};
      case 1:
        return {A.E - B.E,
                [A, B] { return wrap(A.Eval() - B.Eval()); }};
      case 2:
        return {A.E * B.E, [A, B] {
                  return wrap(static_cast<long long>(A.Eval()) * B.Eval());
                }};
      default:
        return {A.E ^ B.E,
                [A, B] { return wrap(A.Eval() ^ B.Eval()); }};
      }
    }
    }
  }

  Stmt genStmt(unsigned Depth) {
    unsigned Sel = Rng() % (Depth == 0 ? 1 : 3);
    if (Sel == 0) {
      // local = expr
      std::size_t L = Rng() % Locals.size();
      GenExpr E = genExpr(2);
      Trace.push_back([this, L, E] {
        Ref[L] = static_cast<std::int32_t>(E.Eval());
      });
      return C.assign(Locals[L], E.E);
    }
    if (Sel == 1) {
      // if (a < b) S1 else S2 — the reference replays the same comparison.
      GenExpr A = genExpr(1), B = genExpr(1);
      // Mark a branch point: children record into branch-local traces.
      auto ThenStart = beginBranch();
      Stmt S1 = genStmt(Depth - 1);
      auto ThenTrace = endBranch(ThenStart);
      auto ElseStart = beginBranch();
      Stmt S2 = genStmt(Depth - 1);
      auto ElseTrace = endBranch(ElseStart);
      Trace.push_back([this, A, B, ThenTrace, ElseTrace] {
        const auto &Steps = A.Eval() < B.Eval() ? ThenTrace : ElseTrace;
        for (const auto &Step : Steps)
          Step();
      });
      return C.ifStmt(A.E < B.E, S1, S2);
    }
    // Bounded counting loop over a fresh iteration count (0..7) with a
    // body that mutates locals; induction variable is a dedicated local.
    std::size_t L = Rng() % Locals.size();
    GenExpr Delta = genExpr(1);
    int Count = static_cast<int>(Rng() % 8);
    VSpec I = C.localInt();
    Stmt Body = C.assign(Locals[L], Expr(Locals[L]) + Delta.E);
    Trace.push_back([this, L, Delta, Count] {
      for (int K = 0; K < Count; ++K)
        Ref[L] = static_cast<std::int32_t>(wrap(Ref[L] + Delta.Eval()));
    });
    return C.forStmt(I, C.intConst(0), vcode::CmpKind::LtS,
                     C.intConst(Count), C.intConst(1), Body);
  }

  // Branch-local trace capture: statements generated between begin/end are
  // moved into a sub-trace replayed conditionally.
  std::size_t beginBranch() { return Trace.size(); }
  std::vector<std::function<void()>> endBranch(std::size_t Start) {
    std::vector<std::function<void()>> Sub(Trace.begin() + Start,
                                           Trace.end());
    Trace.resize(Start);
    return Sub;
  }

  Context &C;
  std::mt19937 &Rng;
  VSpec Params[2];
  std::vector<VSpec> Locals;

public:
  std::vector<std::int32_t> Ref;
  int Args[2] = {0, 0};
  std::vector<std::function<void()>> Trace;
};

/// Random &&/||/! predicate trees in value context over a record pointer,
/// the shapes ICODE lowers branch-free, plus shapes it must decline (a
/// call, a division, a load off a second base). The host reference
/// evaluates with the short-circuit order over the same bytes, through
/// core/Semantics.h's compare (ucomisd's NaN outcomes included).
class PredicateGen {
public:
  /// Record layout: three ints, two longs, two doubles.
  static constexpr std::size_t RecordBytes = 48;
  static constexpr unsigned IntOff[3] = {0, 4, 8};
  static constexpr unsigned LongOff[2] = {16, 24};
  static constexpr unsigned DblOff[2] = {32, 40};

  struct Env {
    const std::uint8_t *P, *Q;
    int A;
  };
  using Eval = std::function<sem::Value(const Env &)>;

  PredicateGen(Context &C, std::mt19937 &Rng) : C(C), Rng(Rng) {
    P = C.paramPtr(0);
    Q = C.paramPtr(1);
    A = C.paramInt(2);
  }

  /// `return pred`, `x = pred; return 3 * x + a` or `return twice(pred)`.
  Stmt build(Eval &Ref) {
    Eval Pred;
    Expr E = tree(1 + Rng() % 7, Pred);
    switch (Rng() % 3) {
    case 0:
      Ref = Pred;
      return C.ret(E);
    case 1: {
      VSpec X = C.localInt();
      Ref = [Pred](const Env &V) {
        sem::Value R;
        R.I = sem::canon(EvalType::Int, 3 * Pred(V).I + V.A);
        return R;
      };
      return C.block({C.assign(X, E),
                      C.ret(Expr(X) * C.intConst(3) + Expr(A))});
    }
    default:
      Ref = [Pred](const Env &V) {
        sem::Value R;
        R.I = twice(static_cast<int>(Pred(V).I));
        return R;
      };
      return C.ret(C.callC(reinterpret_cast<const void *>(&twice),
                           EvalType::Int, {E}));
    }
  }

  static int twice(int X) { return 2 * X; } // X is 0 or 1.
  static int bump(int X) {
    return static_cast<int>(static_cast<unsigned>(X) + 1u);
  }

private:
  Expr tree(unsigned Leaves, Eval &Out) {
    if (Leaves == 1) {
      Expr E = leaf(Out);
      if (Rng() % 6 == 0) {
        Eval In = Out;
        Out = [In](const Env &V) {
          sem::Value R;
          R.I = In(V).I == 0;
          return R;
        };
        return !E;
      }
      return E;
    }
    unsigned L = 1 + Rng() % (Leaves - 1);
    Eval EA, EB;
    Expr XA = tree(L, EA), XB = tree(Leaves - L, EB);
    bool And = Rng() % 2;
    Out = [EA, EB, And](const Env &V) {
      sem::Value R;
      R.I = And ? (EA(V).I && EB(V).I) : (EA(V).I || EB(V).I);
      return R;
    };
    return And ? (XA && XB) : (XA || XB);
  }

  template <typename T> static T read(const std::uint8_t *B, unsigned Off) {
    T V;
    std::memcpy(&V, B + Off, sizeof(T));
    return V;
  }

  Expr field(VSpec Base, MemType M, unsigned Off) {
    return C.loadMem(M, C.binary(BinOp::Add, Expr(Base), C.longConst(Off)));
  }

  /// One comparison. Mostly loads off P; one leaf in ten is a shape the
  /// recognizer declines.
  Expr leaf(Eval &Out) {
    auto K = static_cast<CmpKind>(Rng() % 6); // Eq..GeS
    unsigned Decline = Rng() % 10;
    unsigned Ty = Rng() % 3;
    Expr L, R;
    Eval EL, ER;
    EvalType T = Ty == 0 ? EvalType::Int
                 : Ty == 1 ? EvalType::Long
                           : EvalType::Double;
    if (T == EvalType::Int) {
      unsigned Off = IntOff[Rng() % 3];
      bool OffQ = Decline == 0;
      L = field(OffQ ? Q : P, MemType::I32, Off);
      EL = [Off, OffQ](const Env &V) {
        sem::Value X;
        X.I = read<std::int32_t>(OffQ ? V.Q : V.P, Off);
        return X;
      };
      if (Decline == 1) {
        L = L / C.intConst(3);
        Eval In = EL;
        EL = [In](const Env &V) {
          sem::Value X;
          X.I = In(V).I / 3;
          return X;
        };
      } else if (Decline == 2) {
        L = C.callC(reinterpret_cast<const void *>(&bump), EvalType::Int,
                    {L});
        Eval In = EL;
        EL = [In](const Env &V) {
          sem::Value X;
          X.I = bump(static_cast<int>(In(V).I));
          return X;
        };
      }
      static constexpr std::int32_t Edge[] = {0, 1, -1, 7, INT32_MIN,
                                              INT32_MAX};
      switch (Rng() % 3) {
      case 0: {
        std::int32_t K2 = Edge[Rng() % 6];
        R = C.intConst(K2);
        ER = [K2](const Env &) {
          sem::Value X;
          X.I = K2;
          return X;
        };
        break;
      }
      case 1:
        R = Expr(A);
        ER = [](const Env &V) {
          sem::Value X;
          X.I = V.A;
          return X;
        };
        break;
      default: {
        unsigned Off2 = IntOff[Rng() % 3];
        R = field(P, MemType::I32, Off2) + Expr(A);
        ER = [Off2](const Env &V) {
          sem::Value X;
          X.I = sem::add(EvalType::Int, read<std::int32_t>(V.P, Off2), V.A);
          return X;
        };
      }
      }
    } else if (T == EvalType::Long) {
      unsigned Off = LongOff[Rng() % 2];
      L = field(P, MemType::I64, Off);
      EL = [Off](const Env &V) {
        sem::Value X;
        X.I = read<std::int64_t>(V.P, Off);
        return X;
      };
      static constexpr std::int64_t Edge[] = {0, -1, 1, INT64_MIN,
                                              std::int64_t(1) << 40};
      if (Rng() % 2) {
        std::int64_t K2 = Edge[Rng() % 5];
        R = C.longConst(K2);
        ER = [K2](const Env &) {
          sem::Value X;
          X.I = K2;
          return X;
        };
      } else {
        R = C.toLong(Expr(A));
        ER = [](const Env &V) {
          sem::Value X;
          X.I = V.A;
          return X;
        };
      }
    } else {
      unsigned Off = DblOff[Rng() % 2];
      L = field(P, MemType::F64, Off);
      EL = [Off](const Env &V) {
        sem::Value X;
        X.D = read<double>(V.P, Off);
        return X;
      };
      static constexpr double Edge[] = {0.0, -1.5, 1e300, NAN};
      if (Rng() % 2) {
        double K2 = Edge[Rng() % 4];
        R = C.doubleConst(K2);
        ER = [K2](const Env &) {
          sem::Value X;
          X.D = K2;
          return X;
        };
      } else {
        R = C.toDouble(Expr(A));
        ER = [](const Env &V) {
          sem::Value X;
          X.D = V.A;
          return X;
        };
      }
    }
    Out = [EL, ER, K, T](const Env &V) {
      sem::Value X;
      X.I = sem::compare(K, T, EL(V), ER(V));
      return X;
    };
    return C.cmp(K, L, R);
  }

  Context &C;
  std::mt19937 &Rng;
  VSpec P, Q, A;
};

/// Fills a record's fields with edge values: INT_MIN, NaN and friends.
void fillRecord(std::uint8_t *B, std::mt19937 &Rng) {
  static constexpr std::int32_t Ints[] = {0, 1, -1, 7, INT32_MIN, INT32_MAX};
  static constexpr std::int64_t Longs[] = {0, -1, 1, INT64_MIN,
                                           std::int64_t(1) << 40};
  static constexpr double Dbls[] = {0.0, -0.0, -1.5, 1e300, NAN};
  for (unsigned Off : PredicateGen::IntOff)
    std::memcpy(B + Off, &Ints[Rng() % 6], 4);
  for (unsigned Off : PredicateGen::LongOff)
    std::memcpy(B + Off, &Longs[Rng() % 5], 8);
  for (unsigned Off : PredicateGen::DblOff)
    std::memcpy(B + Off, &Dbls[Rng() % 5], 8);
}

// Speculated ICODE against VCODE and the host reference, on records
// placed at every offset within 64 bytes of a page boundary: the page
// guard sends the straddling placements to the twin, the others take the
// branch-free body.
TEST(Differential, PredicatesAgreeAcrossBackends) {
  std::mt19937 Rng(20261017);
  const std::size_t Page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void *M = mmap(nullptr, 2 * Page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(M, MAP_FAILED);
  auto *Boundary = static_cast<std::uint8_t *>(M) + Page;
  alignas(8) std::uint8_t Rec[PredicateGen::RecordBytes], QRec[48];
  const int As[] = {0, 7, INT32_MIN};
  struct Config {
    const char *Name;
    BackendKind Backend;
    icode::RegAllocKind Alloc;
  };
  const Config Configs[] = {
      {"vcode", BackendKind::VCode, icode::RegAllocKind::LinearScan},
      {"icode-ls", BackendKind::ICode, icode::RegAllocKind::LinearScan},
      {"icode-gc", BackendKind::ICode, icode::RegAllocKind::GraphColor},
  };
  auto Counter = [](const char *Name) {
    return obs::MetricsRegistry::global().counter(Name).value();
  };
  std::uint64_t FreeBefore = Counter(obs::names::PredicatesBranchFree),
                DeclinedBefore = Counter(obs::names::PredicatesDeclined);
  for (int Trial = 0; Trial < 400; ++Trial) {
    Context C;
    PredicateGen Gen(C, Rng);
    PredicateGen::Eval Ref;
    Stmt Fn = Gen.build(Ref);
    std::vector<CompiledFn> Fns;
    for (const Config &Cfg : Configs) {
      CompileOptions O;
      O.Backend = Cfg.Backend;
      O.RegAlloc = Cfg.Alloc;
      Fns.push_back(compileFn(C, Fn, EvalType::Int, O));
    }
    for (int Fill = 0; Fill < 3; ++Fill) {
      fillRecord(Rec, Rng);
      fillRecord(QRec, Rng);
      for (int Delta = -64; Delta <= 16; ++Delta) {
        std::uint8_t *At = Boundary + Delta;
        std::memcpy(At, Rec, sizeof(Rec));
        for (int A : As) {
          int Want = static_cast<int>(Ref({At, QRec, A}).I);
          for (std::size_t K = 0; K < Fns.size(); ++K)
            EXPECT_EQ((Fns[K].as<int(const void *, const void *, int)>()(
                          At, QRec, A)),
                      Want)
                << "trial " << Trial << " config " << Configs[K].Name
                << " record at page boundary " << Delta << " a " << A;
        }
      }
    }
  }
  munmap(M, 2 * Page);
  // Both outcomes of the recognizer were exercised (two ICODE configs per
  // trial).
  std::uint64_t Free = Counter(obs::names::PredicatesBranchFree) - FreeBefore,
                Declined =
                    Counter(obs::names::PredicatesDeclined) - DeclinedBefore;
  std::printf("[ predicates: %llu branch-free, %llu declined ]\n",
              static_cast<unsigned long long>(Free),
              static_cast<unsigned long long>(Declined));
  EXPECT_GT(Free, 100u);
  EXPECT_GT(Declined, 40u);
}

TEST(Differential, AllConfigurationsAgree) {
  std::mt19937 Rng(20260707);
  const std::pair<int, int> Inputs[] = {
      {0, 0}, {1, -1}, {17, 5}, {-100, 99}, {12345, -777}};
  for (int Trial = 0; Trial < 60; ++Trial) {
    Context C;
    ProgramGen Gen(C, Rng);
    Stmt Body = Gen.build(3);
    Stmt Fn = C.block({Body, C.ret(Gen.checksum())});

    struct Config {
      const char *Name;
      BackendKind Backend;
      icode::RegAllocKind Alloc;
      icode::SpillHeuristic Spill;
    };
    const Config Configs[] = {
        {"vcode", BackendKind::VCode, icode::RegAllocKind::LinearScan,
         icode::SpillHeuristic::LongestInterval},
        {"icode-ls", BackendKind::ICode, icode::RegAllocKind::LinearScan,
         icode::SpillHeuristic::LongestInterval},
        {"icode-ls-weighted", BackendKind::ICode,
         icode::RegAllocKind::LinearScan, icode::SpillHeuristic::LowestWeight},
        {"icode-gc", BackendKind::ICode, icode::RegAllocKind::GraphColor,
         icode::SpillHeuristic::LongestInterval},
    };
    for (const Config &Cfg : Configs) {
      CompileOptions O;
      O.Backend = Cfg.Backend;
      O.RegAlloc = Cfg.Alloc;
      O.Spill = Cfg.Spill;
      CompiledFn F = compileFn(C, Fn, EvalType::Int, O);
      auto *P = F.as<int(int, int)>();
      for (auto [A0, A1] : Inputs) {
        long long Want = Gen.runReference(A0, A1);
        EXPECT_EQ(P(A0, A1), static_cast<int>(Want))
            << "trial " << Trial << " config " << Cfg.Name << " args ("
            << A0 << ", " << A1 << ")";
      }
    }
  }
}

// The tiered configuration: the same random programs dispatched through a
// TieredFn slot with a promotion mid-stream. The slot is born on its
// profiled VCODE baseline, which answers until
// the ICODE promotion lands. The reference must agree on both tiers and
// across the swap — any divergence between the tiers of one spec, or any
// tearing during the swap, shows up as a value mismatch.
TEST(Differential, TieredPromotionAgreesMidStream) {
  std::mt19937 Rng(20260806);
  const std::pair<int, int> Inputs[] = {
      {0, 0}, {1, -1}, {17, 5}, {-100, 99}, {12345, -777}};

  // Service outlives the manager, which outlives every slot handle.
  cache::CompileService Service;
  tier::TierConfig TC;
  TC.Workers = 2;
  TC.PromoteThreshold = 4; // Promote a few calls into each trial's stream.
  tier::TierManager TM(TC);

  for (int Trial = 0; Trial < 25; ++Trial) {
    // Snapshot the generator state: the promotion worker replays the exact
    // same program into a fresh Context from this copy.
    const std::mt19937 RngAtTrial = Rng;
    Context C;
    ProgramGen Gen(C, Rng);
    Stmt Body = Gen.build(3);
    Stmt Fn = C.block({Body, C.ret(Gen.checksum())});
    (void)Body;
    (void)Fn; // Reference only; the slot rebuilds from the snapshot.

    tier::TieredFnHandle TF = Service.getOrCompileTiered(
        [RngAtTrial](Context &C2) {
          std::mt19937 R = RngAtTrial;
          ProgramGen G(C2, R);
          Stmt B = G.build(3);
          return C2.block({B, C2.ret(G.checksum())});
        },
        EvalType::Int, CompileOptions(), &TM);
    ASSERT_TRUE(TF);

    // Baseline tier, then keep calling across the threshold and the swap.
    for (unsigned Round = 0; Round < 6; ++Round) {
      for (auto [A0, A1] : Inputs) {
        long long Want = Gen.runReference(A0, A1);
        EXPECT_EQ((TF->call<int(int, int)>(A0, A1)), static_cast<int>(Want))
            << "trial " << Trial << " round " << Round << " args (" << A0
            << ", " << A1 << ")";
      }
    }
    // Land the promotion inside the trial, then re-verify on the ICODE
    // tier explicitly.
    ASSERT_TRUE(TF->waitPromoted()) << "trial " << Trial;
    for (auto [A0, A1] : Inputs) {
      long long Want = Gen.runReference(A0, A1);
      EXPECT_EQ((TF->call<int(int, int)>(A0, A1)), static_cast<int>(Want))
          << "trial " << Trial << " post-promotion args (" << A0 << ", "
          << A1 << ")";
    }
  }
}

// Promotion under load: many threads hammer a freshly created slot from its
// birth on the baseline through the ICODE promotion, while the answers are
// checked on every call. Run under TSan in CI.
TEST(Differential, TieredPromotionUnderLoad) {
  std::mt19937 Rng(20260807);
  const std::pair<int, int> Inputs[] = {
      {0, 0}, {1, -1}, {17, 5}, {-100, 99}, {12345, -777}};

  cache::CompileService Service;
  tier::TierConfig TC;
  TC.Workers = 2;
  TC.PromoteThreshold = 64;
  tier::TierManager TM(TC);

  for (int Trial = 0; Trial < 6; ++Trial) {
    const std::mt19937 RngAtTrial = Rng;
    Context C;
    ProgramGen Gen(C, Rng);
    Stmt Body = Gen.build(3);
    Stmt Fn = C.block({Body, C.ret(Gen.checksum())});
    (void)Body;
    (void)Fn; // Reference only; the slot rebuilds from the snapshot.

    // Precompute the expected values: runReference mutates shared state,
    // so it cannot be called from the racing threads.
    int Want[std::size(Inputs)];
    for (std::size_t I = 0; I < std::size(Inputs); ++I)
      Want[I] = static_cast<int>(
          Gen.runReference(Inputs[I].first, Inputs[I].second));

    tier::TieredFnHandle TF = Service.getOrCompileTiered(
        [RngAtTrial](Context &C2) {
          std::mt19937 R = RngAtTrial;
          ProgramGen G(C2, R);
          Stmt B = G.build(3);
          return C2.block({B, C2.ret(G.checksum())});
        },
        EvalType::Int, CompileOptions(), &TM);
    ASSERT_TRUE(TF);

    constexpr unsigned NumThreads = 8;
    std::atomic<unsigned> Failures{0};
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T) {
      Threads.emplace_back([&] {
        for (unsigned Sweep = 0; Sweep < 300 && !Stop.load(); ++Sweep)
          for (std::size_t I = 0; I < std::size(Inputs); ++I)
            if (TF->call<int(int, int)>(Inputs[I].first, Inputs[I].second) !=
                Want[I])
              Failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
    bool Promoted = TF->waitPromoted();
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
    EXPECT_TRUE(Promoted) << "trial " << Trial;
    EXPECT_EQ(Failures.load(), 0u) << "trial " << Trial;
    // The swap landed; the slot ends on the optimized tier and the answers
    // never wavered along the way.
    for (std::size_t I = 0; I < std::size(Inputs); ++I)
      EXPECT_EQ(
          (TF->call<int(int, int)>(Inputs[I].first, Inputs[I].second)),
          Want[I])
          << "trial " << Trial << " post-promotion input " << I;
  }
}

} // namespace
