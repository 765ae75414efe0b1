//===- apps/Query.cpp ------------------------------------------------------==//

#include "apps/Query.h"

#include "apps/StaticOpt.h"

#include <random>

using namespace tcc;
using namespace tcc::apps;
using namespace tcc::core;

// The interpreter: the paper's "pair of switch statements" — one over the
// node kind / operator, one over the field selector.
#define TICKC_QUERY_INTERP_BODY                                                \
  {                                                                            \
    switch (Q->Kind) {                                                         \
    case QueryNode::And:                                                       \
      return SELF(Q->L, R) && SELF(Q->R, R);                                   \
    case QueryNode::Or:                                                        \
      return SELF(Q->L, R) || SELF(Q->R, R);                                   \
    case QueryNode::CmpField: {                                                \
      std::int32_t F = 0;                                                      \
      switch (Q->Field) {                                                      \
      case QueryNode::FAge:                                                    \
        F = R->Age;                                                            \
        break;                                                                 \
      case QueryNode::FIncome:                                                 \
        F = R->Income;                                                         \
        break;                                                                 \
      case QueryNode::FChildren:                                               \
        F = R->Children;                                                       \
        break;                                                                 \
      case QueryNode::FEducation:                                              \
        F = R->Education;                                                      \
        break;                                                                 \
      case QueryNode::FStatus:                                                 \
        F = R->Status;                                                         \
        break;                                                                 \
      }                                                                        \
      switch (Q->Op) {                                                         \
      case QueryNode::Eq:                                                      \
        return F == Q->Value;                                                  \
      case QueryNode::Ne:                                                      \
        return F != Q->Value;                                                  \
      case QueryNode::Lt:                                                      \
        return F < Q->Value;                                                   \
      case QueryNode::Le:                                                      \
        return F <= Q->Value;                                                  \
      case QueryNode::Gt:                                                      \
        return F > Q->Value;                                                   \
      case QueryNode::Ge:                                                      \
        return F >= Q->Value;                                                  \
      }                                                                        \
      return 0;                                                                \
    }                                                                          \
    }                                                                          \
    return 0;                                                                  \
  }

#define SELF interpO0
TICKC_STATIC_O0 static int interpO0(const QueryNode *Q, const Record *R)
    TICKC_QUERY_INTERP_BODY
#undef SELF

// servebench divides each request's latency by a scan through interpO2, so
// the reference's speed must not move with the size of unrelated code the
// linker places before it. Moved from 32 to 0 bytes into a 64-byte line and
// nothing else changed, it read 8% higher on restart's latency_p50_x and
// 15% on churn's and restart's latency_p99_x (six alternated 10 s pairs on
// a shared 4-vCPU x86-64 VM). The 64-byte alignment and 32 bytes of entry
// padding pin it 32 bytes into a line, where it sat before the pin, so
// ratios measured on either side of the pin compare; the functions after it
// in this file keep their offsets from it.
#define SELF interpO2
TICKC_STATIC_O2 __attribute__((aligned(64), patchable_function_entry(32, 32)))
static int interpO2(const QueryNode *Q, const Record *R)
    TICKC_QUERY_INTERP_BODY
#undef SELF

QueryApp::QueryApp(unsigned NumRecords, unsigned Seed) : Db(NumRecords) {
  std::mt19937 Rng(Seed);
  for (Record &R : Db) {
    R.Age = 18 + static_cast<int>(Rng() % 60);
    R.Income = static_cast<int>(Rng() % 120000);
    R.Children = static_cast<int>(Rng() % 5);
    R.Education = 8 + static_cast<int>(Rng() % 12);
    R.Status = static_cast<int>(Rng() % 4);
  }
  // (age > 40 && income < 50000) || (children == 2 && education > 12)
  //                              || status == 3     — five comparisons.
  Q[0] = {QueryNode::Or, QueryNode::FAge, QueryNode::Eq, 0, &Q[1], &Q[2]};
  Q[1] = {QueryNode::Or, QueryNode::FAge, QueryNode::Eq, 0, &Q[3], &Q[4]};
  Q[2] = {QueryNode::CmpField, QueryNode::FStatus, QueryNode::Eq, 3, nullptr,
          nullptr};
  Q[3] = {QueryNode::And, QueryNode::FAge, QueryNode::Eq, 0, &Q[5], &Q[6]};
  Q[4] = {QueryNode::And, QueryNode::FAge, QueryNode::Eq, 0, &Q[7], &Q[8]};
  Q[5] = {QueryNode::CmpField, QueryNode::FAge, QueryNode::Gt, 40, nullptr,
          nullptr};
  Q[6] = {QueryNode::CmpField, QueryNode::FIncome, QueryNode::Lt, 50000,
          nullptr, nullptr};
  Q[7] = {QueryNode::CmpField, QueryNode::FChildren, QueryNode::Eq, 2,
          nullptr, nullptr};
  Q[8] = {QueryNode::CmpField, QueryNode::FEducation, QueryNode::Gt, 12,
          nullptr, nullptr};
}

int QueryApp::countStaticO0(const QueryNode *Query) const {
  int N = 0;
  for (const Record &R : Db)
    N += interpO0(Query, &R);
  return N;
}

int QueryApp::countStaticO2(const QueryNode *Query) const {
  int N = 0;
  for (const Record &R : Db)
    N += interpO2(Query, &R);
  return N;
}

int QueryApp::matchStatic(const QueryNode *Q, const Record *R) {
  return interpO2(Q, R);
}

int QueryApp::countCompiled(int (*Match)(const Record *)) const {
  int N = 0;
  for (const Record &R : Db)
    N += Match(&R);
  return N;
}

namespace {

/// Lowers a query node to a cspec over the record parameter — the dynamic
/// query compiler.
Expr lowerQuery(Context &C, VSpec Rec, const QueryNode *Q) {
  switch (Q->Kind) {
  case QueryNode::And:
    return lowerQuery(C, Rec, Q->L) && lowerQuery(C, Rec, Q->R);
  case QueryNode::Or:
    return lowerQuery(C, Rec, Q->L) || lowerQuery(C, Rec, Q->R);
  case QueryNode::CmpField: {
    unsigned Off = 0;
    switch (Q->Field) {
    case QueryNode::FAge:
      Off = offsetof(Record, Age);
      break;
    case QueryNode::FIncome:
      Off = offsetof(Record, Income);
      break;
    case QueryNode::FChildren:
      Off = offsetof(Record, Children);
      break;
    case QueryNode::FEducation:
      Off = offsetof(Record, Education);
      break;
    case QueryNode::FStatus:
      Off = offsetof(Record, Status);
      break;
    }
    Expr Field = C.loadMem(
        MemType::I32,
        C.binary(BinOp::Add, Expr(Rec), C.longConst(Off)));
    Expr V = C.rcInt(Q->Value);
    switch (Q->Op) {
    case QueryNode::Eq:
      return Field == V;
    case QueryNode::Ne:
      return Field != V;
    case QueryNode::Lt:
      return Field < V;
    case QueryNode::Le:
      return Field <= V;
    case QueryNode::Gt:
      return Field > V;
    case QueryNode::Ge:
      return Field >= V;
    }
    break;
  }
  }
  return C.intConst(0);
}

} // namespace

CompiledFn QueryApp::specialize(const QueryNode *Query,
                                const CompileOptions &Opts) const {
  Context C;
  VSpec Rec = C.paramPtr(0);
  return compileFn(C, C.ret(lowerQuery(C, Rec, Query)), EvalType::Int, Opts);
}

cache::FnHandle QueryApp::specializeCached(const QueryNode *Query,
                                           cache::CompileService &Service,
                                           const CompileOptions &Opts) const {
  Context C;
  VSpec Rec = C.paramPtr(0);
  return Service.getOrCompile(C, C.ret(lowerQuery(C, Rec, Query)),
                              EvalType::Int, Opts);
}

cache::SpecKey QueryApp::cacheKey(const QueryNode *Query,
                                  const CompileOptions &Opts) const {
  Context C;
  VSpec Rec = C.paramPtr(0);
  return cache::buildSpecKey(C, C.ret(lowerQuery(C, Rec, Query)),
                             EvalType::Int, Opts);
}

tier::TieredFnHandle QueryApp::specializeTiered(const QueryNode *Query,
                                                cache::CompileService &Service,
                                                tier::TierManager *Manager,
                                                const CompileOptions &Opts) const {
  return Service.getOrCompileTiered(
      [Query](Context &C) {
        VSpec Rec = C.paramPtr(0);
        return C.ret(lowerQuery(C, Rec, Query));
      },
      EvalType::Int, Opts, Manager);
}
