//===- servebench/Queries.cpp ----------------------------------------------==//

#include "Queries.h"

#include "core/Nodes.h"

#include <cstddef>

using namespace tcc::core;
using tcc::apps::QueryNode;
using tcc::apps::Record;

namespace servebench {

namespace {

/// Indexed by QueryNode::FieldT.
constexpr std::int32_t Record::*FieldOf[] = {
    &Record::Age, &Record::Income, &Record::Children, &Record::Education,
    &Record::Status};
constexpr unsigned FieldOffset[] = {
    offsetof(Record, Age), offsetof(Record, Income), offsetof(Record, Children),
    offsetof(Record, Education), offsetof(Record, Status)};
constexpr unsigned NumFields = sizeof(FieldOffset) / sizeof(FieldOffset[0]);
constexpr unsigned NumOps = QueryNode::Ge + 1;

/// Appends a tree of \p Leaves comparisons to \p Out, which has room for
/// it, so the returned pointers stay valid.
QueryNode *genQuery(Rng &R, const std::vector<Record> &Db,
                    std::vector<QueryNode> &Out, unsigned Leaves) {
  QueryNode &N = Out.emplace_back();
  if (Leaves == 1) {
    N.Kind = QueryNode::CmpField;
    N.Field = static_cast<QueryNode::FieldT>(R.next() % NumFields);
    N.Op = static_cast<QueryNode::OpT>(R.next() % NumOps);
    N.Value = Db[R.next() % Db.size()].*FieldOf[N.Field];
    return &N;
  }
  N.Kind = R.next() % 2 ? QueryNode::And : QueryNode::Or;
  auto Split = 1 + static_cast<unsigned>(R.next() % (Leaves - 1));
  N.L = genQuery(R, Db, Out, Split);
  N.R = genQuery(R, Db, Out, Leaves - Split);
  return &N;
}

Expr lower(Context &C, VSpec Rec, const QueryNode *Q) {
  if (Q->Kind == QueryNode::And)
    return lower(C, Rec, Q->L) && lower(C, Rec, Q->R);
  if (Q->Kind == QueryNode::Or)
    return lower(C, Rec, Q->L) || lower(C, Rec, Q->R);
  Expr F = C.loadMem(MemType::I32, C.binary(BinOp::Add, Expr(Rec),
                                            C.longConst(FieldOffset[Q->Field])));
  Expr V = C.rcInt(Q->Value);
  switch (Q->Op) {
  case QueryNode::Eq:
    return F == V;
  case QueryNode::Ne:
    return F != V;
  case QueryNode::Lt:
    return F < V;
  case QueryNode::Le:
    return F <= V;
  case QueryNode::Gt:
    return F > V;
  case QueryNode::Ge:
    return F >= V;
  }
  return F == V;
}

} // namespace

QueryPlan randomQuery(Rng &R, const std::vector<Record> &Db) {
  QueryPlan Q;
  Q.Nodes.reserve(2 * Comparisons - 1);
  genQuery(R, Db, Q.Nodes, Comparisons);
  return Q;
}

Stmt buildQuery(Context &C, const QueryNode *Q) {
  VSpec Rec = C.paramPtr(0);
  return C.ret(lower(C, Rec, Q));
}

} // namespace servebench
