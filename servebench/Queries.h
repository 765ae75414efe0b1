//===- servebench/Queries.h - Seeded request queries ------------*- C++ -*-===//
//
// Part of tickc, a reproduction of "tcc: A System for Fast, Flexible, and
// High-level Dynamic Code Generation" (PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specializations the serving benchmark requests: the paper's query
/// compiler (apps/Query.h, §6.2) with randomized queries. A request names a
/// query of five comparisons and scans a database of 2000 records with it,
/// the sizes of the paper's experiment. Queries are apps::QueryNode trees,
/// so QueryApp's static interpreter is both the correctness oracle and the
/// reference a request's latency is measured against. Queries capture no
/// addresses, so they persist in snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef TICKC_SERVEBENCH_QUERIES_H
#define TICKC_SERVEBENCH_QUERIES_H

#include "apps/Query.h"
#include "core/Context.h"

#include <cstdint>
#include <vector>

namespace servebench {

/// The paper's query experiment: five comparisons over 2000 records.
constexpr unsigned Comparisons = 5;
constexpr unsigned Records = 2000;

/// splitmix64: a fully specified generator, so one seed yields the same
/// queries on every standard library.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : S(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

private:
  std::uint64_t S;
};

/// One query; Nodes[0] is the root. Move-only, because the nodes point at
/// each other. Distinct draws collide with negligible probability.
struct QueryPlan {
  std::vector<tcc::apps::QueryNode> Nodes;

  QueryPlan() = default;
  QueryPlan(QueryPlan &&) = default;
  QueryPlan &operator=(QueryPlan &&) = default;
  const tcc::apps::QueryNode *root() const { return Nodes.data(); }
};

/// A random and/or tree of Comparisons comparisons. Each compares a field
/// with that field's value in a random record of \p Db, so it splits the
/// rows instead of being constant.
QueryPlan randomQuery(Rng &R, const std::vector<tcc::apps::Record> &Db);

/// Builds `int match(const Record *)` for \p Q into \p C: the spec
/// QueryApp::specialize compiles.
tcc::core::Stmt buildQuery(tcc::core::Context &C,
                           const tcc::apps::QueryNode *Q);

} // namespace servebench

#endif // TICKC_SERVEBENCH_QUERIES_H
