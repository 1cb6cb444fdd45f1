// Workload model: an ordered multiset of SQL statements with weights.
//
// A workload is what DTA tunes (paper §2.1): a set of queries and updates
// captured by a profiler or supplied as a SQL file. Weights exist so that
// workload compression (§5.1) can replace a cluster of statements with one
// weighted representative.

#ifndef DTA_WORKLOAD_WORKLOAD_H_
#define DTA_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"

namespace dta::workload {

struct WorkloadStatement {
  sql::Statement stmt;
  std::string text;        // original SQL text
  double weight = 1.0;     // multiplicity (compression representatives > 1)
  uint64_t signature = 0;  // template hash (filled on construction)
  // Content identity: HashBytes(text), filled on construction. The cost
  // cache, fault keys and checkpoint fingerprints all key on it, so a
  // statement repeated verbatim shares one identity.
  uint64_t id = 0;
};

class Workload {
 public:
  Workload() = default;

  // Parses a ';'-separated SQL script.
  static Result<Workload> FromScript(const std::string& sql_text);
  // Takes ownership of parsed statements.
  static Workload FromStatements(std::vector<sql::Statement> statements);

  void Add(sql::Statement stmt, double weight = 1.0);

  const std::vector<WorkloadStatement>& statements() const {
    return statements_;
  }
  std::vector<WorkloadStatement>& statements() { return statements_; }
  size_t size() const { return statements_.size(); }
  bool empty() const { return statements_.empty(); }
  // Sum of weights == number of original events represented.
  double TotalWeight() const;
  // Number of distinct templates (signatures).
  size_t DistinctTemplates() const;
  // Fraction of statements that are INSERT/UPDATE/DELETE, by weight.
  double UpdateFraction() const;

 private:
  std::vector<WorkloadStatement> statements_;
};

}  // namespace dta::workload

#endif  // DTA_WORKLOAD_WORKLOAD_H_
