#include "workload/workload.h"

#include <set>

#include "common/hash.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "sql/signature.h"

namespace dta::workload {

Result<Workload> Workload::FromScript(const std::string& sql_text) {
  auto statements = sql::ParseScript(sql_text);
  if (!statements.ok()) return statements.status();
  return FromStatements(std::move(statements).value());
}

Workload Workload::FromStatements(std::vector<sql::Statement> statements) {
  Workload w;
  for (auto& stmt : statements) {
    w.Add(std::move(stmt));
  }
  return w;
}

void Workload::Add(sql::Statement stmt, double weight) {
  WorkloadStatement ws;
  ws.signature = sql::SignatureHash(stmt);
  ws.text = sql::ToSql(stmt);
  ws.id = HashBytes(ws.text);
  ws.stmt = std::move(stmt);
  ws.weight = weight;
  statements_.push_back(std::move(ws));
}

double Workload::TotalWeight() const {
  double total = 0;
  for (const auto& s : statements_) total += s.weight;
  return total;
}

size_t Workload::DistinctTemplates() const {
  std::set<uint64_t> sigs;
  for (const auto& s : statements_) sigs.insert(s.signature);
  return sigs.size();
}

double Workload::UpdateFraction() const {
  double updates = 0, total = 0;
  for (const auto& s : statements_) {
    total += s.weight;
    if (!s.stmt.is_select()) updates += s.weight;
  }
  return total > 0 ? updates / total : 0;
}

}  // namespace dta::workload
