#include "sql/ast.h"

#include "common/strings.h"

namespace dta::sql {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->value = value;
  e->column = column;
  e->op = op;
  e->agg = agg;
  e->distinct = distinct;
  if (left != nullptr) e->left = left->Clone();
  if (right != nullptr) e->right = right->Clone();
  return e;
}

void Expr::CollectColumns(std::vector<ColumnRef>* out) const {
  if (kind == Kind::kColumn) out->push_back(column);
  if (left != nullptr) left->CollectColumns(out);
  if (right != nullptr) right->CollectColumns(out);
}

SelectStatement SelectStatement::Clone() const {
  SelectStatement s;
  s.distinct = distinct;
  s.top = top;
  s.select_star = select_star;
  s.items.reserve(items.size());
  for (const auto& item : items) {
    SelectItem copy;
    copy.expr = item.expr != nullptr ? item.expr->Clone() : nullptr;
    copy.alias = item.alias;
    s.items.push_back(std::move(copy));
  }
  s.from = from;
  s.where = where;
  s.group_by = group_by;
  s.order_by = order_by;
  return s;
}

Statement Statement::Clone() const {
  Statement out;
  switch (kind()) {
    case StatementKind::kSelect:
      out.node = select().Clone();
      break;
    case StatementKind::kInsert:
      out.node = insert();
      break;
    case StatementKind::kUpdate:
      out.node = update();
      break;
    case StatementKind::kDelete:
      out.node = del();
      break;
  }
  return out;
}

std::set<std::string> ReferencedTables(const Statement& stmt) {
  std::set<std::string> out;
  switch (stmt.kind()) {
    case StatementKind::kSelect:
      for (const auto& tr : stmt.select().from) out.insert(ToLower(tr.table));
      break;
    case StatementKind::kInsert:
      out.insert(ToLower(stmt.insert().table));
      break;
    case StatementKind::kUpdate:
      out.insert(ToLower(stmt.update().table));
      break;
    case StatementKind::kDelete:
      out.insert(ToLower(stmt.del().table));
      break;
  }
  return out;
}

}  // namespace dta::sql
