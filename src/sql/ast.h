// Abstract syntax tree for the SQL subset understood by the substrate.
//
// Supported statements:
//   SELECT [DISTINCT] [TOP n] items FROM t1 [a1], t2 [a2], ...
//     [WHERE conj-of-atoms] [GROUP BY cols] [ORDER BY cols [ASC|DESC]]
//   (JOIN ... ON c1 = c2 sugar is folded into FROM + WHERE by the parser)
//   INSERT INTO t [(cols)] VALUES (...), (...)
//   UPDATE t SET c = lit, ... [WHERE conj]
//   DELETE FROM t [WHERE conj]
//
// WHERE clauses are conjunctions of atomic predicates: col op literal,
// col BETWEEN a AND b, col IN (list), col LIKE 'prefix%', col op col.
// Disjunctions/subqueries are out of scope; the workload generators express
// the paper's workloads within this subset.

#ifndef DTA_SQL_AST_H_
#define DTA_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sql/value.h"

namespace dta::sql {

// Possibly-qualified column reference; `table` is an alias or table name and
// may be empty (resolved later against the catalog).
struct ColumnRef {
  std::string table;
  std::string column;

  bool operator==(const ColumnRef& o) const = default;
};

enum class BinaryOp { kAdd, kSub, kMul, kDiv };
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

// Scalar / aggregate expression tree.
struct Expr {
  enum class Kind {
    kConst,      // `value`
    kColumn,     // `column`
    kBinary,     // `op`, `left`, `right`
    kAggregate,  // `agg` over `left` (null left == COUNT(*)), `distinct`
  };

  Kind kind = Kind::kConst;
  Value value;
  ColumnRef column;
  BinaryOp op = BinaryOp::kAdd;
  AggFunc agg = AggFunc::kCount;
  bool distinct = false;  // COUNT(DISTINCT col)
  ExprPtr left;
  ExprPtr right;

  static ExprPtr Const(Value v) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kConst;
    e->value = std::move(v);
    return e;
  }
  static ExprPtr Column(ColumnRef c) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kColumn;
    e->column = std::move(c);
    return e;
  }
  static ExprPtr Column(std::string table, std::string column) {
    return Column(ColumnRef{std::move(table), std::move(column)});
  }
  static ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kBinary;
    e->op = op;
    e->left = std::move(l);
    e->right = std::move(r);
    return e;
  }
  static ExprPtr Aggregate(AggFunc f, ExprPtr arg, bool distinct = false) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kAggregate;
    e->agg = f;
    e->left = std::move(arg);
    e->distinct = distinct;
    return e;
  }

  ExprPtr Clone() const;
  bool IsAggregate() const { return kind == Kind::kAggregate; }

  // Appends every column referenced in this expression (in order).
  void CollectColumns(std::vector<ColumnRef>* out) const;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);

// Atomic WHERE predicate.
struct Predicate {
  enum class Kind {
    kCompare,        // column op value
    kBetween,        // column BETWEEN low AND high
    kIn,             // column IN (values)
    kLike,           // column LIKE pattern (prefix patterns only)
    kColumnCompare,  // column op rhs_column (equality => join predicate)
  };

  Kind kind = Kind::kCompare;
  ColumnRef column;
  CompareOp op = CompareOp::kEq;
  Value value;
  Value low, high;
  std::vector<Value> in_list;
  std::string like_pattern;
  ColumnRef rhs_column;

  static Predicate Compare(ColumnRef c, CompareOp op, Value v) {
    Predicate p;
    p.kind = Kind::kCompare;
    p.column = std::move(c);
    p.op = op;
    p.value = std::move(v);
    return p;
  }
  static Predicate Between(ColumnRef c, Value lo, Value hi) {
    Predicate p;
    p.kind = Kind::kBetween;
    p.column = std::move(c);
    p.low = std::move(lo);
    p.high = std::move(hi);
    return p;
  }
  static Predicate In(ColumnRef c, std::vector<Value> values) {
    Predicate p;
    p.kind = Kind::kIn;
    p.column = std::move(c);
    p.in_list = std::move(values);
    return p;
  }
  static Predicate Like(ColumnRef c, std::string pattern) {
    Predicate p;
    p.kind = Kind::kLike;
    p.column = std::move(c);
    p.like_pattern = std::move(pattern);
    return p;
  }
  static Predicate Join(ColumnRef a, ColumnRef b) {
    Predicate p;
    p.kind = Kind::kColumnCompare;
    p.column = std::move(a);
    p.op = CompareOp::kEq;
    p.rhs_column = std::move(b);
    return p;
  }

  // True for predicates of shape column-op-column with op '='.
  bool IsJoin() const {
    return kind == Kind::kColumnCompare && op == CompareOp::kEq;
  }
  // True for single-table predicates restricting a column to one value
  // (equality; IN handled separately).
  bool IsEquality() const {
    return kind == Kind::kCompare && op == CompareOp::kEq;
  }
  // True for range-style predicates (<,<=,>,>=, BETWEEN).
  bool IsRange() const {
    return kind == Kind::kBetween ||
           (kind == Kind::kCompare && op != CompareOp::kEq &&
            op != CompareOp::kNe);
  }
};

struct TableRef {
  std::string database;  // optional
  std::string table;
  std::string alias;  // empty => table name is the alias

  const std::string& EffectiveAlias() const {
    return alias.empty() ? table : alias;
  }
};

struct SelectItem {
  ExprPtr expr;
  std::string alias;
};

struct OrderByItem {
  ColumnRef column;
  bool ascending = true;
};

struct SelectStatement {
  bool distinct = false;
  int64_t top = -1;  // -1 == no TOP
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::vector<Predicate> where;
  std::vector<ColumnRef> group_by;
  std::vector<OrderByItem> order_by;

  bool HasAggregates() const {
    for (const auto& item : items) {
      if (item.expr != nullptr && item.expr->IsAggregate()) return true;
    }
    return false;
  }

  SelectStatement Clone() const;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;        // empty => all columns in order
  std::vector<std::vector<Value>> rows;    // literal rows
};

struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, Value>> assignments;
  std::vector<Predicate> where;
};

struct DeleteStatement {
  std::string table;
  std::vector<Predicate> where;
};

enum class StatementKind { kSelect, kInsert, kUpdate, kDelete };

struct Statement {
  std::variant<SelectStatement, InsertStatement, UpdateStatement,
               DeleteStatement>
      node;

  StatementKind kind() const {
    return static_cast<StatementKind>(node.index());
  }
  bool is_select() const { return kind() == StatementKind::kSelect; }
  bool is_update_kind() const { return !is_select(); }

  const SelectStatement& select() const {
    return std::get<SelectStatement>(node);
  }
  SelectStatement& select() { return std::get<SelectStatement>(node); }
  const InsertStatement& insert() const {
    return std::get<InsertStatement>(node);
  }
  const UpdateStatement& update() const {
    return std::get<UpdateStatement>(node);
  }
  const DeleteStatement& del() const { return std::get<DeleteStatement>(node); }

  Statement Clone() const;
};

// Lower-cased names of the tables a statement reads (FROM list) or writes
// (INSERT/UPDATE/DELETE target).
std::set<std::string> ReferencedTables(const Statement& stmt);

}  // namespace dta::sql

#endif  // DTA_SQL_AST_H_
