#include <gtest/gtest.h>

#include <memory>

#include "catalog/physical_design.h"
#include "catalog/schema.h"
#include "sql/parser.h"

namespace dta::catalog {
namespace {

TableSchema MakeLineitem() {
  TableSchema t("lineitem", {{"l_orderkey", ColumnType::kInt, 8},
                             {"l_partkey", ColumnType::kInt, 8},
                             {"l_shipdate", ColumnType::kString, 10},
                             {"l_quantity", ColumnType::kDouble, 8},
                             {"l_extendedprice", ColumnType::kDouble, 8}});
  t.set_row_count(600000);
  return t;
}

PartitionScheme MonthlyScheme() {
  PartitionScheme p;
  p.column = "l_shipdate";
  p.boundaries = {sql::Value::String("1993-01-01"),
                  sql::Value::String("1994-01-01"),
                  sql::Value::String("1995-01-01")};
  return p;
}

TEST(PartitionSchemeTest, PartitionFor) {
  PartitionScheme p = MonthlyScheme();
  EXPECT_EQ(p.PartitionCount(), 4);
  EXPECT_EQ(p.PartitionFor(sql::Value::String("1992-06-01")), 0);
  EXPECT_EQ(p.PartitionFor(sql::Value::String("1993-01-01")), 1);  // boundary
  EXPECT_EQ(p.PartitionFor(sql::Value::String("1994-06-15")), 2);
  EXPECT_EQ(p.PartitionFor(sql::Value::String("1999-01-01")), 3);
}

TEST(PartitionSchemeTest, EqualityAndCanonical) {
  PartitionScheme a = MonthlyScheme();
  PartitionScheme b = MonthlyScheme();
  EXPECT_TRUE(a == b);
  b.boundaries.pop_back();
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.CanonicalString(), b.CanonicalString());
  EXPECT_NE(a.CanonicalString().find("l_shipdate"), std::string::npos);
}

TEST(IndexDefTest, CanonicalNameIdentity) {
  IndexDef a{.table = "lineitem",
             .key_columns = {"l_shipdate", "l_orderkey"},
             .included_columns = {"l_quantity"}};
  IndexDef b{.table = "LINEITEM",
             .key_columns = {"L_SHIPDATE", "L_ORDERKEY"},
             .included_columns = {"L_QUANTITY"}};
  EXPECT_EQ(a.CanonicalName(), b.CanonicalName());
  EXPECT_TRUE(a == b);

  IndexDef c = a;
  c.key_columns = {"l_orderkey", "l_shipdate"};  // key order matters
  EXPECT_NE(a.CanonicalName(), c.CanonicalName());

  IndexDef d = a;
  d.included_columns = {};  // include set matters
  EXPECT_NE(a.CanonicalName(), d.CanonicalName());

  IndexDef e = a;
  e.clustered = true;
  EXPECT_NE(a.CanonicalName(), e.CanonicalName());
}

TEST(IndexDefTest, IncludedColumnsAreASet) {
  IndexDef a{.table = "t", .key_columns = {"k"},
             .included_columns = {"x", "y"}};
  IndexDef b{.table = "t", .key_columns = {"k"},
             .included_columns = {"y", "x"}};
  EXPECT_EQ(a.CanonicalName(), b.CanonicalName());
}

TEST(IndexDefTest, ColumnQueries) {
  IndexDef ix{.table = "lineitem",
              .key_columns = {"l_shipdate", "l_partkey"},
              .included_columns = {"l_quantity"}};
  EXPECT_TRUE(ix.ContainsColumn("L_SHIPDATE"));
  EXPECT_TRUE(ix.ContainsColumn("l_quantity"));
  EXPECT_FALSE(ix.ContainsColumn("l_orderkey"));
  EXPECT_EQ(ix.KeyPrefixMatch({"l_shipdate"}), 1);
  EXPECT_EQ(ix.KeyPrefixMatch({"l_partkey", "l_shipdate"}), 2);
  EXPECT_EQ(ix.KeyPrefixMatch({"l_partkey"}), 0);  // not a prefix
}

TEST(IndexDefTest, SizeEstimates) {
  TableSchema t = MakeLineitem();
  IndexDef narrow{.table = "lineitem", .key_columns = {"l_orderkey"}};
  IndexDef wide{.table = "lineitem",
                .key_columns = {"l_orderkey"},
                .included_columns = {"l_shipdate", "l_quantity",
                                     "l_extendedprice"}};
  EXPECT_GT(wide.EstimateBytes(t), narrow.EstimateBytes(t));
  EXPECT_GT(narrow.EstimateBytes(t), 0u);

  IndexDef clustered{.table = "lineitem",
                     .key_columns = {"l_orderkey"},
                     .clustered = true};
  EXPECT_EQ(clustered.EstimateBytes(t), 0u);  // non-redundant
  EXPECT_EQ(clustered.LeafPages(t), t.DataPages());
}

std::shared_ptr<const sql::SelectStatement> ParseView(const char* q) {
  auto r = sql::ParseStatement(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  auto sel = std::make_shared<sql::SelectStatement>(r->select().Clone());
  return sel;
}

TEST(ViewDefTest, IdentityFromDefinition) {
  ViewDef a;
  a.definition = ParseView("SELECT l_orderkey, COUNT(*) FROM lineitem "
                           "WHERE l_shipdate < '1995-01-01' GROUP BY "
                           "l_orderkey");
  ViewDef b;
  b.definition = ParseView("SELECT l_orderkey, COUNT(*) FROM lineitem "
                           "WHERE l_shipdate < '1995-01-01' GROUP BY "
                           "l_orderkey");
  EXPECT_EQ(a.CanonicalName(), b.CanonicalName());

  ViewDef c;
  c.definition = ParseView("SELECT l_orderkey, COUNT(*) FROM lineitem "
                           "WHERE l_shipdate < '1996-06-30' GROUP BY "
                           "l_orderkey");
  // Same template but different constants => different structures.
  EXPECT_NE(a.CanonicalName(), c.CanonicalName());
}

TEST(ViewDefTest, Bytes) {
  ViewDef v;
  v.estimated_rows = 10000;
  v.estimated_row_bytes = 40;
  EXPECT_GT(v.EstimateBytes(), 10000ull * 40);
}

TEST(ConfigurationTest, AddRemoveContains) {
  Configuration c;
  IndexDef ix{.table = "lineitem", .key_columns = {"l_shipdate"}};
  ASSERT_TRUE(c.AddIndex(ix).ok());
  EXPECT_FALSE(c.AddIndex(ix).ok());  // duplicate
  EXPECT_TRUE(c.ContainsStructure(ix.CanonicalName()));
  EXPECT_TRUE(c.RemoveStructure(ix.CanonicalName()));
  EXPECT_FALSE(c.RemoveStructure(ix.CanonicalName()));
  EXPECT_EQ(c.StructureCount(), 0u);
}

TEST(ConfigurationTest, SingleClusteredIndexPerTable) {
  Configuration c;
  IndexDef a{.table = "t", .key_columns = {"x"}, .clustered = true};
  IndexDef b{.table = "t", .key_columns = {"y"}, .clustered = true};
  ASSERT_TRUE(c.AddIndex(a).ok());
  EXPECT_FALSE(c.AddIndex(b).ok());
  EXPECT_NE(c.FindClusteredIndex("T"), nullptr);
  EXPECT_EQ(c.FindClusteredIndex("other"), nullptr);
}

TEST(ConfigurationTest, AlignmentChecks) {
  Configuration c;
  c.SetTablePartitioning("lineitem", MonthlyScheme());
  IndexDef unaligned{.table = "lineitem", .key_columns = {"l_orderkey"}};
  ASSERT_TRUE(c.AddIndex(unaligned).ok());
  EXPECT_FALSE(c.IsAligned("lineitem"));
  EXPECT_FALSE(c.IsFullyAligned());

  Configuration c2;
  c2.SetTablePartitioning("lineitem", MonthlyScheme());
  IndexDef aligned{.table = "lineitem",
                   .key_columns = {"l_orderkey"},
                   .partitioning = MonthlyScheme()};
  ASSERT_TRUE(c2.AddIndex(aligned).ok());
  EXPECT_TRUE(c2.IsAligned("lineitem"));
  EXPECT_TRUE(c2.IsFullyAligned());

  // Unpartitioned table with partitioned index is also unaligned.
  Configuration c3;
  ASSERT_TRUE(c3.AddIndex(aligned).ok());
  EXPECT_FALSE(c3.IsAligned("lineitem"));
}

TEST(ConfigurationTest, FingerprintOrderIndependent) {
  IndexDef a{.table = "t", .key_columns = {"x"}};
  IndexDef b{.table = "t", .key_columns = {"y"}};
  Configuration c1, c2;
  ASSERT_TRUE(c1.AddIndex(a).ok());
  ASSERT_TRUE(c1.AddIndex(b).ok());
  ASSERT_TRUE(c2.AddIndex(b).ok());
  ASSERT_TRUE(c2.AddIndex(a).ok());
  EXPECT_EQ(c1.Fingerprint(), c2.Fingerprint());
  c2.SetTablePartitioning("t", MonthlyScheme());
  EXPECT_NE(c1.Fingerprint(), c2.Fingerprint());
}

TEST(ConfigurationTest, StorageAccounting) {
  Catalog cat;
  Database db("tpch");
  ASSERT_TRUE(db.AddTable(MakeLineitem()).ok());
  ASSERT_TRUE(cat.AddDatabase(std::move(db)).ok());

  Configuration c;
  ASSERT_TRUE(
      c.AddIndex(IndexDef{.table = "lineitem", .key_columns = {"l_shipdate"}})
          .ok());
  uint64_t one = c.EstimateBytes(cat);
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(
      c.AddIndex(IndexDef{.table = "lineitem",
                          .key_columns = {"l_partkey"},
                          .included_columns = {"l_extendedprice"}})
          .ok());
  EXPECT_GT(c.EstimateBytes(cat), one);
}

TEST(ConfigurationTest, ViewsReferencing) {
  Configuration c;
  ViewDef v;
  v.definition = ParseView("SELECT l_orderkey FROM lineitem");
  v.referenced_tables = {"lineitem"};
  ASSERT_TRUE(c.AddView(v).ok());
  EXPECT_EQ(c.ViewsReferencing("lineitem").size(), 1u);
  EXPECT_EQ(c.ViewsReferencing("orders").size(), 0u);
}

// An index with every optional part of its name: a database qualifier,
// included columns (a set) and partitioning.
IndexDef QualifiedPartitionedIndex() {
  PartitionScheme monthly;
  monthly.column = "L_ShipDate";
  monthly.boundaries = {sql::Value::String("1993-01-01"),
                        sql::Value::String("1994-01-01")};
  return IndexDef{.database = "Sales",
                  .table = "LineItem",
                  .key_columns = {"L_ShipDate", "l_orderkey"},
                  .included_columns = {"l_quantity", "L_Discount"},
                  .partitioning = monthly};
}

// A view with a clustered key and partitioning.
ViewDef KeyedPartitionedView() {
  ViewDef v;
  v.definition = ParseView("SELECT l_orderkey, COUNT(*) FROM lineitem "
                           "WHERE l_shipdate < '1995-01-01' GROUP BY "
                           "l_orderkey");
  v.referenced_tables = {"lineitem"};
  v.clustered_key = {"l_orderkey"};
  PartitionScheme by_key;
  by_key.column = "l_orderkey";
  by_key.boundaries = {sql::Value::Int(1000), sql::Value::Int(2000)};
  v.partitioning = by_key;
  return v;
}

// Cache keys, checkpoints and the XML schema embed canonical names, and a
// configuration stores them: the render's bytes must never drift.
TEST(IdentityTest, CanonicalNameBytesArePinned) {
  EXPECT_EQ(QualifiedPartitionedIndex().CanonicalName(),
            "ix:sales.lineitem:k=l_shipdate,l_orderkey:inc=l_discount,"
            "l_quantity:p(l_shipdate:['1993-01-01','1994-01-01'])");
  EXPECT_EQ(KeyedPartitionedView().CanonicalName(),
            "mv:c2b90c8cb613ed91-a3b6809e:ck=l_orderkey:"
            "p(l_orderkey:[1000,2000])");
}

// Every stored name equals a fresh render of its structure.
void ExpectStoredNamesFresh(const Configuration& c) {
  ASSERT_EQ(c.index_names().size(), c.indexes().size());
  ASSERT_EQ(c.view_names().size(), c.views().size());
  for (size_t i = 0; i < c.indexes().size(); ++i) {
    EXPECT_EQ(c.index_names()[i], c.indexes()[i].CanonicalName()) << i;
    EXPECT_EQ(&c.NameOf(c.indexes()[i]), &c.index_names()[i]) << i;
  }
  for (size_t i = 0; i < c.views().size(); ++i) {
    EXPECT_EQ(c.view_names()[i], c.views()[i].CanonicalName()) << i;
    EXPECT_EQ(&c.NameOf(c.views()[i]), &c.view_names()[i]) << i;
  }
}

TEST(ConfigurationTest, StoredNamesSurviveCopyRemoveAndReAdd) {
  const IndexDef first{.table = "lineitem", .key_columns = {"l_orderkey"}};
  const IndexDef middle = QualifiedPartitionedIndex();
  const IndexDef last{.table = "lineitem",
                      .key_columns = {"l_partkey"},
                      .clustered = true};
  ViewDef plain;
  plain.definition = ParseView("SELECT l_orderkey FROM lineitem");
  plain.referenced_tables = {"lineitem"};
  const ViewDef keyed = KeyedPartitionedView();

  Configuration c;
  ASSERT_TRUE(c.AddIndex(first).ok());
  ASSERT_TRUE(c.AddIndex(middle, middle.CanonicalName()).ok());
  ASSERT_TRUE(c.AddIndex(last).ok());
  ASSERT_TRUE(c.AddView(keyed).ok());
  ASSERT_TRUE(c.AddView(plain, plain.CanonicalName()).ok());
  c.SetTablePartitioning("lineitem", MonthlyScheme());
  ExpectStoredNamesFresh(c);

  Configuration copy = c;
  ExpectStoredNamesFresh(copy);
  EXPECT_EQ(copy.Fingerprint(), c.Fingerprint());

  ASSERT_TRUE(copy.RemoveStructure(middle.CanonicalName()));
  ASSERT_TRUE(copy.RemoveStructure(keyed.CanonicalName()));
  ExpectStoredNamesFresh(copy);
  EXPECT_FALSE(copy.ContainsStructure(middle.CanonicalName()));
  EXPECT_TRUE(copy.ContainsStructure(last.CanonicalName()));
  EXPECT_TRUE(copy.ContainsStructure(plain.CanonicalName()));
  ExpectStoredNamesFresh(c);  // the original is untouched
  EXPECT_TRUE(c.ContainsStructure(middle.CanonicalName()));

  ASSERT_TRUE(copy.AddIndex(middle).ok());
  ASSERT_TRUE(copy.AddView(keyed, keyed.CanonicalName()).ok());
  ExpectStoredNamesFresh(copy);
  EXPECT_EQ(copy.Fingerprint(), c.Fingerprint());
  EXPECT_EQ(copy.AddIndex(middle).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(copy.AddView(keyed).code(), StatusCode::kAlreadyExists);
  ExpectStoredNamesFresh(copy);
}

}  // namespace
}  // namespace dta::catalog
