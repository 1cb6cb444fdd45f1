// Tests for the evaluation workload generators (TPC-H-like, SYNT1, PSOFT,
// customer profiles): schemas attach, workloads parse and bind, profiles
// have the characteristics the experiments rely on.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "optimizer/bound_query.h"
#include "sql/parser.h"
#include "workloads/customer.h"
#include "workloads/psoft.h"
#include "workloads/synt1.h"
#include "workloads/tpch.h"

namespace dta::workloads {

// Prints a profile by name. Without it gtest dumps the struct's raw bytes,
// which include a heap pointer, so the listed test names (and the CTest
// names derived from them) changed from run to run. Found by ADL, so it lives
// in the profile's namespace rather than the anonymous one.
void PrintTo(const CustomerProfile& p, std::ostream* os) { *os << p.name; }

namespace {

// Every statement must bind against the server's catalog (no dangling
// tables/columns in generated SQL).
void ExpectAllBind(const workload::Workload& w, const server::Server& s) {
  for (const auto& ws : w.statements()) {
    if (ws.stmt.is_select()) {
      auto bound = optimizer::BindSelect(ws.stmt.select(), s.catalog());
      EXPECT_TRUE(bound.ok()) << ws.text << " -> "
                              << bound.status().ToString();
    } else {
      auto bound = optimizer::BindDml(ws.stmt, s.catalog());
      EXPECT_TRUE(bound.ok()) << ws.text << " -> "
                              << bound.status().ToString();
    }
  }
}

TEST(TpchTest, SchemaHasEightTablesAndScales) {
  auto specs1 = TpchTableSpecs(1.0);
  EXPECT_EQ(specs1.size(), 8u);
  auto specs_small = TpchTableSpecs(0.01);
  uint64_t li_1 = 0, li_small = 0;
  for (const auto& s : specs1) {
    if (s.schema.name() == "lineitem") li_1 = s.rows;
  }
  for (const auto& s : specs_small) {
    if (s.schema.name() == "lineitem") li_small = s.rows;
  }
  EXPECT_EQ(li_1, 6000000u);
  EXPECT_EQ(li_small, 60000u);
}

TEST(TpchTest, AttachMetadataOnly) {
  server::Server s("prod", {});
  ASSERT_TRUE(AttachTpch(&s, 10.0, /*with_data=*/false, 1).ok());
  auto t = s.catalog().ResolveTable("tpch", "lineitem");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->table->row_count(), 60000000u);
  EXPECT_EQ(s.Table("tpch", "lineitem"), nullptr);
  // Statistics still work via specs.
  EXPECT_TRUE(s.CreateStatistics(
                   stats::StatsKey("tpch", "lineitem", {"l_shipdate"}))
                  .ok());
}

TEST(TpchTest, AttachWithDataIsExecutable) {
  server::Server s("prod", {});
  ASSERT_TRUE(AttachTpch(&s, 0.002, /*with_data=*/true, 1).ok());
  auto q = sql::ParseStatement(
      "SELECT COUNT(*) FROM lineitem WHERE l_shipdate < '1995-01-01'");
  ASSERT_TRUE(q.ok());
  auto r = s.ExecuteSelect(q->select());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_GT(r->rows[0][0].AsInt(), 0);
}

TEST(TpchTest, TwentyTwoQueriesParseAndBind) {
  server::Server s("prod", {});
  ASSERT_TRUE(AttachTpch(&s, 0.01, /*with_data=*/false, 1).ok());
  workload::Workload w = TpchQueries(7);
  EXPECT_EQ(w.size(), 22u);
  EXPECT_EQ(w.DistinctTemplates(), 22u);  // all queries are distinct
  ExpectAllBind(w, s);
}

TEST(TpchTest, QueriesAreDeterministicPerSeed) {
  workload::Workload a = TpchQueries(7);
  workload::Workload b = TpchQueries(7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.statements()[i].text, b.statements()[i].text);
  }
}

TEST(TpchTest, PrefixSelectsFirstQueries) {
  workload::Workload w = TpchQueriesPrefix(1, 3);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_NE(w.statements()[0].text.find("l_returnflag"), std::string::npos);
}

TEST(TpchTest, RawConfigurationIsConstraintOnly) {
  catalog::Configuration raw = TpchRawConfiguration();
  EXPECT_EQ(raw.indexes().size(), 6u);
  for (const auto& ix : raw.indexes()) {
    EXPECT_TRUE(ix.constraint_enforcing);
  }
}

TEST(Synt1Test, AttachAndGenerate) {
  server::Server s("prod", {});
  ASSERT_TRUE(AttachSynt1(&s, 1000000, 5).ok());
  workload::Workload w = Synt1Workload(800, 100, 5);
  EXPECT_EQ(w.size(), 800u);
  // Template count drives compressibility (Table 3's SYNT1 row).
  EXPECT_LE(w.DistinctTemplates(), 120u);
  EXPECT_GE(w.DistinctTemplates(), 60u);
  ExpectAllBind(w, s);
  EXPECT_DOUBLE_EQ(w.UpdateFraction(), 0.0);  // pure query workload
}

TEST(PsoftTest, AttachAndGenerate) {
  server::Server s("prod", {});
  ASSERT_TRUE(AttachPsoft(&s, 3).ok());
  workload::Workload w = PsoftWorkload(2000, 3);
  EXPECT_EQ(w.size(), 2000u);
  ExpectAllBind(w, s);
  // Heavily templatized with a meaningful update mix.
  EXPECT_LT(w.DistinctTemplates(), 40u);
  EXPECT_GT(w.UpdateFraction(), 0.10);
  EXPECT_LT(w.UpdateFraction(), 0.45);
}

class CustomerTest : public ::testing::TestWithParam<CustomerProfile> {};

TEST_P(CustomerTest, AttachGenerateAndBind) {
  CustomerProfile p = GetParam();
  server::Server s("prod", {});
  ASSERT_TRUE(AttachCustomer(&s, p).ok());
  // Table count matches the profile.
  size_t total_tables = 0;
  for (const auto& [name, db] : s.catalog().databases()) {
    total_tables += db.tables().size();
  }
  EXPECT_EQ(total_tables, static_cast<size_t>(p.tables));
  EXPECT_EQ(s.catalog().databases().size(),
            static_cast<size_t>(p.databases));

  workload::Workload w = CustomerWorkload(p, s, 500);
  EXPECT_EQ(w.size(), 500u);
  ExpectAllBind(w, s);
  EXPECT_NEAR(w.UpdateFraction(), p.update_fraction,
              0.25);  // template-level mix approximates the target

  catalog::Configuration hand = HandTunedConfiguration(p, s);
  catalog::Configuration raw = CustomerRawConfiguration(p, s);
  if (p.hand_tuned == CustomerProfile::HandTunedStyle::kPkOnly) {
    EXPECT_EQ(hand.Fingerprint(), raw.Fingerprint());
  } else {
    EXPECT_GT(hand.indexes().size(), raw.indexes().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, CustomerTest,
                         ::testing::Values(Cust1(), Cust2(), Cust3(),
                                           Cust4()),
                         [](const ::testing::TestParamInfo<CustomerProfile>&
                                info) { return info.param.name; });

TEST(CustomerTest2, LogicalSizeApproximatesProfile) {
  CustomerProfile p = Cust1();
  server::Server s("prod", {});
  ASSERT_TRUE(AttachCustomer(&s, p).ok());
  double total_bytes = 0;
  for (const auto& [name, db] : s.catalog().databases()) {
    total_bytes += static_cast<double>(db.TotalDataBytes());
  }
  EXPECT_NEAR(total_bytes / 1e9, p.total_gb, p.total_gb * 0.3);
}

}  // namespace
}  // namespace dta::workloads
