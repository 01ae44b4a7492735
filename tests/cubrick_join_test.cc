// Tests for replicated dimension tables and join execution (Section
// II-B: small tables replicated to every node to speed up joins with
// distributed fact tables).

#include <gtest/gtest.h>

#include <map>

#include "core/deployment.h"
#include "cubrick/partition.h"
#include "cubrick/replicated_table.h"
#include "cubrick/sql.h"
#include "workload/generators.h"

namespace scalewall::cubrick {
namespace {

// campaign dimension: key = campaign id, attributes = (advertiser, tier).
ReplicatedTable CampaignDim() {
  ReplicatedTable dim("campaigns", /*key_cardinality=*/16,
                      {Dimension{"advertiser", 4, 1},
                       Dimension{"tier", 3, 1}});
  for (uint32_t c = 0; c < 12; ++c) {  // campaigns 12..15 left unmapped
    dim.Set(DimensionEntry{c, {c % 4, c % 3}});
  }
  return dim;
}

TEST(ReplicatedTableTest, SetAndLookup) {
  ReplicatedTable dim = CampaignDim();
  EXPECT_EQ(dim.num_entries(), 12u);
  EXPECT_EQ(dim.Attribute(5, 0), 1u);   // 5 % 4
  EXPECT_EQ(dim.Attribute(5, 1), 2u);   // 5 % 3
  EXPECT_EQ(dim.Attribute(13, 0), kNoAttribute);  // unmapped key
  EXPECT_EQ(dim.Attribute(99, 0), kNoAttribute);  // out of domain
  EXPECT_EQ(dim.Attribute(5, 7), kNoAttribute);   // unknown attribute
  EXPECT_EQ(dim.AttributeIndex("tier"), 1);
  EXPECT_EQ(dim.AttributeIndex("nope"), -1);
}

TEST(ReplicatedTableTest, SetValidation) {
  ReplicatedTable dim("d", 8, {Dimension{"a", 4, 1}});
  EXPECT_EQ(dim.Set(DimensionEntry{9, {0}}).code(),
            StatusCode::kInvalidArgument);  // key out of domain
  EXPECT_EQ(dim.Set(DimensionEntry{1, {}}).code(),
            StatusCode::kInvalidArgument);  // arity
  EXPECT_EQ(dim.Set(DimensionEntry{1, {9}}).code(),
            StatusCode::kInvalidArgument);  // attribute domain
  EXPECT_TRUE(dim.Set(DimensionEntry{1, {3}}).ok());
  // Overwrite does not double-count.
  EXPECT_TRUE(dim.Set(DimensionEntry{1, {2}}).ok());
  EXPECT_EQ(dim.num_entries(), 1u);
  EXPECT_EQ(dim.Attribute(1, 0), 2u);
}

TEST(ReplicatedTableTest, RestoreRejectsOutOfDomainValues) {
  // A decoded snapshot is held to Set()'s domain rule: the vectorized
  // scan sizes group-join slots by the attribute's cardinality.
  ReplicatedTable dim("d", 3, {Dimension{"a", 4, 1}});
  EXPECT_TRUE(dim.RestoreColumns({{0, kNoAttribute, 3}}, 2).ok());
  EXPECT_EQ(dim.Attribute(2, 0), 3u);
  EXPECT_EQ(dim.RestoreColumns({{0, 4, 3}}, 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dim.RestoreColumns({{0, 1}}, 2).code(),
            StatusCode::kInvalidArgument);  // column length
}

// Fact schema: (day, campaign); metric spend. Campaign is dim 1.
TableSchema FactSchema() {
  TableSchema schema;
  schema.dimensions = {Dimension{"day", 32, 8},
                       Dimension{"campaign", 16, 4}};
  schema.metrics = {Metric{"spend"}};
  return schema;
}

class JoinExecutionTest : public ::testing::Test {
 protected:
  JoinExecutionTest()
      : dim_(CampaignDim()), part_("facts", 0, FactSchema()) {
    // spend = campaign id; one row per (day, campaign) for days 0..3.
    for (uint32_t day = 0; day < 4; ++day) {
      for (uint32_t c = 0; c < 16; ++c) {
        part_.Insert(Row{{day, c}, {static_cast<double>(c)}});
      }
    }
    join_.tables = {&dim_};
  }

  Query JoinQuery() {
    Query q;
    q.table = "facts";
    q.joins = {Join{/*fact_dimension=*/1, "campaigns", /*attribute=*/0}};
    q.aggregations = {Aggregation{0, AggOp::kSum},
                      Aggregation{0, AggOp::kCount}};
    return q;
  }

  ReplicatedTable dim_;
  TablePartition part_;
  JoinContext join_;
};

TEST_F(JoinExecutionTest, GroupByJoinedAttribute) {
  Query q = JoinQuery();
  q.group_by_joins = {0};  // GROUP BY campaigns.advertiser
  QueryResult result(2);
  ASSERT_TRUE(part_.Execute(q, result, &join_).ok());
  // Campaigns 0..11 map to advertisers c%4; campaigns 12..15 are
  // unmapped and drop out (inner join).
  ASSERT_EQ(result.num_groups(), 4u);
  std::map<uint32_t, double> expected_sum, expected_count;
  for (uint32_t day = 0; day < 4; ++day) {
    for (uint32_t c = 0; c < 12; ++c) {
      expected_sum[c % 4] += c;
      expected_count[c % 4] += 1;
    }
  }
  for (const auto& [adv, sum] : expected_sum) {
    EXPECT_DOUBLE_EQ(*result.Value({adv}, 0, AggOp::kSum), sum);
    EXPECT_DOUBLE_EQ(*result.Value({adv}, 1, AggOp::kCount),
                     expected_count[adv]);
  }
}

TEST_F(JoinExecutionTest, FilterOnJoinedAttribute) {
  Query q = JoinQuery();
  q.join_filters = {JoinFilter{0, /*lo=*/2, /*hi=*/2}};  // advertiser = 2
  QueryResult result(2);
  ASSERT_TRUE(part_.Execute(q, result, &join_).ok());
  // Campaigns with c%4==2 among 0..11: 2, 6, 10; spend sums 2+6+10 per day.
  EXPECT_DOUBLE_EQ(*result.Value({}, 0, AggOp::kSum), 4.0 * 18.0);
  EXPECT_DOUBLE_EQ(*result.Value({}, 1, AggOp::kCount), 12.0);
}

TEST_F(JoinExecutionTest, MixedGroupByFactAndJoin) {
  Query q = JoinQuery();
  q.group_by = {0};        // day
  q.group_by_joins = {0};  // advertiser
  QueryResult result(2);
  ASSERT_TRUE(part_.Execute(q, result, &join_).ok());
  EXPECT_EQ(result.num_groups(), 4u * 4u);  // 4 days x 4 advertisers
  // Key order: fact dims first, then joined attributes.
  EXPECT_DOUBLE_EQ(*result.Value({2, 1}, 1, AggOp::kCount), 3.0);
}

TEST_F(JoinExecutionTest, SecondAttributeJoin) {
  Query q = JoinQuery();
  q.joins[0].attribute = 1;  // tier
  q.group_by_joins = {0};
  QueryResult result(2);
  ASSERT_TRUE(part_.Execute(q, result, &join_).ok());
  EXPECT_EQ(result.num_groups(), 3u);
}

TEST_F(JoinExecutionTest, MissingJoinContextRejected) {
  Query q = JoinQuery();
  QueryResult result(2);
  EXPECT_EQ(part_.Execute(q, result, nullptr).code(),
            StatusCode::kFailedPrecondition);
  JoinContext empty;
  EXPECT_EQ(part_.Execute(q, result, &empty).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(JoinExecutionTest, ValidationCatchesBadIndices) {
  Query q = JoinQuery();
  q.joins[0].fact_dimension = 9;
  EXPECT_FALSE(q.Validate(FactSchema()).ok());
  q = JoinQuery();
  q.group_by_joins = {5};
  EXPECT_FALSE(q.Validate(FactSchema()).ok());
  q = JoinQuery();
  q.join_filters = {JoinFilter{3, 0, 1}};
  EXPECT_FALSE(q.Validate(FactSchema()).ok());
}

// --- SQL JOIN syntax ---

class SqlJoinTest : public ::testing::Test {
 protected:
  SqlJoinTest() : catalog_(1000) {
    catalog_.CreateTable("facts", FactSchema(), 4);
    catalog_.CreateReplicatedTable("campaigns", 16,
                                   {Dimension{"advertiser", 4, 1},
                                    Dimension{"tier", 3, 1}});
  }
  Catalog catalog_;
};

TEST_F(SqlJoinTest, ParseJoinQuery) {
  auto q = ParseQuery(
      "SELECT campaigns.advertiser, SUM(spend) FROM facts "
      "JOIN campaigns ON campaign "
      "WHERE day >= 10 AND campaigns.tier = 2 "
      "GROUP BY campaigns.advertiser ORDER BY SUM(spend) DESC LIMIT 3",
      FactSchema(), &catalog_);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->joins.size(), 2u);  // advertiser + tier references
  EXPECT_EQ(q->joins[0].dimension_table, "campaigns");
  EXPECT_EQ(q->joins[0].fact_dimension, 1);
  ASSERT_EQ(q->group_by_joins.size(), 1u);
  EXPECT_EQ(q->joins[q->group_by_joins[0]].attribute, 0);  // advertiser
  ASSERT_EQ(q->join_filters.size(), 1u);
  EXPECT_EQ(q->joins[q->join_filters[0].join].attribute, 1);  // tier
  EXPECT_EQ(q->join_filters[0].lo, 2u);
  EXPECT_EQ(q->join_filters[0].hi, 2u);
  ASSERT_EQ(q->filters.size(), 1u);  // the plain day filter
  EXPECT_EQ(q->limit, 3u);
}

TEST_F(SqlJoinTest, RepeatedAttributeReusesJoinEntry) {
  auto q = ParseQuery(
      "SELECT campaigns.advertiser, COUNT(*) FROM facts "
      "JOIN campaigns ON campaign "
      "WHERE campaigns.advertiser BETWEEN 1 AND 2 "
      "GROUP BY campaigns.advertiser",
      FactSchema(), &catalog_);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->joins.size(), 1u);  // same attribute referenced twice
  EXPECT_EQ(q->group_by_joins[0], q->join_filters[0].join);
}

TEST_F(SqlJoinTest, JoinErrors) {
  // JOIN without catalog.
  EXPECT_FALSE(ParseQuery(
                   "SELECT SUM(spend) FROM facts JOIN campaigns ON campaign",
                   FactSchema())
                   .ok());
  // Unknown dimension table.
  EXPECT_FALSE(ParseQuery(
                   "SELECT SUM(spend) FROM facts JOIN ghost ON campaign",
                   FactSchema(), &catalog_)
                   .ok());
  // Unknown fact column in ON.
  EXPECT_FALSE(ParseQuery(
                   "SELECT SUM(spend) FROM facts JOIN campaigns ON nope",
                   FactSchema(), &catalog_)
                   .ok());
  // Qualified reference to a non-joined table.
  EXPECT_FALSE(ParseQuery(
                   "SELECT SUM(spend) FROM facts WHERE campaigns.tier = 1",
                   FactSchema(), &catalog_)
                   .ok());
  // Unknown attribute.
  EXPECT_FALSE(ParseQuery(
                   "SELECT SUM(spend) FROM facts JOIN campaigns ON campaign "
                   "WHERE campaigns.nope = 1",
                   FactSchema(), &catalog_)
                   .ok());
  // IN on a joined attribute is unsupported.
  EXPECT_FALSE(ParseQuery(
                   "SELECT SUM(spend) FROM facts JOIN campaigns ON campaign "
                   "WHERE campaigns.tier IN (1, 2)",
                   FactSchema(), &catalog_)
                   .ok());
  // Joined column in SELECT but not grouped.
  EXPECT_FALSE(ParseQuery(
                   "SELECT campaigns.tier, SUM(spend) FROM facts "
                   "JOIN campaigns ON campaign",
                   FactSchema(), &catalog_)
                   .ok());
}

TEST_F(SqlJoinTest, FormatRoundtrip) {
  const char* sql =
      "SELECT campaigns.advertiser, SUM(spend) FROM facts "
      "JOIN campaigns ON campaign WHERE campaigns.tier = 2 "
      "GROUP BY campaigns.advertiser";
  auto q = ParseQuery(sql, FactSchema(), &catalog_);
  ASSERT_TRUE(q.ok());
  std::string rendered = FormatQuery(*q, FactSchema(), &catalog_);
  EXPECT_NE(rendered.find("JOIN campaigns ON campaign"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("campaigns.tier = 2"), std::string::npos);
  auto q2 = ParseQuery(rendered, FactSchema(), &catalog_);
  ASSERT_TRUE(q2.ok()) << rendered << " -> " << q2.status();
  EXPECT_EQ(q2->joins.size(), q->joins.size());
  EXPECT_EQ(q2->join_filters.size(), q->join_filters.size());
  EXPECT_EQ(q2->group_by_joins.size(), q->group_by_joins.size());
}

TEST_F(SqlJoinTest, ParsedJoinExecutes) {
  ReplicatedTable dim = CampaignDim();
  JoinContext join;
  join.tables = {&dim};
  TablePartition part("facts", 0, FactSchema());
  for (uint32_t c = 0; c < 16; ++c) {
    part.Insert(Row{{0, c}, {static_cast<double>(c)}});
  }
  auto q = ParseQuery(
      "SELECT campaigns.advertiser, SUM(spend) FROM facts "
      "JOIN campaigns ON campaign GROUP BY campaigns.advertiser",
      FactSchema(), &catalog_);
  ASSERT_TRUE(q.ok()) << q.status();
  QueryResult result(1);
  ASSERT_TRUE(part.Execute(*q, result, &join).ok());
  EXPECT_EQ(result.num_groups(), 4u);
  // advertiser 0: campaigns 0,4,8 -> 12.
  EXPECT_DOUBLE_EQ(*result.Value({0}, 0, AggOp::kSum), 12.0);
}

// --- end to end through a deployment ---

class DeploymentJoinTest : public ::testing::Test {
 protected:
  DeploymentJoinTest() {
    core::DeploymentOptions options;
    options.seed = 91;
    options.topology.regions = 3;
    options.topology.racks_per_region = 3;
    options.topology.servers_per_rack = 4;
    options.max_shards = 5000;
    options.per_host_failure_probability = 0.0;
    dep_ = std::make_unique<core::Deployment>(options);

    EXPECT_TRUE(dep_->CreateDimensionTable(
                        "campaigns", 16,
                        {Dimension{"advertiser", 4, 1}})
                    .ok());
    std::vector<DimensionEntry> entries;
    for (uint32_t c = 0; c < 12; ++c) {
      entries.push_back(DimensionEntry{c, {c % 4}});
    }
    EXPECT_TRUE(dep_->LoadDimensionEntries("campaigns", entries).ok());

    EXPECT_TRUE(dep_->CreateTable("facts", FactSchema()).ok());
    std::vector<Row> rows;
    for (uint32_t day = 0; day < 32; ++day) {
      for (uint32_t c = 0; c < 16; ++c) {
        rows.push_back(Row{{day, c}, {1.0}});
      }
    }
    EXPECT_TRUE(dep_->LoadRows("facts", rows).ok());
    dep_->RunFor(15 * kSecond);
  }

  std::unique_ptr<core::Deployment> dep_;
};

TEST_F(DeploymentJoinTest, DistributedJoinMatchesReference) {
  Query q;
  q.table = "facts";
  q.joins = {Join{1, "campaigns", 0}};
  q.group_by_joins = {0};
  q.aggregations = {Aggregation{0, AggOp::kCount}};
  auto outcome = dep_->Query(cubrick::QueryRequest(q));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  ASSERT_EQ(outcome.result.num_groups(), 4u);
  // 12 mapped campaigns x 32 days / 4 advertisers = 96 rows each.
  for (uint32_t adv = 0; adv < 4; ++adv) {
    EXPECT_DOUBLE_EQ(*outcome.result.Value({adv}, 0, AggOp::kCount), 96.0);
  }
}

TEST_F(DeploymentJoinTest, JoinAgainstUnknownDimensionTableFails) {
  Query q;
  q.table = "facts";
  q.joins = {Join{1, "ghost", 0}};
  q.aggregations = {Aggregation{0, AggOp::kCount}};
  EXPECT_EQ(dep_->Query(cubrick::QueryRequest(q)).status.code(), StatusCode::kNotFound);

  q.joins = {Join{1, "campaigns", 7}};
  EXPECT_EQ(dep_->Query(cubrick::QueryRequest(q)).status.code(), StatusCode::kInvalidArgument);
}

TEST_F(DeploymentJoinTest, JoinSurvivesFailover) {
  auto shard = dep_->catalog().ShardForPartition("facts", 0);
  cluster::ServerId victim =
      dep_->sm(0).GetAssignment(*shard)->replicas[0].server;
  dep_->cluster().SetHealth(victim, cluster::ServerHealth::kDown);
  dep_->RunFor(2 * kMinute);
  // The failed-over server recovered fact data cross-region and was
  // re-seeded with the dimension replica on restart paths.
  Query q;
  q.table = "facts";
  q.joins = {Join{1, "campaigns", 0}};
  q.group_by_joins = {0};
  q.aggregations = {Aggregation{0, AggOp::kCount}};
  auto outcome = dep_->Query(cubrick::QueryRequest(q, 0));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_DOUBLE_EQ(*outcome.result.Value({0}, 0, AggOp::kCount), 96.0);
}

TEST_F(DeploymentJoinTest, DimensionUpdatesVisibleEverywhere) {
  // Map a previously-unmapped campaign; counts grow accordingly.
  ASSERT_TRUE(dep_->LoadDimensionEntries(
                      "campaigns", {DimensionEntry{12, {0}}})
                  .ok());
  Query q;
  q.table = "facts";
  q.joins = {Join{1, "campaigns", 0}};
  q.group_by_joins = {0};
  q.aggregations = {Aggregation{0, AggOp::kCount}};
  for (cluster::RegionId region = 0; region < 3; ++region) {
    auto outcome = dep_->Query(cubrick::QueryRequest(q, region));
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_DOUBLE_EQ(*outcome.result.Value({0}, 0, AggOp::kCount), 128.0);
  }
}

TEST_F(DeploymentJoinTest, NameCollisionWithCubeTableRejected) {
  EXPECT_EQ(dep_->CreateDimensionTable("facts", 4, {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dep_->CreateTable("campaigns", FactSchema()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dep_->LoadDimensionEntries("ghost", {}).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(dep_->DropDimensionTable("campaigns").ok());
  EXPECT_EQ(dep_->DropDimensionTable("campaigns").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace scalewall::cubrick
