#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/naive_matcher.h"
#include "fixtures.h"
#include "optimizer/cardinality.h"
#include "optimizer/glogue.h"
#include "pattern/search_space.h"
#include "pattern/shapes.h"

namespace relgo {
namespace optimizer {
namespace {

using pattern::PatternGraph;
using plan::SpjmQueryBuilder;
using storage::Expr;

/// Builds a random two-label property graph: A-vertices, B-vertices, an
/// A->A edge relation ("aa") and an A->B edge relation ("ab"), with
/// power-law-ish degrees. Used for randomized equivalence testing.
Status BuildRandomDatabase(Database* db, uint64_t seed, int64_t a_count,
                           int64_t b_count, int64_t aa_edges,
                           int64_t ab_edges) {
  using storage::ColumnDef;
  using storage::Schema;
  Rng rng(seed);
  RELGO_ASSIGN_OR_RETURN(
      auto a, db->CreateTable("A", Schema({ColumnDef{"id", LogicalType::kInt64},
                                           {"score", LogicalType::kInt64}})));
  RELGO_ASSIGN_OR_RETURN(
      auto b, db->CreateTable("B", Schema({ColumnDef{"id", LogicalType::kInt64},
                                           {"score", LogicalType::kInt64}})));
  for (int64_t i = 0; i < a_count; ++i) {
    RELGO_RETURN_NOT_OK(
        a->AppendRow({Value::Int(i), Value::Int(rng.Uniform(0, 100))}));
  }
  for (int64_t i = 0; i < b_count; ++i) {
    RELGO_RETURN_NOT_OK(
        b->AppendRow({Value::Int(i), Value::Int(rng.Uniform(0, 100))}));
  }
  RELGO_ASSIGN_OR_RETURN(
      auto aa,
      db->CreateTable("aa", Schema({ColumnDef{"id", LogicalType::kInt64},
                                    {"src", LogicalType::kInt64},
                                    {"dst", LogicalType::kInt64}})));
  for (int64_t i = 0; i < aa_edges; ++i) {
    RELGO_RETURN_NOT_OK(aa->AppendRow(
        {Value::Int(i), Value::Int(rng.Zipf(a_count, 1.0)),
         Value::Int(rng.Uniform(0, a_count - 1))}));
  }
  RELGO_ASSIGN_OR_RETURN(
      auto ab,
      db->CreateTable("ab", Schema({ColumnDef{"id", LogicalType::kInt64},
                                    {"src", LogicalType::kInt64},
                                    {"dst", LogicalType::kInt64}})));
  for (int64_t i = 0; i < ab_edges; ++i) {
    RELGO_RETURN_NOT_OK(ab->AppendRow(
        {Value::Int(i), Value::Int(rng.Zipf(a_count, 1.0)),
         Value::Int(rng.Uniform(0, b_count - 1))}));
  }
  RELGO_RETURN_NOT_OK(db->AddVertexTable("A", "id"));
  RELGO_RETURN_NOT_OK(db->AddVertexTable("B", "id"));
  RELGO_RETURN_NOT_OK(db->AddEdgeTable("aa", "A", "src", "A", "dst"));
  RELGO_RETURN_NOT_OK(db->AddEdgeTable("ab", "A", "src", "B", "dst"));
  return db->Finalize();
}

/// Random connected pattern over the A/aa/ab schema with n_a A-vertices
/// and optionally a B-leaf, plus random extra closing edges.
PatternGraph RandomPattern(Rng* rng, const graph::RgMapping& mapping,
                           int n_a, bool with_b, int extra_edges) {
  PatternGraph p;
  int label_a = mapping.FindVertexLabel("A");
  int label_b = mapping.FindVertexLabel("B");
  int aa = mapping.FindEdgeLabel("aa");
  int ab = mapping.FindEdgeLabel("ab");
  for (int i = 0; i < n_a; ++i) {
    p.AddVertex(label_a, "a" + std::to_string(i));
  }
  // Random spanning tree over the A vertices.
  for (int i = 1; i < n_a; ++i) {
    int other = static_cast<int>(rng->Uniform(0, i - 1));
    if (rng->Chance(0.5)) {
      p.AddEdge(aa, other, i);
    } else {
      p.AddEdge(aa, i, other);
    }
  }
  for (int i = 0; i < extra_edges && n_a >= 2; ++i) {
    int u = static_cast<int>(rng->Uniform(0, n_a - 1));
    int v = static_cast<int>(rng->Uniform(0, n_a - 1));
    if (u == v) continue;
    p.AddEdge(aa, u, v);
  }
  if (with_b) {
    int bv = p.AddVertex(label_b, "b0");
    p.AddEdge(ab, static_cast<int>(rng->Uniform(0, n_a - 1)), bv);
  }
  return p;
}

class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, AllModesMatchNaiveMatcher) {
  uint64_t seed = 1000 + GetParam();
  Database db;
  ASSERT_TRUE(BuildRandomDatabase(&db, seed, 60, 30, 240, 120).ok());
  Rng rng(seed * 31);

  for (int trial = 0; trial < 4; ++trial) {
    int n_a = 2 + static_cast<int>(rng.Uniform(0, 2));
    bool with_b = rng.Chance(0.5);
    int extra = static_cast<int>(rng.Uniform(0, 1));
    PatternGraph p = RandomPattern(&rng, db.mapping(), n_a, with_b, extra);
    if (!p.IsConnectedInduced(p.AllVertices())) continue;
    if (rng.Chance(0.5)) {
      p.AddConstraint("a0",
                      Expr::Compare(storage::CompareOp::kLt,
                                    Expr::Column("score"),
                                    Expr::Constant(Value::Int(50))));
    }
    if (rng.Chance(0.3) && p.num_vertices() >= 2) {
      p.AddDistinctPair(0, 1);
    }

    // Oracle: the naive matcher's bag of vertex bindings.
    exec::ExecutionContext ctx(&db.catalog(), &db.mapping(), &db.index());
    auto oracle = exec::NaiveMatch(p, &ctx);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    // Project to vertex columns only and sort.
    std::vector<std::string> oracle_rows;
    for (uint64_t r = 0; r < (*oracle)->num_rows(); ++r) {
      std::string row;
      for (int v = 0; v < p.num_vertices(); ++v) {
        row += (*oracle)->GetValue(r, v).ToString() + "|";
      }
      oracle_rows.push_back(row);
    }
    std::sort(oracle_rows.begin(), oracle_rows.end());

    // Query projecting every vertex id.
    SpjmQueryBuilder builder("rand");
    builder.Match(p);
    for (int v = 0; v < p.num_vertices(); ++v) {
      builder.Column(p.VertexVarName(v), "id");
      builder.Select(p.VertexVarName(v) + ".id");
    }
    auto query = builder.Build();

    for (auto mode : {OptimizerMode::kDuckDB, OptimizerMode::kGRainDB,
                      OptimizerMode::kRelGo, OptimizerMode::kRelGoHash,
                      OptimizerMode::kRelGoNoEI}) {
      auto result = db.Run(query, mode);
      ASSERT_TRUE(result.ok()) << ModeName(mode) << " on "
                               << p.ToString(&db.mapping()) << ": "
                               << result.status().ToString();
      ASSERT_EQ(result->table->num_rows(), oracle_rows.size())
          << ModeName(mode) << " on " << p.ToString(&db.mapping());
      // Vertex ids equal row ids in this fixture (id column is 0..n-1),
      // so compare full tuples.
      std::vector<std::string> rows;
      for (uint64_t r = 0; r < result->table->num_rows(); ++r) {
        std::string row;
        for (size_t c = 0; c < result->table->num_columns(); ++c) {
          row += result->table->GetValue(r, c).ToString() + "|";
        }
        rows.push_back(row);
      }
      std::sort(rows.begin(), rows.end());
      EXPECT_EQ(rows, oracle_rows)
          << ModeName(mode) << " on " << p.ToString(&db.mapping());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest,
                         ::testing::Range(0, 8));

class GlogueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildRandomDatabase(&db_, 77, 50, 25, 200, 100).ok());
  }
  Database db_;
};

TEST_F(GlogueTest, SingleVertexAndEdgeCountsExact) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph va;
  va.AddVertex(label_a);
  EXPECT_DOUBLE_EQ(db_.glogue().Lookup(va), 50.0);
  PatternGraph ea;
  int s = ea.AddVertex(label_a);
  int t = ea.AddVertex(label_a);
  ea.AddEdge(aa, s, t);
  EXPECT_DOUBLE_EQ(db_.glogue().Lookup(ea), 200.0);
}

TEST_F(GlogueTest, WedgeCountsMatchNaiveMatcher) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  // Out-out wedge at the center.
  PatternGraph wedge;
  int c = wedge.AddVertex(label_a);
  int x = wedge.AddVertex(label_a);
  int y = wedge.AddVertex(label_a);
  wedge.AddEdge(aa, c, x);
  wedge.AddEdge(aa, c, y);
  exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = exec::NaiveMatch(wedge, &ctx);
  ASSERT_TRUE(oracle.ok());
  EXPECT_DOUBLE_EQ(db_.glogue().Lookup(wedge),
                   static_cast<double>((*oracle)->num_rows()));
}

TEST_F(GlogueTest, TriangleEstimateWithinSamplingError) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph tri = pattern::MakeCliquePattern(3, label_a, aa);
  exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = exec::NaiveMatch(tri, &ctx);
  ASSERT_TRUE(oracle.ok());
  double truth = static_cast<double>((*oracle)->num_rows());
  double estimate = db_.glogue().Lookup(tri);
  ASSERT_GE(estimate, 0.0);
  // Sampled with a generous rate on this small graph: within 3x.
  if (truth > 0) {
    EXPECT_GT(estimate, truth / 3.0);
    EXPECT_LT(estimate, truth * 3.0 + 10.0);
  }
}

TEST_F(GlogueTest, LookupRejectsOversizedPatterns) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph path = pattern::MakePathPattern(3, label_a, aa);  // 4 vertices
  EXPECT_LT(db_.glogue().Lookup(path), 0.0);
}

TEST_F(GlogueTest, CardinalityEstimatorUsesPredicates) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph p = pattern::MakePathPattern(1, label_a, aa);
  TableStats stats(&db_.catalog());
  CardinalityEstimator unfiltered(&p, &db_.glogue(), &db_.graph_stats(),
                                  &db_.mapping(), &db_.catalog(), &stats);
  double base = unfiltered.Estimate(p.AllVertices());

  PatternGraph filtered = p;
  filtered.vertex(0).predicate = Expr::Compare(
      storage::CompareOp::kLt, Expr::Column("score"),
      Expr::Constant(Value::Int(10)));
  CardinalityEstimator with_pred(&filtered, &db_.glogue(),
                                 &db_.graph_stats(), &db_.mapping(),
                                 &db_.catalog(), &stats);
  double reduced = with_pred.Estimate(filtered.AllVertices());
  EXPECT_LT(reduced, base * 0.5);
  EXPECT_GT(reduced, 0.0);
}

TEST_F(GlogueTest, HighOrderBeatsLowOrderOnTriangles) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph tri = pattern::MakeCliquePattern(3, label_a, aa);
  exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = exec::NaiveMatch(tri, &ctx);
  ASSERT_TRUE(oracle.ok());
  double truth = std::max(1.0, static_cast<double>((*oracle)->num_rows()));

  TableStats stats(&db_.catalog());
  CardinalityEstimator high(&tri, &db_.glogue(), &db_.graph_stats(),
                            &db_.mapping(), &db_.catalog(), &stats,
                            {true, 1024});
  CardinalityEstimator low(&tri, &db_.glogue(), &db_.graph_stats(),
                           &db_.mapping(), &db_.catalog(), &stats,
                           {false, 1024});
  double err_high =
      std::abs(std::log(high.Estimate(tri.AllVertices()) / truth));
  double err_low =
      std::abs(std::log(low.Estimate(tri.AllVertices()) / truth));
  EXPECT_LE(err_high, err_low + 1e-9);
}

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }
  Database db_;
};

TEST_F(StatsTest, DistinctCountsExact) {
  TableStats stats(&db_.catalog());
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Person", "person_id"), 3.0);
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Likes", "pid"), 3.0);
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Likes", "mid"), 2.0);
  EXPECT_DOUBLE_EQ(stats.Cardinality("Knows"), 4.0);
  EXPECT_DOUBLE_EQ(stats.Cardinality("Ghost"), 0.0);
}

// The distinct-count cache follows the table, not its name: a re-created
// table is counted afresh, and so is one that grew past a drift bucket.
TEST_F(StatsTest, DistinctCountFollowsRecreationAndGrowth) {
  TableStats stats(&db_.catalog());
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Place", "id"), 3.0);

  auto old = db_.catalog().GetTable("Place");
  ASSERT_TRUE(old.ok());
  ASSERT_TRUE(db_.catalog().DropTable("Place").ok());
  auto fresh = db_.CreateTable("Place", (*old)->schema());
  ASSERT_TRUE(fresh.ok());
  for (int64_t id : {7, 7}) {
    ASSERT_TRUE(
        (*fresh)->AppendRow({Value::Int(id), Value::String("Nowhere")}).ok());
  }
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Place", "id"), 1.0)
      << "a re-created table must not inherit its predecessor's count";

  ASSERT_NE(optimizer::DriftBucket(2), optimizer::DriftBucket(22));
  for (int64_t id = 100; id < 120; ++id) {
    ASSERT_TRUE(
        (*fresh)->AppendRow({Value::Int(id), Value::String("Nowhere")}).ok());
  }
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Place", "id"), 21.0)
      << "growth past a drift bucket recounts";
}

TEST_F(StatsTest, HeuristicVsSampledSelectivity) {
  TableStats stats(&db_.catalog());
  auto person = *db_.catalog().GetTable("Person");
  auto pred = Expr::Eq("name", Value::String("Tom"));
  double sampled = stats.SampledSelectivity(*person, pred, 16);
  // Exactly one of three rows matches.
  EXPECT_NEAR(sampled, 1.0 / 3.0, 0.15);
  double heuristic = stats.HeuristicSelectivity(*person, pred);
  EXPECT_GT(heuristic, 0.0);
  EXPECT_LE(heuristic, 1.0);
}

TEST_F(StatsTest, GraphOptimizerHonorsNeededEdges) {
  auto pattern = db_.ParsePattern(
      "(p:Person)-[l:Likes]->(m:Message)");
  ASSERT_TRUE(pattern.ok());
  TableStats stats(&db_.catalog());
  GraphOptimizer optimizer(&db_.mapping(), &db_.catalog(),
                           &db_.graph_stats(), &db_.glogue(), &stats);
  // With the edge needed, the plan must keep an edge binding (no fused
  // EXPAND without edge var).
  auto with_edge = optimizer.Optimize(*pattern, {0}, {});
  ASSERT_TRUE(with_edge.ok());
  std::string plan_str = plan::PrintPlan(*with_edge->root);
  EXPECT_NE(plan_str.find("[l]"), std::string::npos) << plan_str;
  // Without, the fused EXPAND drops it.
  auto without = optimizer.Optimize(*pattern, {}, {});
  ASSERT_TRUE(without.ok());
  std::string fused = plan::PrintPlan(*without->root);
  EXPECT_EQ(fused.find("[l]"), std::string::npos) << fused;
}

TEST_F(StatsTest, GraphOptimizerRejectsDisconnected) {
  pattern::PatternGraph p;
  int person = db_.mapping().FindVertexLabel("Person");
  p.AddVertex(person, "x");
  p.AddVertex(person, "y");  // no edge: disconnected
  TableStats stats(&db_.catalog());
  GraphOptimizer optimizer(&db_.mapping(), &db_.catalog(),
                           &db_.graph_stats(), &db_.glogue(), &stats);
  EXPECT_FALSE(optimizer.Optimize(p, {}, {}).ok());
}

TEST_F(StatsTest, FlattenPatternProducesLemma1Relations) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  auto query = SpjmQueryBuilder("flat").Match(*pattern).Build();
  TableStats stats(&db_.catalog());
  RelationalOptimizer ropt(&db_.catalog(), &db_.mapping(), &stats);
  std::vector<RelNode> nodes;
  std::vector<JoinEdgeSpec> edges;
  std::vector<storage::ExprPtr> conjuncts;
  ASSERT_TRUE(ropt.FlattenPattern(query, &nodes, &edges, &conjuncts).ok());
  // Lemma 1: n = 3 vertex relations + m = 3 edge relations.
  EXPECT_EQ(nodes.size(), 6u);
  // Each edge relation contributes two EVJoins.
  EXPECT_EQ(edges.size(), 6u);
  for (const auto& e : edges) {
    EXPECT_GE(e.edge_label, 0);  // all are EVJoins, rid-join eligible
  }
}

}  // namespace
}  // namespace optimizer
}  // namespace relgo
