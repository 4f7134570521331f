// Tests of the engine-agnostic profiling & cost-feedback layer
// (src/exec/profile.*): Q-error math, estimate annotation coverage
// (no node leaves the optimizer with the -1 sentinel), EXPLAIN ANALYZE
// rendering in both execution shapes, stability of the pipeline shape
// across thread counts, and — the core differential guarantee — both
// engines reporting identical actual row counts per plan node on the
// LDBC and IMDB workload grids.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/profile.h"
#include "fixtures.h"
#include "workload/harness.h"
#include "workload/imdb.h"
#include "workload/ldbc.h"

namespace relgo {
namespace {

using optimizer::OptimizerMode;

constexpr OptimizerMode kAllModes[] = {
    OptimizerMode::kDuckDB,        OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,     OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,     OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,   OptimizerMode::kRelGoNoFuse,
    OptimizerMode::kRelGoLowOrder, OptimizerMode::kGdbmsSim,
};

/// The oracle engine, pinned explicitly (the default is the pipeline).
exec::ExecutionOptions ReferenceOptions() {
  exec::ExecutionOptions options;
  options.engine = exec::EngineKind::kMaterialize;
  return options;
}

exec::ExecutionOptions PipelineOptions(int threads) {
  exec::ExecutionOptions options;
  options.engine = exec::EngineKind::kPipeline;
  options.num_threads = threads;
  return options;
}

void CollectNodes(const plan::PhysicalOp& op,
                  std::vector<const plan::PhysicalOp*>* out) {
  out->push_back(&op);
  for (const auto& child : op.children) CollectNodes(*child, out);
}

/// Strips the volatile parts of an EXPLAIN ANALYZE rendering (timings,
/// thread counts, the breaker-time and q-error footers), leaving the
/// structural shape.
std::string ShapeOf(const std::string& rendered) {
  std::string out;
  for (size_t i = 0; i < rendered.size();) {
    if (rendered.compare(i, 3, "  [") == 0) {
      size_t close = rendered.find(']', i);
      if (close == std::string::npos) break;
      i = close + 1;
    } else if (rendered.compare(i, 1, "(") == 0 &&
               rendered.compare(i, 9, "(morsels=") == 0) {
      size_t close = rendered.find(')', i);
      if (close == std::string::npos) break;
      i = close + 1;
    } else if (rendered.compare(i, 8, "q-error:") == 0 ||
               rendered.compare(i, 9, "breakers:") == 0 ||
               rendered.compare(i, 11, "scan cache:") == 0 ||
               rendered.compare(i, 11, "plan cache:") == 0) {
      size_t nl = rendered.find('\n', i);
      if (nl == std::string::npos) break;
      i = nl + 1;
    } else {
      out += rendered[i++];
    }
  }
  return out;
}

TEST(QErrorTest, Definition) {
  EXPECT_DOUBLE_EQ(exec::QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(exec::QError(1, 100), 100.0);
  EXPECT_DOUBLE_EQ(exec::QError(100, 1), 100.0);
  // Both sides clamp to one row: empty results stay defined.
  EXPECT_DOUBLE_EQ(exec::QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(exec::QError(0.25, 0), 1.0);
  EXPECT_DOUBLE_EQ(exec::QError(0, 8), 8.0);
  EXPECT_GE(exec::QError(3, 7), 1.0);
}

class Figure2ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  plan::SpjmQuery ExampleQuery() const {
    auto pattern = db_.ParsePattern(
        "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
        "(p1)-[:Knows]->(p2)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("example")
        .Match(std::move(*pattern))
        .Column("p1", "name", "p1_name")
        .Column("p2", "name", "p2_name")
        .Where(storage::Expr::Eq("p1_name", Value::String("Tom")))
        .Select("p2_name")
        .Build();
  }

  plan::SpjmQuery PostOpQuery() const {
    auto pattern = db_.ParsePattern("(p:Person)-[:Likes]->(m:Message)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("postops")
        .Match(std::move(*pattern))
        .Column("p", "name")
        .GroupBy("p.name")
        .Aggregate(plan::AggFunc::kCount, "", "likes")
        .OrderBy("likes", false)
        .Limit(2)
        .Build();
  }

  Database db_;
};

TEST_F(Figure2ProfileTest, NoEstimateSentinelSurvivesAnyMode) {
  for (OptimizerMode mode : kAllModes) {
    auto optimized = db_.Optimize(ExampleQuery(), mode);
    ASSERT_TRUE(optimized.ok()) << optimizer::ModeName(mode);
    std::vector<const plan::PhysicalOp*> nodes;
    CollectNodes(*optimized->plan, &nodes);
    for (const plan::PhysicalOp* node : nodes) {
      EXPECT_GE(node->estimated_cardinality, 0.0)
          << optimizer::ModeName(mode) << ": " << node->Describe();
      EXPECT_GE(node->estimated_cost, 0.0)
          << optimizer::ModeName(mode) << ": " << node->Describe();
    }
  }
}

TEST_F(Figure2ProfileTest, PostOpsInheritChildEstimates) {
  // ORDER BY / LIMIT / aggregate post-ops used to render est=-1 (the
  // sentinel); they must now carry propagated estimates.
  auto optimized = db_.Optimize(PostOpQuery(), OptimizerMode::kRelGo);
  ASSERT_TRUE(optimized.ok());
  std::vector<const plan::PhysicalOp*> nodes;
  CollectNodes(*optimized->plan, &nodes);
  bool saw_order = false, saw_limit = false, saw_agg = false;
  for (const plan::PhysicalOp* node : nodes) {
    EXPECT_GE(node->estimated_cardinality, 0.0) << node->Describe();
    saw_order |= node->kind == plan::OpKind::kOrderBy;
    saw_limit |= node->kind == plan::OpKind::kLimit;
    saw_agg |= node->kind == plan::OpKind::kHashAggregate;
  }
  EXPECT_TRUE(saw_order && saw_limit && saw_agg);
  std::string rendered = plan::PrintPlan(*optimized->plan);
  EXPECT_EQ(rendered.find("est=-1"), std::string::npos) << rendered;
}

TEST_F(Figure2ProfileTest, TreeRenderingCarriesEstimateActualQError) {
  auto analyzed = db_.ExplainAnalyze(ExampleQuery(), OptimizerMode::kRelGo);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("est="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("act="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("q="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("ms]"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("q-error: geomean="), std::string::npos)
      << *analyzed;
  EXPECT_EQ(analyzed->find("est=-1"), std::string::npos) << *analyzed;
}

TEST_F(Figure2ProfileTest, PipelineRenderingHasPipelineShape) {
  auto analyzed = db_.ExplainAnalyze(ExampleQuery(), OptimizerMode::kRelGo,
                                     PipelineOptions(2));
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("PIPELINE #0"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("-> MATERIALIZE"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("morsels="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("est="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("act="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("q="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("q-error: geomean="), std::string::npos)
      << *analyzed;
}

TEST_F(Figure2ProfileTest, PipelineShapeIsStableAcrossRunsAndThreads) {
  auto one = db_.ExplainAnalyze(ExampleQuery(), OptimizerMode::kRelGo,
                                PipelineOptions(1));
  auto again = db_.ExplainAnalyze(ExampleQuery(), OptimizerMode::kRelGo,
                                  PipelineOptions(1));
  auto four = db_.ExplainAnalyze(ExampleQuery(), OptimizerMode::kRelGo,
                                 PipelineOptions(4));
  ASSERT_TRUE(one.ok() && again.ok() && four.ok());
  EXPECT_EQ(ShapeOf(*one), ShapeOf(*again));
  EXPECT_EQ(ShapeOf(*one), ShapeOf(*four));
}

TEST_F(Figure2ProfileTest, TopKSinkReplacesPostOpBreakers) {
  // ORDER BY + LIMIT no longer materialize outside the pipelines: they run
  // as a fused TOP_K sink whose two plan nodes render as sink lines, and
  // the sort time lands in the breaker-time footer.
  auto analyzed = db_.ExplainAnalyze(PostOpQuery(), OptimizerMode::kRelGo,
                                     PipelineOptions(2));
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("HASH_AGGREGATE"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("-> TOP_K"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("sink: ORDER_BY"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("sink: LIMIT"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("breakers: build="), std::string::npos)
      << *analyzed;
  EXPECT_NE(analyzed->find("sort="), std::string::npos) << *analyzed;
  // No materializing post-op path remains.
  EXPECT_EQ(analyzed->find("BREAKER ORDER_BY"), std::string::npos)
      << *analyzed;
  EXPECT_EQ(analyzed->find("BREAKER LIMIT"), std::string::npos) << *analyzed;
}

TEST_F(Figure2ProfileTest, EnginesAgreePerNodeOnFigure2) {
  for (OptimizerMode mode : kAllModes) {
    auto oracle = db_.RunProfiled(ExampleQuery(), mode, ReferenceOptions());
    ASSERT_TRUE(oracle.ok()) << optimizer::ModeName(mode);
    auto piped = db_.RunProfiled(ExampleQuery(), mode, PipelineOptions(4));
    ASSERT_TRUE(piped.ok()) << optimizer::ModeName(mode);
    // Plans are optimizer-deterministic: compare node-by-node through the
    // oracle's plan against the pipeline profile keyed by the piped plan.
    // The two plans are distinct objects, so walk them in lockstep.
    std::vector<const plan::PhysicalOp*> a, b;
    CollectNodes(*oracle->plan, &a);
    CollectNodes(*piped->plan, &b);
    ASSERT_EQ(a.size(), b.size()) << optimizer::ModeName(mode);
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i]->kind, b[i]->kind) << optimizer::ModeName(mode);
      const exec::OperatorProfile* pa = oracle->profile.Find(a[i]);
      const exec::OperatorProfile* pb = piped->profile.Find(b[i]);
      ASSERT_NE(pa, nullptr) << a[i]->Describe();
      uint64_t piped_rows = pb == nullptr ? 0 : pb->rows_out;
      EXPECT_EQ(pa->rows_out, piped_rows)
          << optimizer::ModeName(mode) << ": " << a[i]->Describe();
    }
  }
}

// ---------------------------------------------------------------------------
// Workload grids: the acceptance criterion — EXPLAIN ANALYZE succeeds for
// every LDBC and IMDB query in every optimizer mode on both engines, and
// the engines agree on per-node actual cardinalities.
// ---------------------------------------------------------------------------

void ExpectProfiledGridAgrees(const Database& db,
                              const std::vector<workload::WorkloadQuery>& qs,
                              const std::vector<OptimizerMode>& modes) {
  for (const auto& wq : qs) {
    for (OptimizerMode mode : modes) {
      std::string label = wq.query.name + std::string(" under ") +
                          optimizer::ModeName(mode);
      auto oracle = db.RunProfiled(wq.query, mode, ReferenceOptions());
      ASSERT_TRUE(oracle.ok())
          << label << " (oracle): " << oracle.status().ToString();
      auto piped = db.RunProfiled(wq.query, mode, PipelineOptions(4));
      ASSERT_TRUE(piped.ok())
          << label << " (pipeline): " << piped.status().ToString();

      // Identical actual row counts per plan node (lockstep walk; the
      // optimizer is deterministic so both plans have the same shape).
      std::vector<const plan::PhysicalOp*> a, b;
      CollectNodes(*oracle->plan, &a);
      CollectNodes(*piped->plan, &b);
      ASSERT_EQ(a.size(), b.size()) << label;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i]->kind, b[i]->kind) << label;
        const exec::OperatorProfile* pa = oracle->profile.Find(a[i]);
        const exec::OperatorProfile* pb = piped->profile.Find(b[i]);
        ASSERT_NE(pa, nullptr) << label << ": " << a[i]->Describe();
        uint64_t piped_rows = pb == nullptr ? 0 : pb->rows_out;
        EXPECT_EQ(pa->rows_out, piped_rows)
            << label << ": " << a[i]->Describe();
      }

      // Both renderings succeed and carry the estimate/actual/Q-error
      // annotations with no -1 sentinel.
      std::string tree =
          exec::RenderAnalyzedTree(*oracle->plan, oracle->profile);
      std::string pipes =
          exec::RenderAnalyzedPipelines(*piped->plan, piped->profile);
      EXPECT_NE(tree.find("est="), std::string::npos) << label;
      EXPECT_NE(tree.find("q-error: geomean="), std::string::npos) << label;
      EXPECT_EQ(tree.find("est=-1"), std::string::npos) << label << "\n"
                                                        << tree;
      EXPECT_NE(pipes.find("PIPELINE #0"), std::string::npos)
          << label << "\n"
          << pipes;
      EXPECT_NE(pipes.find("q-error: geomean="), std::string::npos) << label;
      EXPECT_EQ(pipes.find("est=-1"), std::string::npos) << label << "\n"
                                                         << pipes;
    }
  }
}

class LdbcProfileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::LdbcOptions options;
    options.scale_factor = 0.08;  // matches pipeline_parity_test
    ASSERT_TRUE(GenerateLdbc(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* LdbcProfileTest::db_ = nullptr;

TEST_F(LdbcProfileTest, ExplainAnalyzeGridBothEngines) {
  std::vector<OptimizerMode> modes(std::begin(kAllModes),
                                   std::end(kAllModes));
  ExpectProfiledGridAgrees(*db_, workload::LdbcInteractiveQueries(*db_),
                           modes);
  ExpectProfiledGridAgrees(*db_, workload::LdbcRuleQueries(*db_), modes);
  ExpectProfiledGridAgrees(*db_, workload::LdbcCyclicQueries(*db_), modes);
}

TEST_F(LdbcProfileTest, HarnessReportsQError) {
  workload::Harness harness(db_, {}, 1);
  auto queries = workload::LdbcRuleQueries(*db_);
  auto run = harness.Run(queries[0], OptimizerMode::kRelGo);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_GT(run.qerror_ops, 0);
  EXPECT_GE(run.qerror_geomean, 1.0);
  EXPECT_GE(run.qerror_max, run.qerror_geomean);
  auto grid = harness.RunGrid({queries[0]}, {OptimizerMode::kRelGo});
  std::string table = workload::Harness::FormatQErrors(grid);
  EXPECT_NE(table.find("q-error"), std::string::npos);
  EXPECT_NE(table.find("RelGo"), std::string::npos);
}

class ImdbProfileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::ImdbOptions options;
    options.scale_factor = 0.04;  // matches pipeline_parity_test
    ASSERT_TRUE(GenerateImdb(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* ImdbProfileTest::db_ = nullptr;

TEST_F(ImdbProfileTest, ExplainAnalyzeGridBothEngines) {
  // kRelGoNoRule excluded like pipeline_parity_test (legitimate OOM on the
  // unconstrained JOB patterns in BOTH engines); kGdbmsSim excluded for
  // runtime (the naive matcher is the identical code path in both).
  std::vector<OptimizerMode> modes = {
      OptimizerMode::kDuckDB,      OptimizerMode::kGRainDB,
      OptimizerMode::kUmbraLike,   OptimizerMode::kRelGo,
      OptimizerMode::kRelGoHash,   OptimizerMode::kRelGoNoEI,
      OptimizerMode::kRelGoNoFuse, OptimizerMode::kRelGoLowOrder,
  };
  ExpectProfiledGridAgrees(*db_, workload::JobQueries(*db_), modes);
}

}  // namespace
}  // namespace relgo
