#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "exec/executor.h"
#include "exec/pipeline/batch.h"
#include "exec/pipeline/engine.h"
#include "exec/pipeline/scheduler.h"
#include "fixtures.h"

namespace relgo {
namespace {

using exec::ExecutionContext;
using exec::ExecutionOptions;
using exec::Executor;
using exec::pipeline::Batch;
using exec::pipeline::TaskScheduler;
using storage::Column;
using storage::Expr;

// ---------------------------------------------------------------------------
// Column slicing / appending primitives
// ---------------------------------------------------------------------------

TEST(ColumnSliceTest, SliceCopiesRange) {
  Column col(LogicalType::kInt64);
  for (int64_t i = 0; i < 10; ++i) col.AppendInt(i * 7);
  Column slice = col.Slice(3, 4);
  ASSERT_EQ(slice.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(slice.int_at(i), (i + 3) * 7);
}

TEST(ColumnSliceTest, AppendRangePreservesNulls) {
  Column col(LogicalType::kString);
  ASSERT_TRUE(col.AppendValue(Value::String("a")).ok());
  ASSERT_TRUE(col.AppendValue(Value::Null()).ok());
  ASSERT_TRUE(col.AppendValue(Value::String("c")).ok());
  Column out(LogicalType::kString);
  ASSERT_TRUE(out.AppendValue(Value::String("x")).ok());
  out.AppendRange(col, 0, 3);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out.is_valid(0));
  EXPECT_TRUE(out.is_valid(1));
  EXPECT_FALSE(out.is_valid(2));
  EXPECT_EQ(out.string_at(3), "c");
}

TEST(ColumnSliceTest, SliceIntoEmptyColumnKeepsNulls) {
  // Slicing builds a fresh column; the range's NULLs must survive even
  // though the target starts in the all-valid (empty validity) state.
  Column col(LogicalType::kInt64);
  col.AppendNull();
  col.AppendInt(0);
  Column slice = col.Slice(0, 2);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_FALSE(slice.is_valid(0));
  EXPECT_TRUE(slice.is_valid(1));
  Batch batch;
  batch.AddOwned(std::move(col));
  batch.SetNumRows(2);
  EXPECT_FALSE(batch.Slice(0, 1).column(0).is_valid(0));
}

TEST(BatchTest, SliceTableWholeRangeIsZeroCopy) {
  auto table = std::make_shared<storage::Table>(
      "t", storage::Schema({{"x", LogicalType::kInt64}}));
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(table->AppendRow({Value::Int(i)}).ok());
  }
  Batch whole = exec::pipeline::SliceTable(table, 0, 5);
  EXPECT_EQ(&whole.column(0), &table->column(0));  // shared, not copied
  Batch part = exec::pipeline::SliceTable(table, 1, 3);
  EXPECT_NE(&part.column(0), &table->column(0));
  ASSERT_EQ(part.num_rows(), 3u);
  EXPECT_EQ(part.column(0).int_at(0), 1);
}

// ---------------------------------------------------------------------------
// TaskScheduler
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, RunsEveryMorselExactlyOnce) {
  for (int threads : {1, 4}) {
    TaskScheduler scheduler;
    constexpr uint64_t kMorsels = 1000;
    std::vector<std::atomic<int>> seen(kMorsels);
    int workers_used = 0;
    Status st = scheduler.Run(
        kMorsels, threads,
        [&](int slot, uint64_t m) {
          EXPECT_GE(slot, 0);
          EXPECT_LT(slot, threads);
          seen[m].fetch_add(1);
          return Status::OK();
        },
        &workers_used);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(workers_used, threads);
    for (uint64_t m = 0; m < kMorsels; ++m) EXPECT_EQ(seen[m].load(), 1);
  }
}

TEST(TaskSchedulerTest, PropagatesFirstErrorAndStops) {
  for (int threads : {1, 4}) {
    TaskScheduler scheduler;
    std::atomic<int> ran{0};
    Status st =
        scheduler.Run(100000, threads, [&](int, uint64_t m) -> Status {
          ran.fetch_add(1);
          if (m == 17) return Status::OutOfMemory("boom");
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
    // Abandoned well before the full morsel count.
    EXPECT_LT(ran.load(), 100000) << "threads=" << threads;
  }
}

TEST(TaskSchedulerTest, ReusableAcrossJobs) {
  TaskScheduler scheduler;
  for (int job = 0; job < 5; ++job) {
    std::atomic<uint64_t> sum{0};
    ASSERT_TRUE(scheduler
                    .Run(50, 3,
                         [&](int, uint64_t m) {
                           sum.fetch_add(m);
                           return Status::OK();
                         })
                    .ok());
    EXPECT_EQ(sum.load(), 49u * 50u / 2);
  }
}

TEST(TaskSchedulerTest, ConcurrentJobsFromManySubmitters) {
  // The shared-pool contract: any number of threads may submit jobs
  // concurrently; each job's morsels all run, errors stay with their job.
  TaskScheduler scheduler;
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 8;
  constexpr uint64_t kMorsels = 64;
  std::vector<std::thread> submitters;
  std::atomic<int> ok_jobs{0}, failed_jobs{0};
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        std::atomic<uint64_t> sum{0};
        bool fail = (s + j) % 3 == 0;
        Status st = scheduler.Run(kMorsels, 4, [&](int, uint64_t m) {
          if (fail && m == 9) return Status::Timeout("job-local");
          sum.fetch_add(m);
          return Status::OK();
        });
        if (fail) {
          if (st.code() == StatusCode::kTimeout) failed_jobs.fetch_add(1);
        } else if (st.ok() && sum.load() == kMorsels * (kMorsels - 1) / 2) {
          ok_jobs.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  int expected_failures = 0;
  for (int s = 0; s < kSubmitters; ++s) {
    for (int j = 0; j < kJobsEach; ++j) {
      if ((s + j) % 3 == 0) ++expected_failures;
    }
  }
  EXPECT_EQ(failed_jobs.load(), expected_failures);
  EXPECT_EQ(ok_jobs.load(), kSubmitters * kJobsEach - expected_failures);
}

// ---------------------------------------------------------------------------
// Engine parity on hand-built plans (Figure 2 database)
// ---------------------------------------------------------------------------

class PipelineEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  int Label(const char* name, bool edge = false) {
    return edge ? db_.mapping().FindEdgeLabel(name)
                : db_.mapping().FindVertexLabel(name);
  }

  /// Runs `op` through the materializing oracle and the pipeline engine
  /// (1 and 3 threads) and asserts identical sorted rows and schemas.
  void ExpectParity(const plan::PhysicalOp& op) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto expected = Executor::Run(op, &oracle_ctx);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (int threads : {1, 3}) {
      ExecutionOptions options;
      options.engine = exec::EngineKind::kPipeline;
      options.num_threads = threads;
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                           options);
      auto actual = exec::pipeline::Run(op, &ctx);
      ASSERT_TRUE(actual.ok())
          << "threads=" << threads << ": " << actual.status().ToString();
      EXPECT_EQ(testing::SortedRows(**actual),
                testing::SortedRows(**expected))
          << "threads=" << threads;
      ASSERT_EQ((*actual)->schema().num_columns(),
                (*expected)->schema().num_columns());
      for (size_t c = 0; c < (*expected)->schema().num_columns(); ++c) {
        EXPECT_EQ((*actual)->schema().column(c).name,
                  (*expected)->schema().column(c).name);
      }
      EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced())
          << "row-budget charging diverged";
    }
  }

  Database db_;
};

TEST_F(PipelineEngineTest, ScanTableWithFilter) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  scan.filter = Expr::Eq("name", Value::String("Bob"));
  scan.emit_rowid = true;
  ExpectParity(scan);
}

TEST_F(PipelineEngineTest, ExpandChain) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  auto hop1 = std::make_unique<plan::PhysExpand>();
  hop1->edge_label = Label("Knows", true);
  hop1->dir = graph::Direction::kOut;
  hop1->from_var = "p1";
  hop1->to_var = "p2";
  hop1->children.push_back(std::move(scan));
  plan::PhysNotEqual ne;
  ne.var_a = "p1";
  ne.var_b = "p2";
  ne.children.push_back(std::move(hop1));
  ExpectParity(ne);
}

TEST_F(PipelineEngineTest, ExpandHashFallback) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p";
  plan::PhysExpand expand;
  expand.edge_label = Label("Knows", true);
  expand.dir = graph::Direction::kIn;
  expand.from_var = "p";
  expand.to_var = "q";
  expand.edge_var = "k";
  expand.use_index = false;
  expand.children.push_back(std::move(scan));
  ExpectParity(expand);
}

TEST_F(PipelineEngineTest, ExpandIntersect) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  auto knows = std::make_unique<plan::PhysExpand>();
  knows->edge_label = Label("Knows", true);
  knows->dir = graph::Direction::kOut;
  knows->from_var = "p1";
  knows->to_var = "p2";
  knows->children.push_back(std::move(scan));
  plan::PhysExpandIntersect ei;
  ei.edge_labels = {Label("Likes", true), Label("Likes", true)};
  ei.dirs = {graph::Direction::kOut, graph::Direction::kOut};
  ei.from_vars = {"p1", "p2"};
  ei.edge_vars = {"", ""};
  ei.to_var = "m";
  ei.children.push_back(std::move(knows));
  ExpectParity(ei);
}

TEST_F(PipelineEngineTest, EdgeVerifyBothModes) {
  for (bool use_index : {true, false}) {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = Label("Person");
    scan->var = "p1";
    auto likes = std::make_unique<plan::PhysExpand>();
    likes->edge_label = Label("Likes", true);
    likes->dir = graph::Direction::kOut;
    likes->from_var = "p1";
    likes->to_var = "m";
    likes->children.push_back(std::move(scan));
    auto colikes = std::make_unique<plan::PhysExpand>();
    colikes->edge_label = Label("Likes", true);
    colikes->dir = graph::Direction::kIn;
    colikes->from_var = "m";
    colikes->to_var = "p2";
    colikes->children.push_back(std::move(likes));
    plan::PhysEdgeVerify verify;
    verify.edge_label = Label("Knows", true);
    verify.dir = graph::Direction::kOut;
    verify.src_var = "p1";
    verify.dst_var = "p2";
    verify.use_index = use_index;
    verify.children.push_back(std::move(colikes));
    ExpectParity(verify);
  }
}

TEST_F(PipelineEngineTest, PatternJoinSharedVars) {
  auto left_scan = std::make_unique<plan::PhysScanVertex>();
  left_scan->vertex_label = Label("Person");
  left_scan->var = "p1";
  auto left = std::make_unique<plan::PhysExpand>();
  left->edge_label = Label("Knows", true);
  left->dir = graph::Direction::kOut;
  left->from_var = "p1";
  left->to_var = "p2";
  left->children.push_back(std::move(left_scan));

  auto right_scan = std::make_unique<plan::PhysScanVertex>();
  right_scan->vertex_label = Label("Person");
  right_scan->var = "p2";
  auto right = std::make_unique<plan::PhysExpand>();
  right->edge_label = Label("Likes", true);
  right->dir = graph::Direction::kOut;
  right->from_var = "p2";
  right->to_var = "m";
  right->children.push_back(std::move(right_scan));

  plan::PhysPatternJoin join;
  join.common_vars = {"p2"};
  join.children.push_back(std::move(left));
  join.children.push_back(std::move(right));
  ExpectParity(join);
}

TEST_F(PipelineEngineTest, HashJoinProjectFilter) {
  auto person = std::make_unique<plan::PhysScanTable>();
  person->table = "Person";
  person->alias = "p";
  auto place = std::make_unique<plan::PhysScanTable>();
  place->table = "Place";
  place->alias = "pl";
  auto join = std::make_unique<plan::PhysHashJoin>();
  join->left_keys = {"p.place_id"};
  join->right_keys = {"pl.id"};
  join->children.push_back(std::move(person));
  join->children.push_back(std::move(place));
  auto filter = std::make_unique<plan::PhysFilter>();
  filter->predicate = Expr::StartsWith(Expr::Column("pl.name"), "D");
  filter->children.push_back(std::move(join));
  plan::PhysProject project;
  project.columns = {{"p.name", "person"}, {"pl.name", "country"}};
  project.children.push_back(std::move(filter));
  ExpectParity(project);
}

TEST_F(PipelineEngineTest, AggregateOrderByLimit) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Likes";
  scan->alias = "l";
  auto agg = std::make_unique<plan::PhysHashAggregate>();
  agg->group_by = {"l.pid"};
  agg->aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                     {plan::AggFunc::kMax, "l.date", "latest"}};
  agg->children.push_back(std::move(scan));
  auto order = std::make_unique<plan::PhysOrderBy>();
  order->keys = {{"cnt", false}, {"l.pid", true}};
  order->children.push_back(std::move(agg));
  plan::PhysLimit limit;
  limit.limit = 2;
  limit.children.push_back(std::move(order));
  ExpectParity(limit);
}

TEST_F(PipelineEngineTest, GlobalAggregateOverEmptyInput) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Person";
  scan->alias = "p";
  scan->filter = Expr::Eq("name", Value::String("Nobody"));
  plan::PhysHashAggregate agg;
  agg.aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                    {plan::AggFunc::kMin, "p.name", "first_name"}};
  agg.children.push_back(std::move(scan));
  ExpectParity(agg);
}

TEST_F(PipelineEngineTest, OrderByLimitTieBreakingIsDeterministic) {
  // Likes.pid holds duplicates, so ORDER BY pid LIMIT 2 has a tie at the
  // cut: the selected rows must not depend on the worker count (sinks
  // merge in morsel order) and must match the materializing oracle, whose
  // sequential row order the morsel order reproduces.
  auto make_plan = []() {
    auto scan = std::make_unique<plan::PhysScanTable>();
    scan->table = "Likes";
    scan->alias = "l";
    auto order = std::make_unique<plan::PhysOrderBy>();
    order->keys = {{"l.pid", true}};
    order->children.push_back(std::move(scan));
    auto limit = std::make_unique<plan::PhysLimit>();
    limit->limit = 2;
    limit->children.push_back(std::move(order));
    return limit;
  };
  auto plan = make_plan();
  auto rows_in_order = [](const storage::Table& t) {
    std::vector<std::string> rows;
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        if (c) row += "|";
        row += t.GetValue(r, c).ToString();
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };
  ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = Executor::Run(*plan, &oracle_ctx);
  ASSERT_TRUE(oracle.ok());
  for (int threads : {1, 2, 4}) {
    ExecutionOptions options;
    options.engine = exec::EngineKind::kPipeline;
    options.num_threads = threads;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto result = exec::pipeline::Run(*plan, &ctx);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(rows_in_order(**result), rows_in_order(**oracle))
        << "threads=" << threads;
  }
}

TEST_F(PipelineEngineTest, RowBudgetTriggersOutOfMemory) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  plan::PhysExpand expand;
  expand.edge_label = Label("Knows", true);
  expand.dir = graph::Direction::kOut;
  expand.from_var = "p1";
  expand.to_var = "p2";
  expand.children.push_back(std::move(scan));
  for (int threads : {1, 3}) {
    ExecutionOptions options;
    options.engine = exec::EngineKind::kPipeline;
    options.num_threads = threads;
    options.max_total_rows = 3;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto result = exec::pipeline::Run(expand, &ctx);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
  }
}

TEST_F(PipelineEngineTest, TimeoutTriggers) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  ExecutionOptions options;
  options.engine = exec::EngineKind::kPipeline;
  options.num_threads = 2;
  options.timeout_ms = 0.0;
  ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(), options);
  auto result = exec::pipeline::Run(scan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(PipelineEngineTest, DatabaseExecuteDispatchesOnEngineKind) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  auto query = plan::SpjmQueryBuilder("triangle")
                   .Match(*pattern)
                   .Column("p1", "name", "a")
                   .Column("p2", "name", "b")
                   .Build();
  ExecutionOptions reference;
  reference.engine = exec::EngineKind::kMaterialize;
  auto oracle = db_.Run(query, optimizer::OptimizerMode::kRelGo, reference);
  ASSERT_TRUE(oracle.ok());
  ExecutionOptions options;
  options.engine = exec::EngineKind::kPipeline;
  options.num_threads = 2;
  auto piped = db_.Run(query, optimizer::OptimizerMode::kRelGo, options);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  EXPECT_EQ(testing::SortedRows(*piped->table),
            testing::SortedRows(*oracle->table));
}

TEST(NullJoinKeyTest, NullKeysNeverMatchInEitherEngine) {
  // SQL semantics in both engines: a NULL key matches nothing — not
  // another NULL, and not the 0 / "" its payload slot holds.
  Database db;
  storage::Schema schema({{"id", LogicalType::kInt64},
                          {"k", LogicalType::kInt64},
                          {"s", LogicalType::kString}});
  auto left = db.CreateTable("L", schema);
  auto right = db.CreateTable("R", schema);
  ASSERT_TRUE(left.ok() && right.ok());
  Value null = Value::Null();
  std::vector<std::vector<Value>> left_rows = {
      {Value::Int(1), null, null},
      {Value::Int(2), Value::Int(0), Value::String("")},
      {Value::Int(3), Value::Int(5), Value::String("x")},
      {Value::Int(4), null, Value::String("x")},
      {Value::Int(5), Value::Int(0), null}};
  std::vector<std::vector<Value>> right_rows = {
      {Value::Int(10), null, null},
      {Value::Int(11), Value::Int(0), Value::String("")},
      {Value::Int(12), Value::Int(5), Value::String("x")},
      {Value::Int(13), Value::Int(0), Value::String("")},
      {Value::Int(14), null, Value::String("")}};
  for (const auto& row : left_rows) ASSERT_TRUE((*left)->AppendRow(row).ok());
  for (const auto& row : right_rows) {
    ASSERT_TRUE((*right)->AppendRow(row).ok());
  }
  ASSERT_TRUE(db.Finalize().ok());  // string keys join by dictionary code

  struct Case {
    std::vector<std::string> left_keys, right_keys;
    uint64_t rows;
  };
  const Case cases[] = {
      {{"l.k"}, {"r.k"}, 5},                // 0 x {11, 13} twice, 5 x 12
      {{"l.s"}, {"r.s"}, 5},                // "" x {11, 13, 14}, "x" x 12 twice
      {{"l.k", "l.s"}, {"r.k", "r.s"}, 3},  // (0,"") x {11, 13}, (5,"x") x 12
  };
  for (const Case& c : cases) {
    auto scan_l = std::make_unique<plan::PhysScanTable>();
    scan_l->table = "L";
    scan_l->alias = "l";
    auto scan_r = std::make_unique<plan::PhysScanTable>();
    scan_r->table = "R";
    scan_r->alias = "r";
    plan::PhysHashJoin join;
    join.left_keys = c.left_keys;
    join.right_keys = c.right_keys;
    join.children.push_back(std::move(scan_l));
    join.children.push_back(std::move(scan_r));

    ExecutionContext oracle_ctx(&db.catalog(), &db.mapping(), &db.index());
    auto expected = Executor::Run(join, &oracle_ctx);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ((*expected)->num_rows(), c.rows) << c.left_keys[0];
    for (int threads : {1, 2}) {
      ExecutionOptions options;
      options.engine = exec::EngineKind::kPipeline;
      options.num_threads = threads;
      ExecutionContext ctx(&db.catalog(), &db.mapping(), &db.index(),
                           options);
      auto actual = exec::pipeline::Run(join, &ctx);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(testing::SortedRows(**actual),
                testing::SortedRows(**expected))
          << c.left_keys[0] << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace relgo
