// Tests of fan-out re-morselization: operator outputs over kBatchRows rows
// are cut into kBatchRows-row chunks that any worker may run. The graph is
// built so that a single-morsel source (300 persons) expands to more than
// 2 * 4 * kBatchRows rows, so every chunked pipeline escalates to the
// pool at 4 threads. The materializing executor is the oracle, and parity
// is asserted on EXACT row order at 1/2/4 threads: the (morsel, chunk
// path) sequence order must reproduce the sequential order.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/executor.h"
#include "exec/pipeline/engine.h"
#include "exec/pipeline/pipeline.h"
#include "fixtures.h"
#include "obs/metrics.h"

namespace relgo {
namespace {

using exec::ExecutionContext;
using exec::ExecutionOptions;
using exec::Executor;
using exec::QueryProfile;
using exec::pipeline::Batch;
using exec::pipeline::kBatchRows;
using storage::ColumnDef;
using storage::Schema;

std::vector<std::string> RowsInOrder(const storage::Table& t) {
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
}

/// Passes batches through unchanged and sets a cancel token on its
/// `cancel_at`-th call: a deterministic stand-in for Database::CancelQuery
/// arriving while a fan-out pipeline runs.
class CancelAfterOp : public exec::pipeline::StreamingOp {
 public:
  CancelAfterOp(std::atomic<bool>* token, int cancel_at)
      : token_(token), cancel_at_(cancel_at) {}
  Status Prepare(const Schema& input, ExecutionContext* ctx) override {
    (void)ctx;
    output_schema_ = input;
    return Status::OK();
  }
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override {
    (void)ctx;
    if (calls_.fetch_add(1) + 1 == cancel_at_) token_->store(true);
    *out = in;
    return Status::OK();
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<bool>* token_;
  int cancel_at_;
  mutable std::atomic<int> calls_{0};
};

class FanoutTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPersons = 300;  // one source morsel
  static constexpr int64_t kDegree = 12;    // 2 hops: 43,200 rows
  static constexpr int64_t kTagsEach = 8;

  void SetUp() override {
    auto person = db_.CreateTable(
        "Person", Schema({ColumnDef{"id", LogicalType::kInt64},
                          ColumnDef{"grp", LogicalType::kInt64}}));
    auto knows = db_.CreateTable(
        "Knows", Schema({ColumnDef{"kid", LogicalType::kInt64},
                         ColumnDef{"src", LogicalType::kInt64},
                         ColumnDef{"dst", LogicalType::kInt64}}));
    auto tag = db_.CreateTable(
        "Tag", Schema({ColumnDef{"pid", LogicalType::kInt64},
                       ColumnDef{"tag", LogicalType::kInt64}}));
    ASSERT_TRUE(person.ok() && knows.ok() && tag.ok());
    int64_t kid = 0;
    for (int64_t p = 0; p < kPersons; ++p) {
      ASSERT_TRUE(
          (*person)->AppendRow({Value::Int(p), Value::Int(p % 5)}).ok());
      for (int64_t j = 0; j < kDegree; ++j) {
        int64_t dst = (p * 7 + j * 13 + 1) % kPersons;
        ASSERT_TRUE((*knows)
                        ->AppendRow({Value::Int(kid++), Value::Int(p),
                                     Value::Int(dst)})
                        .ok());
      }
      for (int64_t t = 0; t < kTagsEach; ++t) {
        ASSERT_TRUE(
            (*tag)->AppendRow({Value::Int(p), Value::Int((p + t) % 4)}).ok());
      }
    }
    ASSERT_TRUE(db_.AddVertexTable("Person", "id").ok());
    ASSERT_TRUE(
        db_.AddEdgeTable("Knows", "Person", "src", "Person", "dst").ok());
    ASSERT_TRUE(db_.Finalize().ok());
  }

  ExecutionContext Context(int threads) {
    ExecutionOptions options;
    options.engine = exec::EngineKind::kPipeline;
    options.num_threads = threads;
    return ExecutionContext(&db_.catalog(), &db_.mapping(), &db_.index(),
                            options);
  }

  /// Persons expanded over Knows: a -> b (1 hop) or a -> b -> c (2 hops).
  plan::PhysicalOpPtr Hops(int hops) const {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = db_.mapping().FindVertexLabel("Person");
    scan->var = "a";
    plan::PhysicalOpPtr cur = std::move(scan);
    const char* vars[] = {"a", "b", "c"};
    for (int h = 0; h < hops; ++h) {
      auto expand = std::make_unique<plan::PhysExpand>();
      expand->edge_label = db_.mapping().FindEdgeLabel("Knows");
      expand->dir = graph::Direction::kOut;
      expand->from_var = vars[h];
      expand->to_var = vars[h + 1];
      expand->children.push_back(std::move(cur));
      cur = std::move(expand);
    }
    return cur;
  }

  /// Hash join of `probe` on `probe_key` against Tag (8 rows per key).
  static plan::PhysicalOpPtr JoinTags(plan::PhysicalOpPtr probe,
                                      const std::string& probe_key) {
    auto tags = std::make_unique<plan::PhysScanTable>();
    tags->table = "Tag";
    tags->alias = "t";
    auto join = std::make_unique<plan::PhysHashJoin>();
    join->left_keys = {probe_key};
    join->right_keys = {"t.pid"};
    join->children.push_back(std::move(probe));
    join->children.push_back(std::move(tags));
    return join;
  }

  static plan::PhysicalOpPtr OrderBy(plan::PhysicalOpPtr child,
                                     std::vector<plan::SortKey> keys) {
    auto order = std::make_unique<plan::PhysOrderBy>();
    order->keys = std::move(keys);
    order->children.push_back(std::move(child));
    return order;
  }

  static plan::PhysicalOpPtr Limit(plan::PhysicalOpPtr child, int64_t k) {
    auto limit = std::make_unique<plan::PhysLimit>();
    limit->limit = k;
    limit->children.push_back(std::move(child));
    return limit;
  }

  /// Oracle run + pipeline runs at 1/2/4 threads, asserting exact order.
  void ExpectExactOrder(const plan::PhysicalOp& op) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto oracle = Executor::Run(op, &oracle_ctx);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_GT((*oracle)->num_rows(), 0u);
    for (int threads : {1, 2, 4}) {
      ExecutionContext ctx = Context(threads);
      auto piped = exec::pipeline::Run(op, &ctx);
      ASSERT_TRUE(piped.ok())
          << "threads=" << threads << ": " << piped.status().ToString();
      EXPECT_EQ(RowsInOrder(**piped), RowsInOrder(**oracle))
          << "threads=" << threads;
    }
  }

  /// The profiled shape of `op` at `threads`: the pipeline that split
  /// chunks off (the test plans have exactly one).
  exec::PipelineTrace ChunkedPipeline(const plan::PhysicalOp& op,
                                      int threads) {
    ExecutionContext ctx = Context(threads);
    QueryProfile profile;
    ctx.EnableProfiling(&profile);
    auto result = exec::pipeline::Run(op, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    exec::PipelineTrace chunked;
    for (const exec::PipelineTrace& trace : profile.pipelines()) {
      if (trace.chunks > 0) chunked = trace;
    }
    return chunked;
  }

  Database db_;
};

TEST_F(FanoutTest, GraphFansOutPastThePoolCutoff) {
  ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto two_hops = Executor::Run(*Hops(2), &ctx);
  ASSERT_TRUE(two_hops.ok());
  EXPECT_LT(static_cast<uint64_t>(kPersons), kBatchRows);
  EXPECT_GT((*two_hops)->num_rows(), 2 * 4 * kBatchRows);
}

TEST_F(FanoutTest, BareMaterializeKeepsSequentialOrder) {
  ExpectExactOrder(*Hops(2));
}

TEST_F(FanoutTest, TopKWithHeavyTiesKeepsSequentialOrder) {
  // 300 distinct c values over 43,200 rows: the cut at k = 500 lands
  // inside a run of ~144 ties, broken by (morsel, chunk path, row).
  ExpectExactOrder(*Limit(OrderBy(Hops(2), {{"c", true}}), 500));
  ExpectExactOrder(
      *Limit(OrderBy(Hops(2), {{"c", false}, {"a", true}}), 77));
}

TEST_F(FanoutTest, PlainLimitKeepsSequentialPrefix) {
  ExpectExactOrder(*Limit(Hops(2), 5000));
  // Two source morsels of Knows, each probing into 8 tags per row: the
  // early-exit frontier must wait for every chunk of morsel 0.
  auto knows = std::make_unique<plan::PhysScanTable>();
  knows->table = "Knows";
  knows->alias = "k";
  ExpectExactOrder(*Limit(JoinTags(std::move(knows), "k.dst"), 3000));
}

TEST_F(FanoutTest, OrderByWithoutLimitKeepsSequentialOrder) {
  ExpectExactOrder(*OrderBy(Hops(2), {{"c", false}}));
}

TEST_F(FanoutTest, GroupByKeepsFirstSeenOrder) {
  auto agg = std::make_unique<plan::PhysHashAggregate>();
  agg->group_by = {"c"};
  agg->aggregates = {{plan::AggFunc::kCount, "", "n"},
                     {plan::AggFunc::kMin, "b", "min_b"},
                     {plan::AggFunc::kSum, "a", "sum_a"}};
  agg->children.push_back(Hops(2));
  ExpectExactOrder(*agg);
}

TEST_F(FanoutTest, HashProbeFanOutKeepsSequentialOrder) {
  ExpectExactOrder(*JoinTags(Hops(1), "b"));
}

TEST_F(FanoutTest, OneMorselFansOutOverEveryWorker) {
  auto plan = Hops(2);
  exec::PipelineTrace wide = ChunkedPipeline(*plan, 4);
  EXPECT_EQ(wide.morsels, 1u);
  EXPECT_GT(wide.chunks, 0u);
  EXPECT_EQ(wide.threads, 4);
  // Chunking is thread-count invariant: the split points depend only on
  // operator output sizes.
  exec::PipelineTrace narrow = ChunkedPipeline(*plan, 1);
  EXPECT_EQ(narrow.chunks, wide.chunks);
  EXPECT_EQ(narrow.threads, 1);
}

TEST_F(FanoutTest, PoolMetricsCountChunksAndEscalatedJobs) {
  obs::MetricsRegistry registry;
  exec::pipeline::SchedulerMetrics metrics;
  metrics.jobs = &registry.GetCounter("jobs");
  metrics.inline_jobs = &registry.GetCounter("inline_jobs");
  metrics.tasks = &registry.GetCounter("tasks");
  exec::pipeline::TaskScheduler pool;
  pool.SetMetrics(metrics);
  auto run = [&](const plan::PhysicalOp& op) {
    ExecutionContext ctx = Context(4);
    ctx.SetScheduler(&pool);
    QueryProfile profile;
    ctx.EnableProfiling(&profile);
    EXPECT_TRUE(exec::pipeline::Run(op, &ctx).ok());
    EXPECT_EQ(profile.pipelines().size(), 1u);
    return profile.pipelines().front();
  };
  // One source morsel that fans out: started inline, offered to the pool
  // when its pending chunks crossed 2 * max_workers.
  exec::PipelineTrace fanout = run(*Hops(2));
  EXPECT_EQ(fanout.threads, 4);
  EXPECT_EQ(metrics.jobs->Value(), 1u);
  EXPECT_EQ(metrics.inline_jobs->Value(), 0u);
  EXPECT_EQ(metrics.tasks->Value(), fanout.morsels + fanout.chunks);
  // A bare scan never splits and stays on the calling thread.
  exec::PipelineTrace scan = run(*Hops(0));
  EXPECT_EQ(scan.chunks, 0u);
  EXPECT_EQ(scan.threads, 1);
  EXPECT_EQ(metrics.jobs->Value(), 1u);
  EXPECT_EQ(metrics.inline_jobs->Value(), 1u);
  EXPECT_EQ(metrics.tasks->Value(), fanout.morsels + fanout.chunks + 1);
}

// ---------------------------------------------------------------------------
// Interrupt contract: every chunk is a morsel boundary
// ---------------------------------------------------------------------------

TEST_F(FanoutTest, EveryTaskVisitsTheMorselBoundary) {
  auto plan = Hops(2);
  for (int threads : {1, 4}) {
    fault::Config config;  // probability 0: count visits, inject nothing
    config.site_mask = 1u << static_cast<int>(fault::Site::kMorselBoundary);
    fault::ScopedFault armed(config);
    exec::PipelineTrace trace = ChunkedPipeline(*plan, threads);
    ASSERT_GT(trace.chunks, 0u);
    EXPECT_EQ(fault::VisitCount(fault::Site::kMorselBoundary),
              trace.morsels + trace.chunks)
        << "threads=" << threads;
  }
}

TEST_F(FanoutTest, CancelMidFanOutEndsBeforeAllChunksRun) {
  plan::PhysicalOpPtr hops = Hops(2);
  const auto& second = static_cast<const plan::PhysExpand&>(*hops);
  const auto& first = static_cast<const plan::PhysExpand&>(*second.children[0]);
  const auto& scan =
      static_cast<const plan::PhysScanVertex&>(*first.children[0]);
  // Source -> EXPAND -> EXPAND -> CancelAfterOp: the probe op sees one
  // batch per chunk of the 2-hop output.
  auto run = [&](int threads, int cancel_at, int* calls) {
    std::atomic<bool> cancelled{false};
    ExecutionContext ctx = Context(threads);
    ctx.SetCancelToken(&cancelled);
    exec::pipeline::Pipeline pipeline;
    pipeline.source = std::make_unique<exec::pipeline::ScanVertexSource>(scan);
    pipeline.ops.push_back(std::make_unique<exec::pipeline::ExpandOp>(first));
    pipeline.ops.push_back(std::make_unique<exec::pipeline::ExpandOp>(second));
    auto probe = std::make_unique<CancelAfterOp>(&cancelled, cancel_at);
    CancelAfterOp* probe_ptr = probe.get();
    pipeline.ops.push_back(std::move(probe));
    exec::pipeline::MaterializeSink sink("out");
    exec::pipeline::TaskScheduler scheduler;
    auto result = exec::pipeline::RunPipeline(&pipeline, &sink, &scheduler,
                                              &ctx);
    *calls = probe_ptr->calls();
    return result.status();
  };
  int total = 0;
  ASSERT_TRUE(run(1, /*cancel_at=*/0, &total).ok());
  ASSERT_GT(total, 8);
  for (int threads : {1, 4}) {
    int calls = 0;
    Status st = run(threads, /*cancel_at=*/2, &calls);
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
    EXPECT_LT(calls, total) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(calls, 2);  // the next task's interrupt check stops it
    }
  }
}

TEST_F(FanoutTest, InjectedFaultMidFanOutEndsBeforeAllChunksRun) {
  auto plan = Hops(2);
  uint64_t clean_visits = 0;
  {
    fault::Config config;
    config.site_mask = 1u << static_cast<int>(fault::Site::kMorselBoundary);
    fault::ScopedFault armed(config);
    ExecutionContext ctx = Context(1);
    ASSERT_TRUE(exec::pipeline::Run(*plan, &ctx).ok());
    clean_visits = fault::VisitCount(fault::Site::kMorselBoundary);
  }
  ASSERT_GT(clean_visits, 8u);
  // The decision is a pure function of (seed, site, visit): take the
  // first seed whose first fault lands on a chunk, past the source morsel.
  bool mid_run = false;
  for (uint64_t seed = 1; seed <= 64 && !mid_run; ++seed) {
    fault::Config config;
    config.seed = seed;
    config.probability = 0.1;
    config.site_mask = 1u << static_cast<int>(fault::Site::kMorselBoundary);
    fault::ScopedFault armed(config);
    ExecutionContext ctx = Context(1);
    auto result = exec::pipeline::Run(*plan, &ctx);
    if (result.ok()) continue;  // no visit of this seed faulted
    EXPECT_TRUE(fault::IsInjected(result.status()));
    uint64_t visits = fault::VisitCount(fault::Site::kMorselBoundary);
    EXPECT_EQ(fault::InjectedCount(), 1u);
    EXPECT_LT(visits, clean_visits);
    mid_run = visits > 1;
  }
  EXPECT_TRUE(mid_run);
}

}  // namespace
}  // namespace relgo
