// Parameterized queries and the cross-query plan cache. The contract
// under test: binding constants into a template and running with the
// plan cache ON is byte-identical to running with the cache OFF — over
// every LDBC/IMDB template, every optimizer mode, both engines, with
// randomized constants — because cached template plans are rebound
// against each call's constants (clone-before-Bind) and the optimizer
// estimates slotted constants value-insensitively. Invalidation is
// exact, never timed: an adaptive feedback push bumps the stats epoch,
// ~10% growth of a table the plan reads moves that table's drift bucket,
// and either kills the entry on its next lookup (counted once). A
// one-row append keeps the plan, and an append to a table the plan does
// not read never touches it. A cancelled, faulted, timed
// out or OOM'd query never publishes a plan. The TSan job runs this
// suite explicitly (alongside the lifecycle storm it extends).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/pipeline/engine.h"
#include "fixtures.h"
#include "optimizer/plan_cache.h"
#include "workload/harness.h"
#include "workload/imdb.h"
#include "workload/ldbc.h"

namespace relgo {
namespace {

using exec::EngineKind;
using optimizer::OptimizerMode;
using PlanCacheStatus = exec::QueryProfile::PlanCacheStatus;

constexpr OptimizerMode kAllModes[] = {
    OptimizerMode::kDuckDB,        OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,     OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,     OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,   OptimizerMode::kRelGoNoFuse,
    OptimizerMode::kRelGoLowOrder, OptimizerMode::kGdbmsSim,
};

constexpr EngineKind kBothEngines[] = {EngineKind::kMaterialize,
                                       EngineKind::kPipeline};

const char* EngineName(EngineKind engine) {
  return engine == EngineKind::kPipeline ? "pipeline" : "materialize";
}

exec::ExecutionOptions Options(EngineKind engine, int threads = 2) {
  exec::ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  return options;  // scan_cache and plan_cache default ON
}

/// A random constant of the same LogicalType as `v` — sometimes the
/// default itself (selective), sometimes a mutation (often selecting
/// nothing, which the differential contract must also survive).
Value RandomValueLike(const Value& v, Rng* rng) {
  switch (v.type()) {
    case LogicalType::kInt64:
      return Value::Int(v.int_value() + rng->Uniform(-3, 3));
    case LogicalType::kDouble:
      return Value::Double(v.double_value() * (0.5 + rng->NextDouble()));
    case LogicalType::kString:
      return rng->Chance(0.5) ? v : Value::String(v.string_value() + "_x");
    case LogicalType::kDate:
      return Value::Date(v.date_value() +
                         static_cast<int32_t>(rng->Uniform(-30, 30)));
    default:
      return v;
  }
}

std::vector<Value> RandomBinding(const std::vector<Value>& defaults,
                                 Rng* rng) {
  std::vector<Value> binding;
  binding.reserve(defaults.size());
  for (const Value& v : defaults) binding.push_back(RandomValueLike(v, rng));
  return binding;
}

/// EXPECT_EQ on sorted row renderings, but reporting the first divergent
/// row — the vector_kernel_test idiom, so a differential failure names
/// the exact row instead of dumping two full tables.
void ExpectSameRows(const std::vector<std::string>& expect,
                    const std::vector<std::string>& got,
                    const std::string& label) {
  ASSERT_EQ(got.size(), expect.size()) << label << ": row count diverges";
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i], expect[i])
        << label << "; first divergence at row " << i;
  }
}

// ---------------------------------------------------------------------------
// Template extraction / binding / signature units (Figure 2 database)
// ---------------------------------------------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  /// Example 1 with a string constant in the WHERE clause and one in a
  /// relational join's scan filter — two parameter slots.
  plan::SpjmQuery FilteredQuery() const {
    auto pattern = db_.ParsePattern(
        "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
        "(p1)-[:Knows]->(p2)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("filtered")
        .Match(std::move(*pattern))
        .Column("p1", "name")
        .Column("p1", "place_id")
        .Column("p2", "name")
        .Where(storage::Expr::Eq("p1.name", Value::String("Tom")))
        .Join("Place", "place", "p1.place_id", "id",
              storage::Expr::Compare(
                  storage::CompareOp::kNe, storage::Expr::Column("name"),
                  storage::Expr::Constant(Value::String("Nowhere"))))
        .Select("p2.name", "name")
        .Select("place.name", "place_name")
        .Build();
  }

  plan::SpjmQuery VertexPredQuery() const {
    auto pattern = db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
    EXPECT_TRUE(pattern.ok());
    pattern->vertex(0).predicate =
        storage::Expr::Eq("name", Value::String("Bob"));
    return plan::SpjmQueryBuilder("vertex_pred")
        .Match(std::move(*pattern))
        .Column("a", "name", "a_name")
        .Column("b", "name", "b_name")
        .Select("a_name")
        .Select("b_name")
        .Build();
  }

  uint64_t SnapshotCounter(const char* name) const {
    return db_.metrics().Snapshot().CounterValue(name);
  }

  Database db_;
};

TEST_F(PlanCacheTest, ParameterizeBindRoundTripsAndSharesSignature) {
  plan::SpjmQuery query = FilteredQuery();
  optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(query);
  // Slot order: joins' scan filters before WHERE.
  ASSERT_EQ(t.defaults.size(), 2u);
  EXPECT_EQ(t.defaults[0], Value::String("Nowhere"));
  EXPECT_EQ(t.defaults[1], Value::String("Tom"));

  // Rebinding the defaults reproduces the original query's results.
  auto bound = optimizer::BindTemplate(t, t.defaults);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto params = optimizer::CollectBoundParams(*bound);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params.at(0), Value::String("Nowhere"));
  EXPECT_EQ(params.at(1), Value::String("Tom"));
  auto original = db_.Run(query, OptimizerMode::kRelGo);
  auto rebound = db_.Run(*bound, OptimizerMode::kRelGo);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(testing::SortedRows(*rebound->table),
            testing::SortedRows(*original->table));

  // Different bindings share one signature; modes get distinct ones; the
  // bound-value-erasing signature matches the template's own.
  auto other = optimizer::BindTemplate(
      t, {Value::String("Denmark"), Value::String("Bob")});
  ASSERT_TRUE(other.ok());
  std::string sig =
      optimizer::TemplateSignature(*bound, OptimizerMode::kRelGo);
  EXPECT_EQ(optimizer::TemplateSignature(*other, OptimizerMode::kRelGo),
            sig);
  EXPECT_EQ(optimizer::TemplateSignature(t.query, OptimizerMode::kRelGo),
            sig);
  EXPECT_NE(optimizer::TemplateSignature(*bound, OptimizerMode::kDuckDB),
            sig);
  // A plain (unslotted) query value-renders its constants: two queries
  // differing only in a literal must NOT share a cache entry.
  EXPECT_NE(optimizer::TemplateSignature(query, OptimizerMode::kRelGo),
            sig);
}

TEST_F(PlanCacheTest, BindTemplateRejectsArityAndTypeMismatch) {
  optimizer::ParameterizedQuery t =
      optimizer::ParameterizeQuery(FilteredQuery());
  ASSERT_EQ(t.defaults.size(), 2u);
  EXPECT_FALSE(optimizer::BindTemplate(t, {}).ok());
  EXPECT_FALSE(
      optimizer::BindTemplate(t, {Value::String("a")}).ok());
  EXPECT_FALSE(optimizer::BindTemplate(
                   t, {Value::String("a"), Value::Int(7)})
                   .ok())
      << "Int must not bind into a string slot";
  EXPECT_TRUE(optimizer::BindTemplate(
                  t, {Value::String("a"), Value::String("b")})
                  .ok());
}

TEST_F(PlanCacheTest, LruEvictionAndStaleEntryInvalidation) {
  auto make_plan = [&] {
    auto opt = db_.Optimize(FilteredQuery(), OptimizerMode::kRelGo);
    EXPECT_TRUE(opt.ok());
    return std::shared_ptr<const plan::PhysicalOp>(std::move(opt->plan));
  };
  auto stamp = [](uint64_t epoch, uint32_t bucket) {
    return optimizer::PlanStamp{epoch, {{7, bucket}}};
  };
  optimizer::PlanCache cache(2);
  cache.Put("k1", stamp(1, 1), make_plan());
  cache.Put("k2", stamp(1, 1), make_plan());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.Get("k1", stamp(1, 1)), nullptr);  // k1 now MRU
  cache.Put("k3", stamp(1, 1), make_plan());         // evicts k2 (LRU)
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Get("k2", stamp(1, 1)), nullptr);
  EXPECT_NE(cache.Get("k3", stamp(1, 1)), nullptr);

  // Stale epoch and stale table stamp both erase-and-miss, counted as
  // invalidations; the key re-enters on the next Put.
  EXPECT_EQ(cache.Get("k1", stamp(2, 1)), nullptr) << "stats epoch moved";
  cache.Put("k1", stamp(2, 1), make_plan());
  EXPECT_NE(cache.Get("k1", stamp(2, 1)), nullptr);
  EXPECT_EQ(cache.Get("k1", stamp(2, 9)), nullptr) << "drift bucket moved";

  optimizer::PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.insertions, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.invalidations, 2u);
  EXPECT_EQ(s.Lookups(), 6u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Database integration: hit/miss lifecycle, exact invalidation
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, MissThenHitBothEnginesShareOneEntry) {
  plan::SpjmQuery query = FilteredQuery();
  auto reference =
      db_.Run(query, OptimizerMode::kRelGo, Options(EngineKind::kPipeline));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->plan_cache, PlanCacheStatus::kMiss);
  std::vector<std::string> expect = testing::SortedRows(*reference->table);

  // The plan is engine-agnostic: the materializing engine's first
  // cache-on run already hits the entry the pipeline run published.
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    auto result = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan_cache, PlanCacheStatus::kHit);
    EXPECT_EQ(testing::SortedRows(*result->table), expect);
  }
  EXPECT_EQ(db_.plan_cache().entries(), 1u);
  // The registry's pull collector reads the same lifetime counters.
  optimizer::PlanCache::Stats s = db_.plan_cache().stats();
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_hits_total"), s.hits);
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_misses_total"), s.misses);
}

TEST_F(PlanCacheTest, OptionsOffAndAdaptiveRunsBypassTheCache) {
  plan::SpjmQuery query = FilteredQuery();
  exec::ExecutionOptions off = Options(EngineKind::kMaterialize);
  off.plan_cache = false;
  auto result = db_.Run(query, OptimizerMode::kRelGo, off);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan_cache, PlanCacheStatus::kOff);
  EXPECT_EQ(db_.plan_cache().stats().Lookups(), 0u);
  EXPECT_EQ(db_.plan_cache().entries(), 0u);

  exec::ExecutionOptions adaptive = Options(EngineKind::kMaterialize);
  adaptive.adaptive_stats = true;
  auto profiled = db_.RunProfiled(query, OptimizerMode::kRelGo, adaptive);
  ASSERT_TRUE(profiled.ok());
  EXPECT_EQ(profiled->profile.plan_cache_status(), PlanCacheStatus::kOff);
  EXPECT_EQ(db_.plan_cache().stats().Lookups(), 0u)
      << "adaptive runs must bypass the cache entirely";
}

// Adaptive feedback bumps the stats epoch; the next lookup of a hot
// template is exactly one invalidation + one re-optimization, then the
// refreshed entry serves hits again.
TEST_F(PlanCacheTest, FeedbackEpochBumpReoptimizesHotTemplateExactlyOnce) {
  plan::SpjmQuery query = FilteredQuery();
  exec::ExecutionOptions options = Options(EngineKind::kPipeline);
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kRelGo, options).ok());
  auto hot = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->plan_cache, PlanCacheStatus::kHit) << "template is hot";
  std::vector<std::string> expect = testing::SortedRows(*hot->table);

  uint64_t epoch_before = db_.stats_epoch();
  exec::ExecutionOptions adaptive = options;
  adaptive.adaptive_stats = true;
  auto push = db_.RunProfiled(query, OptimizerMode::kRelGo, adaptive);
  ASSERT_TRUE(push.ok());
  ASSERT_GT(push->feedback_observations, 0)
      << "the profiled run must absorb estimate-vs-actual corrections";
  EXPECT_EQ(db_.stats_epoch(), epoch_before + 1)
      << "a feedback push bumps the epoch exactly once";

  optimizer::PlanCache::Stats before = db_.plan_cache().stats();
  auto reopt = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(reopt.ok());
  EXPECT_EQ(reopt->plan_cache, PlanCacheStatus::kMiss)
      << "stale epoch must force re-optimization";
  EXPECT_EQ(testing::SortedRows(*reopt->table), expect);
  optimizer::PlanCache::Stats mid = db_.plan_cache().stats();
  EXPECT_EQ(mid.invalidations - before.invalidations, 1u);
  EXPECT_EQ(mid.misses - before.misses, 1u);
  EXPECT_EQ(mid.hits, before.hits);

  auto warm = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->plan_cache, PlanCacheStatus::kHit)
      << "exactly ONE re-optimization: the refreshed entry serves hits";
  EXPECT_EQ(testing::SortedRows(*warm->table), expect);
  optimizer::PlanCache::Stats after = db_.plan_cache().stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.invalidations - before.invalidations, 1u);
}

// Appends of rows no query result references: Place ids 400+ join no
// person, Message rows are liked by nobody. Results must not move, and
// the plan cache must follow the drift rule of the tables each plan
// reads.
Status AppendUnreferenced(Database* db, const std::string& table, int count) {
  RELGO_ASSIGN_OR_RETURN(auto t, db->catalog().GetTable(table));
  for (int i = 0; i < count; ++i) {
    int64_t id = 400 + static_cast<int64_t>(t->num_rows());
    RELGO_RETURN_NOT_OK(
        t->AppendRow({Value::Int(id), Value::String("Atlantis")}));
  }
  return Status::OK();
}

TEST_F(PlanCacheTest, OneRowAppendToReadTableKeepsThePlan) {
  plan::SpjmQuery query = FilteredQuery();  // reads Place via its join
  exec::ExecutionOptions options = Options(EngineKind::kMaterialize);
  options.scan_cache = false;  // the scan cache has its own staleness story
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kRelGo, options).ok());
  auto hot = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->plan_cache, PlanCacheStatus::kHit);
  std::vector<std::string> expect = testing::SortedRows(*hot->table);

  ASSERT_EQ(optimizer::DriftBucket(3), optimizer::DriftBucket(4))
      << "precondition: 3 -> 4 Place rows stays in one drift bucket";
  optimizer::PlanCache::Stats before = db_.plan_cache().stats();
  ASSERT_TRUE(AppendUnreferenced(&db_, "Place", 1).ok());
  auto next = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->plan_cache, PlanCacheStatus::kHit)
      << "a one-row append must keep the plan";
  EXPECT_EQ(testing::SortedRows(*next->table), expect);
  EXPECT_EQ(db_.plan_cache().stats().invalidations, before.invalidations);
}

TEST_F(PlanCacheTest, DoublingReadTableReplansExactlyOnce) {
  plan::SpjmQuery query = FilteredQuery();
  exec::ExecutionOptions options = Options(EngineKind::kMaterialize);
  options.scan_cache = false;
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kRelGo, options).ok());
  auto hot = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->plan_cache, PlanCacheStatus::kHit);
  std::vector<std::string> expect = testing::SortedRows(*hot->table);

  ASSERT_NE(optimizer::DriftBucket(3), optimizer::DriftBucket(6))
      << "precondition: 3 -> 6 Place rows crosses a drift bucket";
  ASSERT_TRUE(AppendUnreferenced(&db_, "Place", 3).ok());
  optimizer::PlanCache::Stats before = db_.plan_cache().stats();
  auto reopt = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(reopt.ok());
  EXPECT_EQ(reopt->plan_cache, PlanCacheStatus::kMiss)
      << "doubling a read table must re-plan";
  EXPECT_EQ(testing::SortedRows(*reopt->table), expect);
  for (int i = 0; i < 2; ++i) {
    auto warm = db_.Run(query, OptimizerMode::kRelGo, options);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->plan_cache, PlanCacheStatus::kHit);
    EXPECT_EQ(testing::SortedRows(*warm->table), expect);
  }
  optimizer::PlanCache::Stats after = db_.plan_cache().stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.invalidations - before.invalidations, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
}

TEST_F(PlanCacheTest, AppendToUnreadTableNeverInvalidates) {
  plan::SpjmQuery query = VertexPredQuery();  // reads Person and Knows only
  exec::ExecutionOptions options = Options(EngineKind::kMaterialize);
  options.scan_cache = false;
  auto cold = db_.Run(query, OptimizerMode::kRelGo, options);
  ASSERT_TRUE(cold.ok());
  std::vector<std::string> expect = testing::SortedRows(*cold->table);

  optimizer::PlanCache::Stats before = db_.plan_cache().stats();
  // Grow Place and Message far past a drift bucket between runs.
  for (const char* table : {"Place", "Message"}) {
    ASSERT_TRUE(AppendUnreferenced(&db_, table, 100).ok());
    auto next = db_.Run(query, OptimizerMode::kRelGo, options);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next->plan_cache, PlanCacheStatus::kHit) << table;
    EXPECT_EQ(testing::SortedRows(*next->table), expect);
  }
  optimizer::PlanCache::Stats after = db_.plan_cache().stats();
  EXPECT_EQ(after.invalidations, before.invalidations);
  EXPECT_EQ(after.hits - before.hits, 2u);
}

// The no-publish-on-failure chokepoint, for every failure class that can
// reach execution: injected fault, timeout, OOM.
TEST_F(PlanCacheTest, FailedQueriesNeverPublishPlans) {
  plan::SpjmQuery query = FilteredQuery();
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    db_.ClearPlanCache();
    // Lifetime counter: ClearPlanCache drops entries, not accounting.
    uint64_t insertions_before = db_.plan_cache().stats().insertions;
    {
      fault::ScopedFault armed(
          {3, 1.0, 1u << static_cast<int>(fault::Site::kMorselBoundary)});
      auto result = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(fault::IsInjected(result.status()));
    }
    exec::ExecutionOptions timeout = Options(engine);
    timeout.timeout_ms = 0.0;
    EXPECT_EQ(db_.Run(query, OptimizerMode::kRelGo, timeout)
                  .status()
                  .code(),
              StatusCode::kTimeout);
    exec::ExecutionOptions oom = Options(engine);
    oom.max_total_rows = 0;
    EXPECT_EQ(
        db_.Run(query, OptimizerMode::kRelGo, oom).status().code(),
        StatusCode::kOutOfMemory);
    EXPECT_EQ(db_.plan_cache().entries(), 0u)
        << "failed queries must not publish plan-cache entries";
    EXPECT_EQ(db_.plan_cache().stats().insertions, insertions_before);

    // The same query then succeeds, publishes once, and serves hits.
    auto ok = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->plan_cache, PlanCacheStatus::kMiss);
    EXPECT_EQ(db_.plan_cache().entries(), 1u);
  }
}

TEST_F(PlanCacheTest, HarnessHotTemplateSweepHitsEveryWarmRun) {
  std::vector<workload::WorkloadQuery> templates = {
      {FilteredQuery(), false}, {VertexPredQuery(), false}};
  workload::Harness harness(&db_, Options(EngineKind::kPipeline), 1);
  auto m = harness.RunHotTemplates(templates, OptimizerMode::kRelGo, 3);
  EXPECT_EQ(m.templates, 2);
  EXPECT_EQ(m.queries_failed, 0u);
  EXPECT_EQ(m.queries_ok, 2u + 2u * 3u);
  EXPECT_EQ(m.plan_cache_misses, 0u)
      << "after the cold pass every warm run must hit";
  EXPECT_EQ(m.plan_cache_hits, 2u * 3u);
  EXPECT_GE(m.plan_cache_hit_rate, 0.9);
}

// ---------------------------------------------------------------------------
// The randomized differential suites: cache-on == cache-off, byte for
// byte, over every workload template x optimizer mode x engine.
// ---------------------------------------------------------------------------

void ExpectCacheOnMatchesCacheOff(
    const Database& db,
    const std::vector<workload::WorkloadQuery>& templates,
    const std::vector<OptimizerMode>& modes, uint64_t seed) {
  Rng rng(seed);
  for (const auto& wq : templates) {
    optimizer::ParameterizedQuery t =
        optimizer::ParameterizeQuery(wq.query);
    auto bound =
        optimizer::BindTemplate(t, RandomBinding(t.defaults, &rng));
    ASSERT_TRUE(bound.ok())
        << wq.query.name << ": " << bound.status().ToString();
    for (OptimizerMode mode : modes) {
      for (EngineKind engine : kBothEngines) {
        std::string label = wq.query.name + std::string(" under ") +
                            optimizer::ModeName(mode) + " / " +
                            EngineName(engine);
        exec::ExecutionOptions off = Options(engine);
        off.plan_cache = false;
        auto reference = db.Run(*bound, mode, off);
        ASSERT_TRUE(reference.ok())
            << label << " (cache off): " << reference.status().ToString();
        ASSERT_EQ(reference->plan_cache, PlanCacheStatus::kOff);
        std::vector<std::string> expect =
            testing::SortedRows(*reference->table);

        // First cache-on run misses (or hits the other engine's entry);
        // the second run must hit. Both match the cache-off reference.
        for (const char* pass : {"first cache-on", "cached-plan"}) {
          auto result = db.Run(*bound, mode, Options(engine));
          ASSERT_TRUE(result.ok())
              << label << " (" << pass
              << "): " << result.status().ToString();
          ASSERT_NE(result->plan_cache, PlanCacheStatus::kOff);
          if (pass[0] == 'c') {
            ASSERT_EQ(result->plan_cache, PlanCacheStatus::kHit) << label;
          }
          ExpectSameRows(expect, testing::SortedRows(*result->table),
                         label + " (" + pass + ")");
        }
      }
    }
  }
}

class LdbcPlanCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::LdbcOptions options;
    options.scale_factor = 0.08;  // matches profile/pipeline_parity tests
    ASSERT_TRUE(GenerateLdbc(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* LdbcPlanCacheTest::db_ = nullptr;

TEST_F(LdbcPlanCacheTest, DifferentialRandomConstantsAllModesBothEngines) {
  std::vector<OptimizerMode> modes(std::begin(kAllModes),
                                   std::end(kAllModes));
  ExpectCacheOnMatchesCacheOff(
      *db_, workload::LdbcInteractiveQueries(*db_), modes, 20240808);
}

// Two different bindings of one template reuse ONE cached plan: the
// second binding's very first cache-on run is already a hit, and still
// byte-identical to its own cache-off optimization.
TEST_F(LdbcPlanCacheTest, SecondBindingHitsFirstBindingsPlan) {
  Rng rng(7);
  auto templates = workload::LdbcInteractiveQueries(*db_);
  int exercised = 0;
  for (size_t qi = 0; qi < templates.size() && exercised < 4; ++qi) {
    optimizer::ParameterizedQuery t =
        optimizer::ParameterizeQuery(templates[qi].query);
    if (t.defaults.empty()) continue;  // nothing to rebind
    ++exercised;
    SCOPED_TRACE(templates[qi].query.name);
    db_->ClearPlanCache();
    exec::ExecutionOptions on = Options(EngineKind::kPipeline);
    auto a = optimizer::BindTemplate(t, RandomBinding(t.defaults, &rng));
    ASSERT_TRUE(a.ok());
    auto warm = db_->Run(*a, OptimizerMode::kRelGo, on);
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm->plan_cache, PlanCacheStatus::kMiss);

    auto b = optimizer::BindTemplate(t, RandomBinding(t.defaults, &rng));
    ASSERT_TRUE(b.ok());
    exec::ExecutionOptions off = on;
    off.plan_cache = false;
    auto fresh = db_->Run(*b, OptimizerMode::kRelGo, off);
    ASSERT_TRUE(fresh.ok());
    auto cached = db_->Run(*b, OptimizerMode::kRelGo, on);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached->plan_cache, PlanCacheStatus::kHit)
        << "binding B must reuse binding A's template plan";
    ExpectSameRows(testing::SortedRows(*fresh->table),
                   testing::SortedRows(*cached->table),
                   templates[qi].query.name + " binding B");
    EXPECT_EQ(db_->plan_cache().entries(), 1u);
  }
  EXPECT_GT(exercised, 0) << "LDBC templates must carry parameter slots";
}

class ImdbPlanCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::ImdbOptions options;
    options.scale_factor = 0.04;  // matches profile/pipeline_parity tests
    ASSERT_TRUE(GenerateImdb(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* ImdbPlanCacheTest::db_ = nullptr;

TEST_F(ImdbPlanCacheTest, DifferentialRandomConstantsBothEngines) {
  // kRelGoNoRule / kGdbmsSim excluded like profile_test and
  // pipeline_parity_test (legitimate OOM / naive-matcher runtime on JOB).
  std::vector<OptimizerMode> modes = {
      OptimizerMode::kDuckDB,      OptimizerMode::kGRainDB,
      OptimizerMode::kUmbraLike,   OptimizerMode::kRelGo,
      OptimizerMode::kRelGoHash,   OptimizerMode::kRelGoNoEI,
      OptimizerMode::kRelGoNoFuse, OptimizerMode::kRelGoLowOrder,
  };
  ExpectCacheOnMatchesCacheOff(*db_, workload::JobQueries(*db_), modes,
                               20240809);
}

// ---------------------------------------------------------------------------
// The chaos storm, plan cache ON: the PR 8 lifecycle storm extended with
// hot templates — concurrent clients under cancels, faults and tight
// timeouts keep hammering two templates through the plan cache, and the
// storm must stay bit-identical to the serial cache-off reference.
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, ChaosStormStaysBitIdenticalToSerialCacheOff) {
  std::vector<plan::SpjmQuery> mix = {FilteredQuery(), VertexPredQuery()};
  std::vector<std::vector<std::string>> reference;
  for (const auto& q : mix) {
    exec::ExecutionOptions off = Options(EngineKind::kMaterialize);
    off.plan_cache = false;
    auto serial = db_.Run(q, OptimizerMode::kRelGo, off);
    ASSERT_TRUE(serial.ok());
    reference.push_back(testing::SortedRows(*serial->table));
  }
  ASSERT_EQ(db_.plan_cache().stats().Lookups(), 0u);

  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 2;
  admission.max_queued = 2;
  admission.max_wait_ms = 50;
  db_.worker_pool().SetAdmission(admission);
  fault::ScopedFault armed({2025, 0.02, 0xFFFFFFFFu});

  constexpr int kClients = 4;
  constexpr int kIters = 25;
  std::atomic<uint64_t> ok{0}, shed{0}, unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(3000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kIters; ++i) {
        const plan::SpjmQuery& query = mix[(c + i) % mix.size()];
        EngineKind engine = (c + i) % 2 == 0 ? EngineKind::kPipeline
                                             : EngineKind::kMaterialize;
        exec::ExecutionOptions options = Options(engine);
        bool chaos_cancel = rng.Chance(0.2);
        if (rng.Chance(0.1)) options.timeout_ms = 0.0;
        std::atomic<uint64_t> query_id{0};
        std::atomic<bool> done{false};
        std::thread controller;
        if (chaos_cancel) {
          options.query_id_out = &query_id;
          controller = std::thread([&] {
            uint64_t id = 0;
            while ((id = query_id.load(std::memory_order_acquire)) == 0) {
              if (done.load(std::memory_order_acquire)) return;
              std::this_thread::yield();
            }
            db_.CancelQuery(id);
          });
        }
        auto result = db_.Run(query, OptimizerMode::kRelGo, options);
        if (chaos_cancel) {
          done.store(true, std::memory_order_release);
          controller.join();
        }
        if (result.ok()) {
          ok.fetch_add(1);
        } else if (result.status().code() == StatusCode::kCancelled ||
                   result.status().code() == StatusCode::kTimeout ||
                   result.status().code() ==
                       StatusCode::kResourceExhausted ||
                   fault::IsInjected(result.status())) {
          shed.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
          ADD_FAILURE() << "unexpected terminal status: "
                        << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load() + shed.load() + unexpected.load(),
            static_cast<uint64_t>(kClients) * kIters);
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(ok.load(), 0u) << "storm must make progress";

  // Cache accounting reconciles: lookups add up, plans were only ever
  // published by successful queries (insertions never exceed misses, and
  // the storm's two kRelGo templates bound the entry count), and the
  // pull-collector metrics read the same lifetime counters.
  optimizer::PlanCache::Stats s = db_.plan_cache().stats();
  EXPECT_EQ(s.Lookups(), s.hits + s.misses);
  EXPECT_GT(s.hits, 0u) << "hot templates must hit under the storm";
  EXPECT_LE(s.insertions, s.misses);
  EXPECT_LE(db_.plan_cache().entries(), mix.size());
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_hits_total"), s.hits);
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_misses_total"), s.misses);
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_insertions_total"),
            s.insertions);

  // Post-storm parity: whatever the storm cached replays bit-identical
  // to the pre-storm serial cache-off reference on both engines.
  db_.worker_pool().SetAdmission({});
  fault::Disarm();
  for (size_t qi = 0; qi < mix.size(); ++qi) {
    for (EngineKind engine : kBothEngines) {
      auto result =
          db_.Run(mix[qi], OptimizerMode::kRelGo, Options(engine));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameRows(reference[qi], testing::SortedRows(*result->table),
                     std::string("post-storm ") + EngineName(engine) +
                         " query " + std::to_string(qi));
    }
  }
}

}  // namespace
}  // namespace relgo
