// Query-lifecycle robustness: cooperative cancellation (observed within
// one interrupt-check interval in BOTH engines), admission control on the
// shared worker pool, graceful Database shutdown, the deterministic
// fault-injection layer — and the chaos storm tying them together: four
// clients under random cancels, injected faults and tight timeouts, with
// every query required to end in exactly one terminal state and the
// database required to stay fully usable afterwards. The ASan job runs
// this suite via the full ctest sweep; the TSan job lists it explicitly.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/pipeline/engine.h"
#include "fixtures.h"

namespace relgo {
namespace {

using exec::EngineKind;
using optimizer::OptimizerMode;

constexpr OptimizerMode kAllModes[] = {
    OptimizerMode::kDuckDB,       OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,    OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,    OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,  OptimizerMode::kRelGoNoFuse,
    OptimizerMode::kRelGoLowOrder, OptimizerMode::kGdbmsSim,
};

constexpr EngineKind kBothEngines[] = {EngineKind::kMaterialize,
                                       EngineKind::kPipeline};

const char* EngineName(EngineKind engine) {
  return engine == EngineKind::kPipeline ? "pipeline" : "materialize";
}

exec::ExecutionOptions Options(EngineKind engine, int threads = 2,
                               bool scan_cache = true) {
  exec::ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.scan_cache = scan_cache;
  return options;
}

// ---------------------------------------------------------------------------
// Fault-injection layer units
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DisarmedInjectsNothing) {
  ASSERT_FALSE(fault::Armed());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(fault::MaybeInject(fault::Site::kHashBuild).ok());
  }
  EXPECT_EQ(fault::InjectedCount(), 0u);
}

TEST(FaultInjectionTest, DeterministicReplayPerSeed) {
  auto pattern = [](uint64_t seed) {
    std::vector<bool> p;
    fault::ScopedFault armed({seed, 0.5, 0xFFFFFFFFu});
    for (int i = 0; i < 200; ++i) {
      p.push_back(!fault::MaybeInject(fault::Site::kMorselBoundary).ok());
    }
    return p;
  };
  std::vector<bool> first = pattern(7);
  EXPECT_EQ(first, pattern(7)) << "same seed must replay identically";
  EXPECT_NE(first, pattern(8)) << "different seed must differ";
  // p=0.5 over 200 visits: both outcomes occurred.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 200);
  EXPECT_FALSE(fault::Armed()) << "ScopedFault must disarm on exit";
}

TEST(FaultInjectionTest, SiteMaskGatesInjection) {
  fault::ScopedFault armed(
      {1, 1.0, 1u << static_cast<int>(fault::Site::kSinkFinish)});
  EXPECT_TRUE(fault::MaybeInject(fault::Site::kHashBuild).ok());
  Status injected = fault::MaybeInject(fault::Site::kSinkFinish);
  EXPECT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), StatusCode::kInternal);
  EXPECT_TRUE(fault::IsInjected(injected));
  EXPECT_FALSE(fault::IsInjected(Status::Internal("genuine bug")));
  EXPECT_FALSE(fault::IsInjected(Status::OK()));
  EXPECT_EQ(fault::InjectedCount(), 1u);
  EXPECT_EQ(fault::VisitCount(fault::Site::kSinkFinish), 1u);
  EXPECT_EQ(fault::VisitCount(fault::Site::kHashBuild), 1u);
}

// ---------------------------------------------------------------------------
// Admission control units (standalone scheduler)
// ---------------------------------------------------------------------------

TEST(AdmissionTest, DisabledAdmitsImmediately) {
  exec::pipeline::TaskScheduler pool;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(pool.AdmitQuery(1000, nullptr).ok());
  }
  EXPECT_EQ(pool.admitted_queries(), 8);
  for (int i = 0; i < 8; ++i) pool.ReleaseQuery();
  EXPECT_EQ(pool.admitted_queries(), 0);
}

TEST(AdmissionTest, FullQueueRejectsImmediately) {
  exec::pipeline::TaskScheduler pool;
  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 1;
  admission.max_queued = 0;
  admission.max_wait_ms = 10'000;
  pool.SetAdmission(admission);
  ASSERT_TRUE(pool.AdmitQuery(10'000, nullptr).ok());
  Status rejected = pool.AdmitQuery(10'000, nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  pool.ReleaseQuery();
  EXPECT_TRUE(pool.AdmitQuery(10'000, nullptr).ok());
  pool.ReleaseQuery();
}

TEST(AdmissionTest, QueuedQueryTimesOutAgainstDeadline) {
  exec::pipeline::TaskScheduler pool;
  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 1;
  admission.max_queued = 1;
  admission.max_wait_ms = 20;
  pool.SetAdmission(admission);
  ASSERT_TRUE(pool.AdmitQuery(10'000, nullptr).ok());
  Status rejected = pool.AdmitQuery(10'000, nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.queued_queries(), 0) << "waiter must deregister";
  pool.ReleaseQuery();
}

TEST(AdmissionTest, QueuedQueryAdmittedOnRelease) {
  exec::pipeline::TaskScheduler pool;
  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 1;
  admission.max_queued = 1;
  admission.max_wait_ms = 10'000;
  pool.SetAdmission(admission);
  ASSERT_TRUE(pool.AdmitQuery(10'000, nullptr).ok());
  Status waited = Status::Internal("never set");
  std::thread waiter(
      [&] { waited = pool.AdmitQuery(10'000, nullptr); });
  // Give the waiter time to enqueue, then free the slot.
  while (pool.queued_queries() == 0) std::this_thread::yield();
  pool.ReleaseQuery();
  waiter.join();
  EXPECT_TRUE(waited.ok()) << waited.ToString();
  pool.ReleaseQuery();
}

TEST(AdmissionTest, CancelAbortsQueuedQuery) {
  exec::pipeline::TaskScheduler pool;
  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 1;
  admission.max_queued = 1;
  admission.max_wait_ms = 10'000;
  pool.SetAdmission(admission);
  ASSERT_TRUE(pool.AdmitQuery(10'000, nullptr).ok());
  std::atomic<bool> cancel{false};
  Status waited = Status::OK();
  std::thread waiter([&] { waited = pool.AdmitQuery(10'000, &cancel); });
  while (pool.queued_queries() == 0) std::this_thread::yield();
  cancel.store(true, std::memory_order_relaxed);
  waiter.join();
  EXPECT_EQ(waited.code(), StatusCode::kCancelled);
  pool.ReleaseQuery();
  EXPECT_EQ(pool.admitted_queries(), 0);
}

// ---------------------------------------------------------------------------
// Query registry units
// ---------------------------------------------------------------------------

TEST(QueryRegistryTest, RegisterCancelUnregister) {
  core::QueryRegistry registry;
  auto h1 = registry.Register(1, "q1");
  auto h2 = registry.Register(2, "q2");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(registry.active(), 2u);
  EXPECT_EQ(registry.ActiveIds(), (std::vector<uint64_t>{1, 2}));

  EXPECT_TRUE(registry.Cancel(1));
  EXPECT_TRUE((*h1)->cancelled());
  EXPECT_FALSE((*h2)->cancelled());
  EXPECT_FALSE(registry.Cancel(99)) << "unknown id is a no-op";

  registry.Unregister(1);
  EXPECT_EQ(registry.CancelAll(), 1u);
  EXPECT_TRUE((*h2)->cancelled());
  registry.Unregister(2);
  EXPECT_EQ(registry.active(), 0u);
  registry.WaitUntilIdle();  // already idle: returns immediately

  registry.BeginShutdown();
  EXPECT_EQ(registry.Register(3, "late").status().code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Figure 2 database lifecycle tests
// ---------------------------------------------------------------------------

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  /// Example 1 with two cacheable filtered scans plus a relational join —
  /// exercises scan-cache publication, hash builds and breaker sinks.
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
              storage::Expr::Compare(storage::CompareOp::kNe,
                                     storage::Expr::Column("name"),
                                     storage::Expr::Constant(
                                         Value::String("Nowhere"))))
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

  uint64_t Metric(const char* name) const {
    return db_.metrics().GetCounter(name).Value();
  }

  Database db_;
};

// The tentpole latency contract, asserted deterministically: with the
// cancel token already set, BOTH engines observe it at their very first
// interrupt check — before a single row is produced. (Mid-flight delivery
// is the same code path: the token is just read one check interval later;
// the storm below exercises that asynchronously.)
TEST_F(LifecycleTest, CancelObservedAtFirstCheckBothEngines) {
  plan::SpjmQuery query = FilteredQuery();
  for (EngineKind engine : kBothEngines) {
    for (OptimizerMode mode : {OptimizerMode::kDuckDB,
                               OptimizerMode::kRelGo}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " / " +
                   optimizer::ModeName(mode));
      auto optimized = db_.Optimize(query, mode);
      ASSERT_TRUE(optimized.ok());
      exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(),
                                 &db_.index(), Options(engine));
      std::atomic<bool> cancelled{true};
      ctx.SetCancelToken(&cancelled);
      ctx.SetQueryId(42);
      auto result =
          engine == EngineKind::kPipeline
              ? exec::pipeline::Run(*optimized->plan, &ctx)
              : exec::Executor::Run(*optimized->plan, &ctx);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      EXPECT_NE(result.status().ToString().find("42"), std::string::npos)
          << "kCancelled must name the query id: "
          << result.status().ToString();
      EXPECT_EQ(ctx.rows_produced(), 0u)
          << "cancel must be observed before any work";
      EXPECT_EQ(ctx.pending_cache_publications(), 0u);
    }
  }
}

// End-to-end Database::CancelQuery, made deterministic: the test holds
// the only admission slot, so the client query registers, exports its id
// through query_id_out (Database exports it after registration, before
// the admission wait), and then blocks in the admission queue — where
// the cancel token is live. CancelQuery(id) must therefore abort it with
// kCancelled, counted once, leaving the database fully usable. (The
// figure-2 queries are far too fast to cancel mid-execution reliably;
// the in-engine delivery path is pinned by the first-check test above
// and exercised asynchronously by the chaos storm below.)
TEST_F(LifecycleTest, CancelQueryAbortsQueuedQueryBothEngines) {
  plan::SpjmQuery query = FilteredQuery();
  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 1;
  admission.max_queued = 1;
  admission.max_wait_ms = 10'000;
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    db_.worker_pool().SetAdmission(admission);
    ASSERT_TRUE(db_.worker_pool().AdmitQuery(10'000, nullptr).ok())
        << "test occupies the only slot";
    uint64_t cancelled_before = Metric("relgo_queries_cancelled_total");
    std::atomic<uint64_t> query_id{0};
    exec::ExecutionOptions options = Options(engine);
    options.query_id_out = &query_id;
    Status status = Status::OK();
    std::thread client([&] {
      auto result = db_.Run(query, OptimizerMode::kRelGo, options);
      if (!result.ok()) status = result.status();
    });
    uint64_t id = 0;
    while ((id = query_id.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(db_.CancelQuery(id)) << "id " << id << " must be active";
    client.join();
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
    EXPECT_EQ(Metric("relgo_queries_cancelled_total"), cancelled_before + 1)
        << "cancelled counter must increment exactly once";
    EXPECT_FALSE(db_.CancelQuery(id)) << "handle must be released";
    db_.worker_pool().ReleaseQuery();
    db_.worker_pool().SetAdmission({});
    // The cancelled query did not poison anything: same query succeeds.
    auto again = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
    EXPECT_TRUE(again.ok()) << again.status().ToString();
  }
}

// Satellite: kTimeout and kOutOfMemory across both engines and all ten
// optimizer modes — clean error status, no scan-cache pollution, and the
// failure counters incremented exactly once per failed query.
TEST_F(LifecycleTest, TimeoutAndOomCleanAcrossEnginesAndModes) {
  plan::SpjmQuery query = FilteredQuery();
  for (EngineKind engine : kBothEngines) {
    for (OptimizerMode mode : kAllModes) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " / " +
                   optimizer::ModeName(mode));
      struct Case {
        StatusCode expect;
        uint64_t max_rows;
        double timeout_ms;
        const char* counter;
      };
      for (const Case& c :
           {Case{StatusCode::kTimeout, 80'000'000, 0.0,
                 "relgo_queries_timeout_total"},
            Case{StatusCode::kOutOfMemory, 0, 600'000.0, nullptr}}) {
        db_.ClearScanCache();
        uint64_t failures_before = Metric("relgo_query_failures_total");
        uint64_t class_before =
            c.counter != nullptr ? Metric(c.counter) : 0;
        exec::ExecutionOptions options = Options(engine);
        options.max_total_rows = c.max_rows;
        options.timeout_ms = c.timeout_ms;
        auto result = db_.Run(query, mode, options);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), c.expect)
            << result.status().ToString();
        EXPECT_EQ(db_.scan_cache().entries(), 0u)
            << "failed query must not publish scan-cache entries";
        EXPECT_EQ(Metric("relgo_query_failures_total"), failures_before + 1)
            << "failure counter must increment exactly once";
        if (c.counter != nullptr) {
          EXPECT_EQ(Metric(c.counter), class_before + 1);
        }
      }
    }
  }
  // The classified counters never double-count: cancelled/rejected stayed
  // untouched by the whole grid.
  EXPECT_EQ(Metric("relgo_queries_cancelled_total"), 0u);
  EXPECT_EQ(Metric("relgo_queries_rejected_total"), 0u);
}

// Deferred publication: a query that fails at the cache-publish fault
// site leaves the cache untouched; the same query then succeeds and
// publishes normally, with results identical to the reference. Only the
// pipeline engine publishes (the materializing reference never touches
// the cache).
TEST_F(LifecycleTest, FailedQueryNeverPublishesScanCache) {
  plan::SpjmQuery query = FilteredQuery();
  auto reference = db_.Run(query, OptimizerMode::kDuckDB,
                           Options(EngineKind::kMaterialize, 2, false));
  ASSERT_TRUE(reference.ok());
  std::vector<std::string> expect = testing::SortedRows(*reference->table);

  const EngineKind engine = EngineKind::kPipeline;
  db_.ClearScanCache();
  {
    fault::ScopedFault armed(
        {3, 1.0, 1u << static_cast<int>(fault::Site::kScanCachePublish)});
    auto result = db_.Run(query, OptimizerMode::kDuckDB, Options(engine));
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(fault::IsInjected(result.status()))
        << result.status().ToString();
    EXPECT_EQ(db_.scan_cache().entries(), 0u)
        << "faulted query must not publish";
  }
  auto ok = db_.Run(query, OptimizerMode::kDuckDB, Options(engine));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(db_.scan_cache().entries(), 0u)
      << "successful query publishes the same entries";
  EXPECT_EQ(testing::SortedRows(*ok->table), expect);
  auto warm = db_.Run(query, OptimizerMode::kDuckDB, Options(engine));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(testing::SortedRows(*warm->table), expect)
      << "replayed cache entries match";
}

// Every fault site aborts cleanly: the query fails with an injected
// status (where the site is on that engine's path at all), nothing
// leaks, and the database serves the same query correctly afterwards.
TEST_F(LifecycleTest, FaultSitesAbortCleanlyAndDatabaseStaysUsable) {
  plan::SpjmQuery query = FilteredQuery();
  auto reference = db_.Run(query, OptimizerMode::kRelGo,
                           Options(EngineKind::kMaterialize, 2, false));
  ASSERT_TRUE(reference.ok());
  std::vector<std::string> expect = testing::SortedRows(*reference->table);

  for (int site = 0; site < fault::kNumSites; ++site) {
    for (EngineKind engine : kBothEngines) {
      SCOPED_TRACE(std::string(fault::SiteName(
                       static_cast<fault::Site>(site))) +
                   " / " + EngineName(engine));
      db_.ClearScanCache();
      {
        fault::ScopedFault armed({11, 1.0, 1u << site});
        auto result = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
        if (result.ok()) {
          // Site not on this engine's path for this plan (e.g. the
          // pipeline-only partitioned finalize under kMaterialize).
          EXPECT_EQ(fault::InjectedCount(), 0u);
        } else {
          EXPECT_TRUE(fault::IsInjected(result.status()))
              << result.status().ToString();
          EXPECT_EQ(db_.scan_cache().entries(), 0u);
        }
        // Morsel-boundary faults are on every plan's path in both
        // engines; cache publication is on every cold filtered scan of
        // the pipeline engine (the reference never publishes).
        if (site == static_cast<int>(fault::Site::kMorselBoundary) ||
            (site == static_cast<int>(fault::Site::kScanCachePublish) &&
             engine == EngineKind::kPipeline)) {
          EXPECT_FALSE(result.ok());
        }
      }
      auto after = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
      ASSERT_TRUE(after.ok()) << after.status().ToString();
      EXPECT_EQ(testing::SortedRows(*after->table), expect);
    }
  }
  EXPECT_TRUE(db_.ActiveQueryIds().empty());
}

TEST_F(LifecycleTest, ShutdownRejectsNewQueriesAndCountsThem) {
  plan::SpjmQuery query = VertexPredQuery();
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kDuckDB).ok());
  db_.Shutdown(Database::ShutdownMode::kDrain);
  uint64_t rejected_before = Metric("relgo_queries_rejected_total");
  auto result = db_.Run(query, OptimizerMode::kDuckDB);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Metric("relgo_queries_rejected_total"), rejected_before + 1);
  EXPECT_TRUE(db_.ActiveQueryIds().empty());
  db_.Shutdown(Database::ShutdownMode::kCancel);  // idempotent
}

TEST_F(LifecycleTest, ShutdownCancelDrainsInFlightQueries) {
  plan::SpjmQuery query = FilteredQuery();
  constexpr int kClients = 4;
  std::atomic<int> bad_status{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      EngineKind engine =
          c % 2 == 0 ? EngineKind::kPipeline : EngineKind::kMaterialize;
      // Run until shutdown sheds us; every status must be one of
      // ok / cancelled / rejected.
      for (int i = 0; i < 10'000; ++i) {
        auto result = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
        if (result.ok()) continue;
        StatusCode code = result.status().code();
        if (code == StatusCode::kResourceExhausted) break;
        if (code != StatusCode::kCancelled) bad_status.fetch_add(1);
      }
    });
  }
  db_.Shutdown(Database::ShutdownMode::kCancel);
  // Shutdown returned => nothing is registered anymore; clients may still
  // be issuing (rejected) queries until they observe the shed.
  EXPECT_TRUE(db_.ActiveQueryIds().empty());
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad_status.load(), 0);
  EXPECT_EQ(db_.worker_pool().admitted_queries(), 0);
}

// ---------------------------------------------------------------------------
// The chaos storm
// ---------------------------------------------------------------------------

// Four clients under admission control, with a controller cancelling a
// fifth of the queries mid-flight, a tenth running under an immediate
// timeout, and a low-probability fault layer armed at every site — under
// ASan and TSan in CI. Every query must end in exactly one of
// {ok, cancelled, timeout, rejected, injected}; afterwards the registry
// and admission slots are empty, the scan cache holds no partial entry
// (verified by result parity), and the database serves normally.
TEST_F(LifecycleTest, ChaosStormEveryQueryEndsInExactlyOneTerminalState) {
  std::vector<plan::SpjmQuery> mix = {FilteredQuery(), VertexPredQuery()};
  std::vector<std::vector<std::string>> reference;
  for (const auto& q : mix) {
    auto serial =
        db_.Run(q, OptimizerMode::kRelGo, Options(EngineKind::kMaterialize));
    ASSERT_TRUE(serial.ok());
    reference.push_back(testing::SortedRows(*serial->table));
  }
  uint64_t cancelled_metric_before = Metric("relgo_queries_cancelled_total");
  uint64_t rejected_metric_before = Metric("relgo_queries_rejected_total");
  uint64_t timeout_metric_before = Metric("relgo_queries_timeout_total");

  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 2;
  admission.max_queued = 2;
  admission.max_wait_ms = 50;
  db_.worker_pool().SetAdmission(admission);
  fault::ScopedFault armed({2024, 0.02, 0xFFFFFFFFu});

  constexpr int kClients = 4;
  constexpr int kIters = 25;
  std::atomic<uint64_t> ok{0}, cancelled{0}, timed_out{0}, rejected{0},
      injected{0}, unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + static_cast<uint64_t>(c));
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
        } else if (result.status().code() == StatusCode::kCancelled) {
          cancelled.fetch_add(1);
        } else if (result.status().code() == StatusCode::kTimeout) {
          timed_out.fetch_add(1);
        } else if (result.status().code() ==
                   StatusCode::kResourceExhausted) {
          rejected.fetch_add(1);
        } else if (fault::IsInjected(result.status())) {
          injected.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
          ADD_FAILURE() << "unexpected terminal status: "
                        << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Exactly one terminal state per query, and nothing outside the set.
  EXPECT_EQ(ok.load() + cancelled.load() + timed_out.load() +
                rejected.load() + injected.load() + unexpected.load(),
            static_cast<uint64_t>(kClients) * kIters);
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(ok.load(), 0u) << "storm must make progress";
  EXPECT_GT(timed_out.load(), 0u) << "tight timeouts must fire";
  EXPECT_GT(injected.load(), 0u) << "armed faults must land";

  // The lifecycle counters classified exactly what the clients observed.
  EXPECT_EQ(Metric("relgo_queries_cancelled_total") -
                cancelled_metric_before,
            cancelled.load());
  EXPECT_EQ(Metric("relgo_queries_rejected_total") - rejected_metric_before,
            rejected.load());
  EXPECT_EQ(Metric("relgo_queries_timeout_total") - timeout_metric_before,
            timed_out.load());

  // All job/admission/registry state released.
  EXPECT_TRUE(db_.ActiveQueryIds().empty());
  EXPECT_EQ(db_.worker_pool().admitted_queries(), 0);
  EXPECT_EQ(db_.worker_pool().queued_queries(), 0);

  // The database is fully usable, and the (possibly warm) scan cache
  // replays only complete entries: results match the pre-storm serial
  // reference on both engines.
  db_.worker_pool().SetAdmission({});
  fault::Disarm();
  for (size_t qi = 0; qi < mix.size(); ++qi) {
    for (EngineKind engine : kBothEngines) {
      auto result = db_.Run(mix[qi], OptimizerMode::kRelGo, Options(engine));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(testing::SortedRows(*result->table), reference[qi]);
    }
  }
}

}  // namespace
}  // namespace relgo
