// Concurrent serving and the cross-query scan cache: ScanCache unit
// behavior (LRU eviction, byte budget, version invalidation), one cached
// filter bitmap per (table, predicate) whichever operator computed it,
// publication by LIMIT early-exit scans, cache on/off parity — results
// and per-node actual rows identical across all ten optimizer modes on
// the pipeline engine, the only one that reads the cache —,
// invalidation on base-table mutation and on drop + re-create (scan and
// plan cache), and concurrent Run / RunProfiled (adaptive statistics on)
// against one shared Database, which is what the process-wide worker pool
// and the stats_mu_ serialization exist for. The TSan CI job runs this
// suite at 4 worker threads.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/pipeline/batch.h"
#include "exec/scan_cache.h"
#include "fixtures.h"
#include "workload/harness.h"

namespace relgo {
namespace {

using optimizer::OptimizerMode;

/// All optimizer modes of the paper's evaluation (Sec 5.1 + ablations).
constexpr OptimizerMode kAllModes[] = {
    OptimizerMode::kDuckDB,       OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,    OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,    OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,  OptimizerMode::kRelGoNoFuse,
    OptimizerMode::kRelGoLowOrder, OptimizerMode::kGdbmsSim,
};

exec::ExecutionOptions Options(exec::EngineKind engine, int threads,
                               bool scan_cache) {
  exec::ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.scan_cache = scan_cache;
  return options;
}

// ---------------------------------------------------------------------------
// ScanCache units
// ---------------------------------------------------------------------------

exec::ScanCache::BitmapPtr MakeBitmap(size_t n) {
  return std::make_shared<std::vector<uint8_t>>(n, 1);
}

TEST(ScanCacheTest, HitMissAndVersionInvalidation) {
  exec::ScanCache cache;
  EXPECT_EQ(cache.Get("filter|T|p", 0), nullptr);  // cold
  cache.Put("filter|T|p", 0, MakeBitmap(5));
  auto hit = cache.Get("filter|T|p", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 5u);
  // Same key at a newer table version: the entry is stale, dropped, and
  // reported as a miss + invalidation.
  EXPECT_EQ(cache.Get("filter|T|p", 1), nullptr);
  EXPECT_EQ(cache.Get("filter|T|p", 0), nullptr);  // really gone
  exec::ScanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.25);
}

TEST(ScanCacheTest, LruEvictionUnderByteBudget) {
  // Budget fits two ~(64 + key + 800)-byte entries but not three.
  exec::ScanCache cache(/*max_bytes=*/1900);
  cache.Put("a", 0, MakeBitmap(800));
  cache.Put("b", 0, MakeBitmap(800));
  EXPECT_EQ(cache.entries(), 2u);
  // Touch "a" so "b" is the least recently used entry.
  EXPECT_NE(cache.Get("a", 0), nullptr);
  cache.Put("c", 0, MakeBitmap(800));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Get("b", 0), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Get("a", 0), nullptr);
  EXPECT_NE(cache.Get("c", 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  // An entry larger than the entire budget is rejected outright.
  cache.Put("huge", 0, MakeBitmap(80000));
  EXPECT_EQ(cache.Get("huge", 0), nullptr);
  // Replacing a key keeps one entry and reclaims the old bytes.
  size_t before = cache.bytes();
  cache.Put("c", 1, MakeBitmap(80));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LT(cache.bytes(), before);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

// A plain LIMIT stops claiming morsels once it holds its rows, so a
// filtered scan under it never sees most of its table. Its filter result
// is still complete — computed once for the whole table before the first
// morsel — so the early-exit run publishes it and the next run replays it.
TEST(ScanCachePublicationTest, PlainLimitScanPublishesItsFilter) {
  Database db;
  auto items = db.CreateTable(
      "Item",
      storage::Schema({storage::ColumnDef{"id", LogicalType::kInt64},
                       storage::ColumnDef{"grp", LogicalType::kInt64}}));
  ASSERT_TRUE(items.ok());
  const int64_t kRows = 3 * static_cast<int64_t>(exec::pipeline::kBatchRows) +
                        100;  // four morsels
  for (int64_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE((*items)->AppendRow({Value::Int(r), Value::Int(r % 5)}).ok());
  }
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Item";
  scan->alias = "i";
  scan->filter = storage::Expr::Eq("grp", Value::Int(1));
  plan::PhysLimit limit;
  limit.limit = 5;
  limit.children.push_back(std::move(scan));
  // One worker: morsel 0 alone fills the LIMIT, morsels 1-3 are skipped.
  exec::ExecutionOptions options =
      Options(exec::EngineKind::kPipeline, 1, /*scan_cache=*/true);

  auto cold = db.Execute(limit, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ((*cold)->num_rows(), 5u);
  EXPECT_EQ(db.scan_cache().entries(), 1u) << "early-exit run publishes";
  const uint64_t hits_before = db.scan_cache().stats().hits;

  auto warm = db.Execute(limit, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(db.scan_cache().stats().hits, hits_before);
  EXPECT_EQ(testing::SortedRows(**warm), testing::SortedRows(**cold));
}

// Drop + re-create: T is (re)loaded with one FinishBulkAppend, so both
// incarnations went through the same number of appends. Their versions
// still differ (one process-wide counter), so the filter scan over the new
// T must never replay the bitmap cached for the old one.
class ScanCacheRecreateTest : public ::testing::Test {
 protected:
  /// (Re)creates T(id, grp) with `rows` rows; only row `match` has grp 1.
  void CreateT(int64_t rows, int64_t match) {
    auto t = db_.CreateTable(
        "T", storage::Schema({storage::ColumnDef{"id", LogicalType::kInt64},
                              storage::ColumnDef{"grp", LogicalType::kInt64}}));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    for (int64_t r = 0; r < rows; ++r) {
      (*t)->column(0).AppendInt(r);
      (*t)->column(1).AppendInt(r == match ? 1 : 0);
    }
    (*t)->FinishBulkAppend();
  }

  /// The ids `grp = 1` selects, scanned through the scan cache.
  std::vector<int64_t> ScanMatches() {
    plan::PhysScanTable scan;
    scan.table = "T";
    scan.alias = "t";
    scan.filter = storage::Expr::Eq("grp", Value::Int(1));
    auto out = db_.Execute(
        scan, Options(exec::EngineKind::kPipeline, 1, /*scan_cache=*/true));
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    std::vector<int64_t> ids;
    if (!out.ok()) return ids;
    for (uint64_t r = 0; r < (*out)->num_rows(); ++r) {
      ids.push_back((*out)->GetValue(r, 0).int_value());
    }
    return ids;
  }

  /// Scans a 4-row T whose match is row 0, so its bitmap is cached.
  void CacheOldT() {
    CreateT(4, 0);
    ASSERT_EQ(ScanMatches(), std::vector<int64_t>{0});
    ASSERT_EQ(db_.scan_cache().entries(), 1u);
    ASSERT_TRUE(db_.catalog().DropTable("T").ok());
  }

  Database db_;
};

TEST_F(ScanCacheRecreateTest, RecreatedTableDoesNotReplayOldBitmap) {
  CacheOldT();
  CreateT(4, 3);
  EXPECT_EQ(ScanMatches(), std::vector<int64_t>{3});
  EXPECT_EQ(db_.scan_cache().stats().invalidations, 1u);
}

TEST_F(ScanCacheRecreateTest, LargerRecreatedTableNeverReadsOldBitmap) {
  CacheOldT();
  CreateT(3000, 2500);
  EXPECT_EQ(ScanMatches(), std::vector<int64_t>{2500});
}

// ---------------------------------------------------------------------------
// Figure 2 database: parity, invalidation, concurrency
// ---------------------------------------------------------------------------

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  /// Example 1 with two cacheable filtered scans: the pushed WHERE on the
  /// Person relation (graph-agnostic modes) / Person vertex (converged
  /// modes), and a scan filter on the relationally joined Place table.
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

  /// A second mix member: triangle-ish pattern with a vertex predicate.
  plan::SpjmQuery VertexPredQuery() const {
    auto pattern = db_.ParsePattern(
        "(a:Person)-[:Knows]->(b:Person)");
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

  /// Walks `a` and `b` (same query, same mode => same deterministic plan
  /// shape) in lockstep and asserts per-node actual row counts match.
  static void ExpectSameActualRows(const plan::PhysicalOp& a,
                                   const exec::QueryProfile& pa,
                                   const plan::PhysicalOp& b,
                                   const exec::QueryProfile& pb) {
    ASSERT_EQ(a.kind, b.kind);
    const exec::OperatorProfile* oa = pa.Find(&a);
    const exec::OperatorProfile* ob = pb.Find(&b);
    ASSERT_EQ(oa == nullptr, ob == nullptr) << a.Describe();
    if (oa != nullptr) {
      EXPECT_EQ(oa->rows_out, ob->rows_out) << a.Describe();
    }
    ASSERT_EQ(a.children.size(), b.children.size());
    for (size_t i = 0; i < a.children.size(); ++i) {
      ExpectSameActualRows(*a.children[i], pa, *b.children[i], pb);
    }
  }

  Database db_;
};

TEST_F(ConcurrencyTest, CacheOnOffParityAllModes) {
  // The materializing reference never touches the cache, so only the
  // pipeline engine has a cache-on leg to check.
  const exec::EngineKind engine = exec::EngineKind::kPipeline;
  for (plan::SpjmQuery query : {FilteredQuery(), VertexPredQuery()}) {
    for (OptimizerMode mode : kAllModes) {
      SCOPED_TRACE(std::string(query.name) + " / " +
                   optimizer::ModeName(mode));
      db_.ClearScanCache();
      auto off = db_.RunProfiled(query, mode,
                                 Options(engine, 2, /*scan_cache=*/false));
      ASSERT_TRUE(off.ok()) << off.status().ToString();
      auto cold = db_.RunProfiled(query, mode,
                                  Options(engine, 2, /*scan_cache=*/true));
      ASSERT_TRUE(cold.ok()) << cold.status().ToString();
      auto warm = db_.RunProfiled(query, mode,
                                  Options(engine, 2, /*scan_cache=*/true));
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      EXPECT_EQ(off->profile.scan_cache_hits(), 0u);

      // Byte-identical results: same rows in the same order.
      for (const auto* run : {&cold, &warm}) {
        const storage::Table& expect = *off->table;
        const storage::Table& got = *(*run)->table;
        ASSERT_EQ(got.num_rows(), expect.num_rows());
        ASSERT_EQ(got.num_columns(), expect.num_columns());
        for (uint64_t r = 0; r < expect.num_rows(); ++r) {
          for (size_t c = 0; c < expect.num_columns(); ++c) {
            EXPECT_EQ(got.GetValue(r, c).ToString(),
                      expect.GetValue(r, c).ToString())
                << "row " << r << " col " << c;
          }
        }
      }
      // Per-node actual cardinalities are cache-invariant.
      ExpectSameActualRows(*off->plan, off->profile, *cold->plan,
                           cold->profile);
      ExpectSameActualRows(*off->plan, off->profile, *warm->plan,
                           warm->profile);
      // If the cold run published filtered-scan selections, the warm
      // run must have replayed at least one.
      if (db_.scan_cache().entries() > 0) {
        EXPECT_GT(warm->profile.scan_cache_hits(), 0u);
      }
    }
  }
  // The grid definitely exercised the cache on some modes.
  EXPECT_GT(db_.scan_cache().stats().insertions, 0u);
  EXPECT_GT(db_.scan_cache().stats().hits, 0u);
}

TEST_F(ConcurrencyTest, TableMutationInvalidatesCachedScans) {
  // Query whose Place scan filter ("name != 'Nowhere'") is cached.
  plan::SpjmQuery query = FilteredQuery();
  auto first = db_.Run(query, OptimizerMode::kDuckDB);
  ASSERT_TRUE(first.ok());
  uint64_t rows_before = first->table->num_rows();
  ASSERT_GT(db_.scan_cache().entries(), 0u);

  // Tom moves: a second Place row with his place_id and a fresh name.
  // (Place is relational-only, so the graph index is unaffected.)
  auto place = db_.catalog().GetTable("Place");
  ASSERT_TRUE(place.ok());
  ASSERT_TRUE((*place)
                  ->AppendRow({Value::Int(100), Value::String("Atlantis")})
                  .ok());

  auto second = db_.Run(query, OptimizerMode::kDuckDB);
  ASSERT_TRUE(second.ok());
  // The new Place row joins Tom's place_id, so a stale cached selection
  // (missing row 3) would lose the extra result.
  EXPECT_EQ(second->table->num_rows(), rows_before + 1);
  EXPECT_GT(db_.scan_cache().stats().invalidations, 0u);

  bool saw_atlantis = false;
  for (const std::string& row : testing::SortedRows(*second->table)) {
    if (row.find("Atlantis") != std::string::npos) saw_atlantis = true;
  }
  EXPECT_TRUE(saw_atlantis);
}

// Drop + re-create Place with the same rows and the same number of
// appends: the new table has a new identity, so the next Run re-optimizes.
TEST_F(ConcurrencyTest, RecreatedTableMissesThePlanCache) {
  plan::SpjmQuery query = FilteredQuery();
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kRelGo).ok());
  auto hot = db_.Run(query, OptimizerMode::kRelGo);
  ASSERT_TRUE(hot.ok());
  ASSERT_EQ(hot->plan_cache, exec::QueryProfile::PlanCacheStatus::kHit);

  auto place = db_.catalog().GetTable("Place");
  ASSERT_TRUE(place.ok());
  storage::TablePtr old = *place;
  ASSERT_TRUE(db_.catalog().DropTable("Place").ok());
  auto fresh = db_.CreateTable("Place", old->schema());
  ASSERT_TRUE(fresh.ok());
  for (uint64_t r = 0; r < old->num_rows(); ++r) {
    ASSERT_TRUE((*fresh)
                    ->AppendRow({old->GetValue(r, 0), old->GetValue(r, 1)})
                    .ok());
  }

  auto next = db_.Run(query, OptimizerMode::kRelGo);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->plan_cache, exec::QueryProfile::PlanCacheStatus::kMiss);
  EXPECT_EQ(testing::SortedRows(*next->table),
            testing::SortedRows(*hot->table));
}

TEST_F(ConcurrencyTest, ExplainAnalyzeRendersCacheHits) {
  plan::SpjmQuery query = FilteredQuery();
  // Warm the cache, then EXPLAIN ANALYZE replays the filtered scans.
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kDuckDB).ok());
  auto analyzed = db_.ExplainAnalyze(
      query, OptimizerMode::kDuckDB,
      Options(exec::EngineKind::kPipeline, 2, true));
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("scan cache:"), std::string::npos) << *analyzed;
}

// One predicate over one table is one cache entry, whichever operator
// consumes it: here the driving vertex scan and the expansion's target
// filter both filter Person by name != 'Nobody'.
TEST_F(ConcurrencyTest, ScanAndExpansionShareOneFilterEntry) {
  auto not_nobody = [] {
    return storage::Expr::Compare(
        storage::CompareOp::kNe, storage::Expr::Column("name"),
        storage::Expr::Constant(Value::String("Nobody")));
  };
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = db_.mapping().FindVertexLabel("Person");
  scan->var = "a";
  scan->filter = not_nobody();
  plan::PhysExpand expand;
  expand.edge_label = db_.mapping().FindEdgeLabel("Knows");
  expand.dir = graph::Direction::kOut;
  expand.from_var = "a";
  expand.to_var = "b";
  expand.vertex_filter = not_nobody();
  expand.children.push_back(std::move(scan));
  exec::ExecutionOptions options =
      Options(exec::EngineKind::kPipeline, 2, /*scan_cache=*/true);

  db_.ClearScanCache();
  auto cold = db_.Execute(expand, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT((*cold)->num_rows(), 0u);
  EXPECT_EQ(db_.scan_cache().entries(), 1u);

  // Both consumers replay the one entry.
  const uint64_t hits_before = db_.scan_cache().stats().hits;
  auto warm = db_.Execute(expand, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(db_.scan_cache().stats().hits, hits_before + 2);
  EXPECT_EQ(db_.scan_cache().entries(), 1u);
  EXPECT_EQ(testing::SortedRows(**warm), testing::SortedRows(**cold));
}

TEST_F(ConcurrencyTest, ConcurrentClientsMatchSerialResults) {
  // Serial references, computed cache-cold.
  db_.ClearScanCache();
  std::vector<plan::SpjmQuery> mix = {FilteredQuery(), VertexPredQuery()};
  std::vector<std::vector<std::string>> reference;
  for (const auto& q : mix) {
    auto serial = db_.Run(q, OptimizerMode::kRelGo,
                          Options(exec::EngineKind::kMaterialize, 1, false));
    ASSERT_TRUE(serial.ok());
    reference.push_back(testing::SortedRows(*serial->table));
  }

  constexpr int kClients = 4;
  constexpr int kIters = 6;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        size_t qi = static_cast<size_t>(c + i) % mix.size();
        // Alternate engines so the shared pool serves pipeline queries
        // while materializing queries run on the same database.
        exec::EngineKind engine = (c + i) % 2 == 0
                                      ? exec::EngineKind::kPipeline
                                      : exec::EngineKind::kMaterialize;
        auto result =
            db_.Run(mix[qi], OptimizerMode::kRelGo, Options(engine, 4, true));
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (testing::SortedRows(*result->table) != reference[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, ConcurrentAdaptiveProfiledRuns) {
  // The previously forbidden combination: concurrent RunProfiled with
  // adaptive_stats on — GLogue refinement must serialize against every
  // in-flight optimization (Database::stats_mu_). TSan verifies the
  // absence of races; result correctness is checked against the serial
  // answer.
  plan::SpjmQuery query = FilteredQuery();
  auto serial = db_.Run(query, OptimizerMode::kRelGo,
                        Options(exec::EngineKind::kMaterialize, 1, false));
  ASSERT_TRUE(serial.ok());
  auto reference = testing::SortedRows(*serial->table);

  constexpr int kClients = 4;
  constexpr int kIters = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exec::ExecutionOptions options =
          Options(c % 2 == 0 ? exec::EngineKind::kPipeline
                             : exec::EngineKind::kMaterialize,
                  4, true);
      options.adaptive_stats = true;
      for (int i = 0; i < kIters; ++i) {
        auto result = db_.RunProfiled(query, OptimizerMode::kRelGo, options);
        if (!result.ok() ||
            testing::SortedRows(*result->table) != reference) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ConcurrencyTest, HarnessRunConcurrentReportsThroughputAndHits) {
  db_.ClearScanCache();
  workload::WorkloadQuery wq1{FilteredQuery(), false};
  workload::WorkloadQuery wq2{VertexPredQuery(), false};
  workload::Harness harness(
      &db_, Options(exec::EngineKind::kPipeline, 2, true));
  auto m = harness.RunConcurrent({wq1, wq2}, OptimizerMode::kRelGo,
                                 /*clients=*/3, /*queries_per_client=*/4);
  EXPECT_EQ(m.clients, 3);
  EXPECT_EQ(m.queries_ok + m.queries_failed, 12u);
  EXPECT_EQ(m.queries_failed, 0u);
  EXPECT_GT(m.qps, 0.0);
  EXPECT_GE(m.cache_hit_rate, 0.0);
  EXPECT_LE(m.cache_hit_rate, 1.0);
  // 12 runs of 2 distinct queries: far more lookups than first-misses.
  EXPECT_GT(m.scan_cache_hits, 0u);
}

}  // namespace
}  // namespace relgo
