#ifndef RELGO_CORE_DATABASE_H_
#define RELGO_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/query_registry.h"
#include "exec/context.h"
#include "exec/executor.h"
#include "exec/pipeline/scheduler.h"
#include "exec/scan_cache.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "optimizer/plan_cache.h"
#include "optimizer/query_optimizer.h"
#include "pattern/parser.h"

namespace relgo {

/// Result of Database::Run — the materialized table plus the timing split
/// the paper's experiments report (optimization vs execution).
struct QueryRunResult {
  storage::TablePtr table;
  double optimization_ms = 0.0;
  double execution_ms = 0.0;
  /// Filtered scans replayed from the cross-query scan cache (0 when the
  /// cache is off, cold, or the plan has no filtered scans).
  uint64_t scan_cache_hits = 0;
  /// Whether the plan came from the cross-query plan cache (kHit:
  /// optimization skipped), was freshly optimized with the cache consulted
  /// (kMiss), or ran with the cache off / bypassed (kOff).
  exec::QueryProfile::PlanCacheStatus plan_cache =
      exec::QueryProfile::PlanCacheStatus::kOff;
};

/// Result of Database::RunProfiled — one profiled execution: the result
/// table, the optimized plan (owned, so estimates can be compared against
/// the profile), and the per-operator QueryProfile both engines feed.
struct ProfiledRunResult {
  storage::TablePtr table;
  plan::PhysicalOpPtr plan;
  exec::QueryProfile profile;
  double optimization_ms = 0.0;
  double execution_ms = 0.0;
  /// Estimate-vs-actual observations absorbed into the adaptive
  /// statistics sink (0 unless ExecutionOptions::adaptive_stats).
  int feedback_observations = 0;
};

/// The top-level handle of the RelGo library: owns the relational catalog,
/// the RGMapping and graph index, all statistics (low-order + GLogue), the
/// optimizer front door — and the concurrent-serving substrate: one
/// process-wide morsel worker pool every pipeline query shares (Leis et
/// al.'s one-pool-per-process design) plus the cross-query scan/filter
/// cache the pipeline engine consults.
///
/// Thread-safety: after Finalize(), Run / RunProfiled / Execute /
/// Optimize / Explain / ExplainAnalyze may be called from any number of
/// threads concurrently, including profiled runs with
/// ExecutionOptions::adaptive_stats — statistics refinement is serialized
/// against in-flight optimizations internally (stats_mu_). Data loading
/// (CreateTable, appends, mapping declarations) and Finalize itself are
/// not concurrent-safe against queries; mutating a base table between
/// queries is supported. Every append moves the table's version, which
/// invalidates its scan-cache entries. A cached plan is stamped with what
/// it reads (optimizer::PlanStamp): it survives small appends, re-plans
/// once a table it reads grew by ~10%, and misses after a drop +
/// re-create of one (new table identity). Appends to tables it does not
/// read never touch it.
///
/// Typical lifecycle (see examples/quickstart.cc):
///
///   relgo::Database db;
///   db.CreateTable("Person", {...});                    // + load rows
///   db.AddVertexTable("Person", "id");                  // RGMapping
///   db.AddEdgeTable("Knows", "Person", "p1", "Person", "p2");
///   db.Finalize();                                      // index + stats
///   auto pattern = db.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
///   auto query = plan::SpjmQueryBuilder("demo").Match(*pattern)...Build();
///   auto result = db.Run(query, optimizer::OptimizerMode::kRelGo);
class Database {
 public:
  /// How Shutdown treats queries still in flight.
  enum class ShutdownMode {
    kDrain,   ///< let running queries finish; only new arrivals are shed
    kCancel,  ///< flip every in-flight query's cancel token first
  };

  Database();
  /// Cancels and drains every in-flight query before tearing down the
  /// serving substrate (equivalent to Shutdown(ShutdownMode::kCancel)).
  ~Database();

  // Non-copyable (owns large state and internal pointers).
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  storage::Catalog& catalog() { return catalog_; }
  const storage::Catalog& catalog() const { return catalog_; }

  /// Creates an empty base table.
  Result<storage::TablePtr> CreateTable(const std::string& name,
                                        storage::Schema schema) {
    return catalog_.CreateTable(name, std::move(schema));
  }

  /// RGMapping declarations (Sec 2.1). Label defaults to the table name.
  Status AddVertexTable(const std::string& table,
                        const std::string& key_column,
                        const std::string& label = "") {
    return mapping_.AddVertexTable(table, key_column, label);
  }
  Status AddEdgeTable(const std::string& table, const std::string& src_label,
                      const std::string& src_key, const std::string& dst_label,
                      const std::string& dst_key,
                      const std::string& label = "") {
    return mapping_.AddEdgeTable(table, src_label, src_key, dst_label,
                                 dst_key, label);
  }

  const graph::RgMapping& mapping() const { return mapping_; }
  const graph::GraphIndex& index() const { return index_; }
  const graph::GraphStats& graph_stats() const { return graph_stats_; }
  const optimizer::Glogue& glogue() const { return glogue_; }
  const optimizer::TableStats& table_stats() const { return table_stats_; }

  /// The adaptive-statistics sink (ROADMAP "Adaptive feedback"). Empty
  /// until a profiled run executes with ExecutionOptions::adaptive_stats;
  /// corrections persist across queries so overlapping workloads re-plan
  /// with refined statistics.
  const optimizer::StatsFeedback& stats_feedback() const { return feedback_; }

  /// Drops all pending keyed corrections (GLogue counts already refined
  /// via the structural push-down keep their — execution-measured, hence
  /// more accurate — values). Used to isolate per-query feedback
  /// experiments: Harness::RunAdaptiveGrid resets between cells so each
  /// record's "first run" measures a cold-corrections baseline. `const`
  /// for the same reason the sink is mutable: corrections are estimator
  /// cache state, not database content.
  void ResetAdaptiveStats() const { feedback_.Clear(); }

  /// The cross-query scan/filter cache (ROADMAP "Shared scan caching"):
  /// the pipeline engine's filtered scans and expansions store their
  /// per-row filter bitmaps here, one per (table, predicate), stamped
  /// with the table's version. Consulted by every pipeline execution
  /// unless ExecutionOptions::scan_cache is off; the materializing
  /// reference never reads or writes it.
  const exec::ScanCache& scan_cache() const { return scan_cache_; }
  /// Empties the cache (A/B measurement, tests). `const` like
  /// ResetAdaptiveStats: the cache is derived state, not content.
  void ClearScanCache() const { scan_cache_.Clear(); }

  /// The cross-query plan cache (ROADMAP "Serving tier"): optimized
  /// physical plans keyed by template signature × optimizer mode,
  /// validated against stats_epoch() and the identity and row-count
  /// drift bucket of each table the query reads (optimizer::PlanStamp).
  /// Consulted by Run/RunProfiled/ExplainAnalyze unless
  /// ExecutionOptions::plan_cache is off or the run is adaptive.
  const optimizer::PlanCache& plan_cache() const { return plan_cache_; }
  /// Empties the plan cache (A/B measurement, tests). `const` like
  /// ClearScanCache: cached plans are derived state, not content.
  void ClearPlanCache() const { plan_cache_.Clear(); }

  /// Statistics epoch: bumped exactly when an adaptive profiled run
  /// pushed corrections into the estimator (StatsFeedback absorption
  /// and/or GLogue refinement) — the plan cache's invalidation clock.
  /// Never advances on a timer; a database that never absorbs feedback
  /// stays at epoch 0 forever.
  uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_acquire);
  }

  /// The process-wide worker pool all concurrent pipeline queries share;
  /// exposed for diagnostics (pool size) and scheduler-level tests.
  exec::pipeline::TaskScheduler& worker_pool() const { return pool_; }

  // --- Query lifecycle (docs/ARCHITECTURE.md "Query lifecycle") --------

  /// Flips the cancel token of the in-flight query with the given id (the
  /// id Run minted — exported via ExecutionOptions::query_id_out, and the
  /// same id that keys traces and the slow-query log). Engines observe the
  /// token at every interrupt-check point (exec::kInterruptCheckMask) and
  /// abort with kCancelled within one morsel / check interval. Returns
  /// false when no such query is in flight (already finished, or never
  /// existed) — cancellation is then a no-op, never an error.
  bool CancelQuery(uint64_t query_id) const {
    return query_registry_.Cancel(query_id);
  }
  /// Cancels every in-flight query; returns how many were signalled.
  size_t CancelAllQueries() const { return query_registry_.CancelAll(); }
  /// Ids of the queries currently executing, ascending (diagnostics).
  std::vector<uint64_t> ActiveQueryIds() const {
    return query_registry_.ActiveIds();
  }

  /// Stops admitting new queries (they fail with kResourceExhausted) and
  /// blocks until the in-flight ones left — immediately cancelled
  /// (kCancel) or run to natural completion (kDrain). Deterministic:
  /// after return no query holds any job, admission slot, or registry
  /// entry. Idempotent; the database stays alive for reads but every
  /// subsequent Run/Execute is rejected.
  void Shutdown(ShutdownMode mode = ShutdownMode::kCancel) const;

  /// Validates the mapping, builds the graph index (EV + VE), low-order
  /// statistics, and GLogue. Call after all data is loaded.
  Status Finalize(optimizer::GlogueOptions glogue_options = {});

  /// Parses a SQL/PGQ-style MATCH pattern against the mapping. Records a
  /// "parse" span while tracing is enabled (SetTracing).
  Result<pattern::PatternGraph> ParsePattern(const std::string& text) const;

  /// Optimizes `query` under the given mode; the plan is independent of
  /// execution state and can be printed with plan::PrintPlan.
  Result<optimizer::OptimizeResult> Optimize(
      const plan::SpjmQuery& query, optimizer::OptimizerMode mode) const;

  /// Executes a physical plan under resource limits.
  Result<storage::TablePtr> Execute(
      const plan::PhysicalOp& op,
      exec::ExecutionOptions options = {}) const;

  /// Optimize + execute, reporting both timings.
  Result<QueryRunResult> Run(const plan::SpjmQuery& query,
                             optimizer::OptimizerMode mode,
                             exec::ExecutionOptions options = {}) const;

  /// Renders the optimized plan (Fig 6 / Fig 12 style).
  Result<std::string> Explain(const plan::SpjmQuery& query,
                              optimizer::OptimizerMode mode) const;

  /// Optimize + execute with per-operator profiling enabled, returning the
  /// plan and the QueryProfile alongside the result. Works on both engines:
  /// the materializing interpreter records through its dispatch wrapper,
  /// the pipeline engine merges thread-local per-morsel counters at sink
  /// finish. This is the estimate-vs-actual feedback loop EXPLAIN ANALYZE
  /// and the workload harness's Q-error tracking are built on.
  Result<ProfiledRunResult> RunProfiled(
      const plan::SpjmQuery& query, optimizer::OptimizerMode mode,
      exec::ExecutionOptions options = {}) const;

  /// EXPLAIN ANALYZE: optimizes, executes with per-operator profiling, and
  /// renders the plan annotated with actual rows, per-operator Q-error and
  /// operator times next to the optimizer's estimates — tree-shaped for
  /// the materializing engine, pipeline-shaped (pipelines + breakers) for
  /// EngineKind::kPipeline.
  Result<std::string> ExplainAnalyze(
      const plan::SpjmQuery& query, optimizer::OptimizerMode mode,
      exec::ExecutionOptions options = {}) const;

  bool finalized() const { return finalized_; }

  // --- Observability (ROADMAP "Observability"; docs/ARCHITECTURE.md) ---

  /// The process-wide metrics registry: query counters and latency
  /// histograms, worker-pool and feedback metrics, plus pull-collectors
  /// for subsystems with their own accounting (scan and plan caches).
  /// Render with metrics().RenderText() or merge Snapshot()s across
  /// databases. `const` like the pool: observing the server is not
  /// mutating content.
  obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The query-lifecycle trace sink (Chrome trace-event export).
  obs::TraceSink& trace_sink() const { return trace_sink_; }

  /// Turns span recording on/off for every subsequent query — the one
  /// tracing switch.
  void SetTracing(bool on) const { trace_sink_.set_enabled(on); }

  /// Writes the collected spans as Chrome trace-event JSON, loadable by
  /// chrome://tracing or Perfetto.
  Status DumpTrace(const std::string& path) const {
    return trace_sink_.WriteFile(path);
  }
  std::string DumpTraceJson() const { return trace_sink_.DumpJson(); }

  /// Structured records of queries that crossed their
  /// ExecutionOptions::slow_query_ms threshold.
  obs::SlowQueryLog& slow_query_log() const { return slow_log_; }

 private:
  /// What one finished (or failed) query reports to the registry and the
  /// slow-query log.
  struct QueryObservation {
    double optimization_ms = 0.0;
    double execution_ms = 0.0;
    uint64_t rows = 0;
    uint64_t scan_cache_hits = 0;
    Status status;
  };

  /// Registry handles resolved once in the constructor so the per-query
  /// path never takes the registry lock.
  struct QueryMetricHandles {
    obs::Counter* queries = nullptr;
    obs::Counter* failures = nullptr;
    obs::Histogram* optimization_ms = nullptr;
    obs::Histogram* execution_ms = nullptr;
    obs::Counter* feedback_observations = nullptr;
    obs::Counter* glogue_refinements = nullptr;
    /// Failure breakdown (each also counts into `failures`): cancelled
    /// via CancelQuery/shutdown, shed by admission control or shutdown,
    /// and timed out. Exactly one increments per failed query.
    obs::Counter* cancelled = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* timeout = nullptr;
  };

  /// Optimize without the public entry point's metrics recording —
  /// Run/RunProfiled charge optimization time through ObserveQuery
  /// instead, so a query never lands twice in the same histogram.
  /// `epoch_out` (optional) receives the stats epoch captured under the
  /// same shared statistics lock the optimization ran under, so a plan
  /// published to the plan cache is tagged with exactly the statistics
  /// state it was derived from.
  Result<optimizer::OptimizeResult> OptimizeInternal(
      const plan::SpjmQuery& query, optimizer::OptimizerMode mode,
      uint64_t* epoch_out = nullptr) const;

  /// What PlanQuery hands the execution entry points: a plan ready to
  /// execute plus the plan-cache bookkeeping needed to report the outcome
  /// and publish the plan after a successful run.
  struct PlannedQuery {
    plan::PhysicalOpPtr plan;
    double optimization_ms = 0.0;
    exec::QueryProfile::PlanCacheStatus cache_status =
        exec::QueryProfile::PlanCacheStatus::kOff;
    std::string cache_key;  ///< empty when the cache was bypassed
    /// Stats epoch and read-table stamps the plan was derived at.
    optimizer::PlanStamp cache_stamp;
  };

  /// The plan-acquisition chokepoint of Run/RunProfiled: consults the
  /// plan cache (unless off, adaptive, or pre-Finalize), re-binding a hit
  /// against the call's constants via ClonePlan, or falls through to a
  /// fresh optimization whose plan the caller publishes after successful
  /// execution (PublishPlan).
  Result<PlannedQuery> PlanQuery(const plan::SpjmQuery& query,
                                 optimizer::OptimizerMode mode,
                                 const exec::ExecutionOptions& options) const;

  /// Publishes a freshly optimized plan to the plan cache — called only
  /// after the plan executed successfully, the same no-publish-on-failure
  /// chokepoint the scan cache uses. No-op for hits and bypassed runs.
  void PublishPlan(const PlannedQuery& planned,
                   std::shared_ptr<const plan::PhysicalOp> plan) const;

  /// A query that ran to completion, handed back by RunQuery for the
  /// entry point's success-only steps (plan publication, feedback,
  /// ObserveQuery).
  struct ExecutedQuery {
    PlannedQuery planned;
    storage::TablePtr table;
    QueryObservation obs;
  };

  /// The one query path of Run/RunProfiled: mints the query id, traces,
  /// plans (PlanQuery), executes (ExecuteWithContext) — profiled into
  /// `profile` when non-null — and records the optimize/execute spans. A
  /// failure is observed here and returned; on success the caller
  /// publishes the plan and calls ObserveQuery with `obs`.
  Result<ExecutedQuery> RunQuery(const plan::SpjmQuery& query,
                                 optimizer::OptimizerMode mode,
                                 const exec::ExecutionOptions& options,
                                 exec::QueryProfile* profile) const;

  /// Records one finished query: registry counters/histograms (when
  /// `options.metrics`) and the slow-query log (when the
  /// `options.slow_query_ms` threshold is crossed — independent of the
  /// metrics switch).
  void ObserveQuery(const plan::SpjmQuery& query,
                    optimizer::OptimizerMode mode,
                    const exec::ExecutionOptions& options,
                    const QueryObservation& obs) const;
  /// The one execution path all entry points share — the query-lifecycle
  /// chokepoint: registers the query for cancellation (minting an id if
  /// the caller didn't), passes admission control, attaches the serving
  /// substrate (worker pool, scan cache when enabled) to `ctx`,
  /// dispatches to the selected engine, and finally commits the query's
  /// queued scan-cache publications on success or drops them on any
  /// failure. `label` names the query in the registry (diagnostics).
  Result<storage::TablePtr> ExecuteWithContext(
      const plan::PhysicalOp& op, exec::ExecutionContext* ctx,
      const std::string& label = "") const;

  storage::Catalog catalog_;
  graph::RgMapping mapping_;
  graph::GraphIndex index_;
  graph::GraphStats graph_stats_;
  /// `mutable`: adaptive-statistics feedback refines estimator state (the
  /// GLogue counts and the correction sink below) from inside the
  /// logically-const RunProfiled — statistics caches, not database
  /// content, following the TableStats::distinct_cache_ precedent.
  /// GLogue refinement takes stats_mu_ exclusively, so adaptive profiled
  /// runs are safe against concurrent optimizations (which hold it
  /// shared); StatsFeedback itself is internally synchronized.
  mutable optimizer::Glogue glogue_;
  optimizer::TableStats table_stats_;
  mutable optimizer::StatsFeedback feedback_;
  std::unique_ptr<optimizer::QueryOptimizer> optimizer_;
  /// Readers = optimizations (estimators read GLogue counts), writer =
  /// the adaptive-statistics push-down that mutates them in place.
  mutable std::shared_mutex stats_mu_;
  /// The shared execution substrate (see class comment). Mutable: serving
  /// queries is logically const, but the pool spawns threads and the
  /// cache fills — both internally synchronized.
  mutable exec::pipeline::TaskScheduler pool_;
  mutable exec::ScanCache scan_cache_;
  /// Cross-query plan cache (internally synchronized) and its
  /// invalidation clock. Mutable like the scan cache: caching plans while
  /// serving is logically const.
  mutable optimizer::PlanCache plan_cache_;
  mutable std::atomic<uint64_t> stats_epoch_{0};
  /// Observability state (mutable for the same reason as the pool:
  /// serving and observing are logically const). Declared before use:
  /// the constructor wires the pool's SchedulerMetrics and the cache
  /// collectors out of `metrics_`.
  mutable obs::MetricsRegistry metrics_;
  mutable obs::TraceSink trace_sink_;
  mutable obs::SlowQueryLog slow_log_;
  /// In-flight query handles (cancellation tokens), keyed by the trace
  /// query id. Mutable like the pool: serving is logically const.
  mutable core::QueryRegistry query_registry_;
  QueryMetricHandles query_metrics_;
  bool finalized_ = false;
};

}  // namespace relgo

#endif  // RELGO_CORE_DATABASE_H_
