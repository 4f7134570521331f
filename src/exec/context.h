#ifndef RELGO_EXEC_CONTEXT_H_
#define RELGO_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "exec/profile.h"
#include "graph/graph_index.h"
#include "graph/rg_mapping.h"
#include "storage/catalog.h"

namespace relgo {

namespace obs {
class TraceRecorder;
}  // namespace obs

namespace exec {

class ScanCache;

namespace pipeline {
class TaskScheduler;
}  // namespace pipeline

/// Which runtime interprets the physical plan.
///
///  * kPipeline    — the morsel-driven vectorized engine
///    (exec/pipeline/*), the default: the plan is decomposed into
///    pipelines split at breakers and executed batch-at-a-time by a
///    worker pool, with compiled filter kernels, string dictionaries,
///    typed group keys and the cross-query scan cache.
///  * kMaterialize — the deliberately naive reference interpreter
///    (exec/executor.*): every operator fully materializes its output
///    from boxed Values and row-at-a-time Expr::EvaluateBool. It shares
///    no kernel, key encoder, hash table or cache with the pipeline
///    engine, so it can check them.
///
/// Both engines produce identical result bags (pipeline_parity_test.cc);
/// the materializing engine is the oracle for differential testing.
/// Pipeline row order is deterministic and thread-count independent
/// (sinks merge in (morsel, chunk path) order, equal to the sequential
/// scan order), so repeated runs are reproducible; ORDER BY + LIMIT
/// tie-breaking can still differ *between* the two engines on index-free
/// EXPAND / EDGE_VERIFY plans, whose materializing implementation picks
/// its hash build side adaptively and thereby emits rows in a different
/// (but equally valid) order.
enum class EngineKind {
  kMaterialize,
  kPipeline,
};

/// The interrupt-check cadence of the materializing engine's row loops —
/// the observable-latency contract of cooperative cancellation:
///
///  * The materializing executor calls ExecutionContext::CheckInterrupt()
///    at every operator dispatch and, inside per-row expansion/probe
///    loops, every `kInterruptCheckMask + 1` (= 4096) iterations. One
///    shared constant for every loop (this used to be an ad-hoc mix of
///    0xFFFF / 0xFFF / 0x3FF masks).
///  * The pipeline engine checks once per task before any work on it,
///    plus at pipeline/breaker entry. A task is a source morsel or a
///    chunk of an oversized operator output, and either feeds at most
///    kBatchRows = 2048 rows into the next operator: outputs over
///    kBatchRows rows are cut into kBatchRows-row chunks, each its own
///    task (and its own kMorselBoundary fault-site visit), so one
///    operator call never runs on an unbounded expansion.
///
/// Consequently Database::CancelQuery (and the timeout clock) is observed
/// within one task or one check-interval of row-loop work in BOTH
/// engines — a few thousand input rows (times one operator's per-row
/// fan-out) of latency, never an unbounded scan or expansion.
/// Row-budget accounting (ChargeRows) also routes through CheckInterrupt,
/// so any operator that materializes output observes interrupts at least
/// once per produced batch.
inline constexpr uint64_t kInterruptCheckMask = 0xFFF;

/// Resource limits for one query execution, mirroring the paper's
/// experimental protocol: a wall-clock timeout (10 minutes in the paper)
/// and a memory budget whose exhaustion is reported as OOM (e.g.
/// RelGoNoEI on the 4-clique query QC3).
struct ExecutionOptions {
  /// Total intermediate + output tuples a query may materialize before the
  /// executor aborts with kOutOfMemory.
  uint64_t max_total_rows = 80'000'000;
  /// Wall-clock limit; kTimeout past this.
  double timeout_ms = 600'000.0;
  /// Runtime selection. The pipeline engine is the default; pass
  /// kMaterialize explicitly to run the naive reference.
  EngineKind engine = EngineKind::kPipeline;
  /// Worker threads for the pipeline engine. 0 = hardware concurrency;
  /// 1 = single-threaded deterministic mode (used by tests). Ignored by the
  /// materializing engine.
  int num_threads = 0;
  /// Consult the owning Database's cross-query filter cache (ROADMAP
  /// "Shared scan caching"): the pipeline engine's filtered scans and
  /// expansions reuse the per-row filter bitmap an earlier query computed
  /// for the same (table, predicate) instead of re-evaluating the
  /// predicate, stamped with the table's version. The
  /// materializing reference never reads or publishes entries, whatever
  /// this flag says. Results are bit-identical either way (the cache
  /// stores exactly the bitmap the filter would have produced, and
  /// row-budget charges are unchanged), so this is on by default; the off
  /// switch exists for A/B measurement and the parity test suite.
  bool scan_cache = true;
  /// Consult the owning Database's cross-query plan cache (ROADMAP
  /// "Serving tier"): optimized physical plans are cached by template
  /// signature (query shape with parameter slots in place of constants,
  /// per optimizer mode) and validated against the Database's stats epoch
  /// and the identity and row-count drift bucket of each table the query
  /// reads — so a hit skips optimization entirely and an entry is
  /// invalidated exactly when adaptive feedback taught the estimator
  /// something, a read table was re-created, or one grew by ~10%.
  /// The cached plan is re-bound against the call's constants via
  /// clone-before-Bind, and parameterized predicates are estimated
  /// value-insensitively, so cached and fresh runs are bit-identical; on
  /// by default, with the off switch for A/B measurement and the
  /// differential suite (plan_cache_test). Adaptive (RunProfiled with
  /// adaptive_stats) runs bypass the cache: they exist to refine
  /// statistics, not to reuse stale estimates.
  bool plan_cache = true;
  /// Opt-in adaptive statistics (ROADMAP "Adaptive feedback"): after a
  /// profiled run (Database::RunProfiled / ExplainAnalyze), per-operator
  /// actual cardinalities are fed back into the optimizer's statistics
  /// (GLogue pattern counts, TableStats scan selectivities, join-output
  /// corrections) via bounded exponential smoothing, and persist on the
  /// Database across queries. Off by default: with the flag off nothing
  /// is absorbed and — on a database that never absorbed feedback — all
  /// plans and estimates are bit-identical to the non-adaptive build.
  bool adaptive_stats = false;
  /// Record this query into the Database's process-wide MetricsRegistry
  /// (query/failure counters, optimization/execution latency histograms,
  /// feedback counters). Per-query granularity only — nothing per row or
  /// per morsel — so results are bit-identical either way; the off switch
  /// exists for A/B parity tests and to exclude a query from the fleet
  /// view (obs_test pins the parity).
  bool metrics = true;
  /// Slow-query log threshold: a query whose optimization + execution
  /// wall time reaches this many milliseconds is recorded as one
  /// structured line in the Database's SlowQueryLog. <= 0 disables.
  double slow_query_ms = 0.0;
  /// When set, the Database stores the query id it minted for this run
  /// (the same id that keys traces, the slow-query log, and the
  /// cancellation registry) before execution starts — the handle a
  /// controlling thread needs to call Database::CancelQuery on a query
  /// that is still in flight. Atomic because the controller typically
  /// spins on it from another thread. Null (default) skips the export.
  std::atomic<uint64_t>* query_id_out = nullptr;
};

/// Resolves ExecutionOptions::num_threads to a concrete worker count.
inline int ResolveNumThreads(const ExecutionOptions& options) {
  if (options.num_threads > 0) return options.num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Everything an operator needs to run: the base relations, the RGMapping
/// (vertex/edge label resolution), the graph index (may be absent for
/// index-free baselines), and the resource accounting state.
class ExecutionContext {
 public:
  ExecutionContext(const storage::Catalog* catalog,
                   const graph::RgMapping* mapping,
                   const graph::GraphIndex* index,
                   ExecutionOptions options = {})
      : catalog_(catalog),
        mapping_(mapping),
        index_(index),
        options_(options) {}

  const storage::Catalog& catalog() const { return *catalog_; }
  const graph::RgMapping& mapping() const { return *mapping_; }
  bool has_index() const { return index_ != nullptr && index_->built(); }
  const graph::GraphIndex& index() const { return *index_; }
  const ExecutionOptions& options() const { return options_; }

  /// Accounts for `rows` newly materialized tuples; kOutOfMemory when the
  /// budget is exceeded, kCancelled/kTimeout per CheckInterrupt.
  /// Thread-safe: the pipeline engine's workers charge concurrently.
  Status ChargeRows(uint64_t rows) {
    uint64_t total = rows_produced_.fetch_add(rows,
                                              std::memory_order_relaxed) +
                     rows;
    if (total > options_.max_total_rows) {
      return Status::OutOfMemory(
          "intermediate results exceeded " +
          std::to_string(options_.max_total_rows) + " rows");
    }
    return CheckInterrupt();
  }

  /// The single cooperative interrupt point of both engines (see the
  /// kInterruptCheckMask contract above): kCancelled once the query's
  /// cancel token fired (Database::CancelQuery / CancelAll / shutdown),
  /// kTimeout once the wall clock passed ExecutionOptions::timeout_ms.
  /// Cancellation wins ties — a cancelled query reports kCancelled even
  /// if its deadline also lapsed while it was being torn down.
  Status CheckInterrupt() const {
    if (cancelled_ != nullptr &&
        cancelled_->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query " + std::to_string(query_id_) +
                               " cancelled");
    }
    if (timer_.ElapsedMillis() > options_.timeout_ms) {
      return Status::Timeout("query exceeded " +
                             std::to_string(options_.timeout_ms) + " ms");
    }
    return Status::OK();
  }

  /// Wires the query's cancellation token (owned by the Database's query
  /// registry; null for standalone engine executions, which are then only
  /// interruptible by timeout) and the registry id CheckInterrupt reports.
  void SetCancelToken(const std::atomic<bool>* cancelled) {
    cancelled_ = cancelled;
  }
  const std::atomic<bool>* cancel_token() const { return cancelled_; }
  void SetQueryId(uint64_t id) { query_id_ = id; }
  uint64_t query_id() const { return query_id_; }

  uint64_t rows_produced() const {
    return rows_produced_.load(std::memory_order_relaxed);
  }
  double elapsed_ms() const { return timer_.ElapsedMillis(); }

  /// Enables per-operator profiling; measurements land in `profile`.
  void EnableProfiling(QueryProfile* profile) { profile_ = profile; }
  QueryProfile* profile() const { return profile_; }

  /// The process-wide worker pool this query's pipelines run on (set by
  /// Database; null for standalone engine executions, which then use a
  /// query-private pool).
  void SetScheduler(pipeline::TaskScheduler* scheduler) {
    scheduler_ = scheduler;
  }
  pipeline::TaskScheduler* scheduler() const { return scheduler_; }

  /// The Database's cross-query scan/filter cache; null when absent or
  /// disabled (ExecutionOptions::scan_cache).
  void SetScanCache(ScanCache* cache) { scan_cache_ = cache; }
  ScanCache* scan_cache() const { return scan_cache_; }

  /// The query's span recorder; null when tracing is off (the engine's
  /// span sites are one null check, mirroring profile()'s
  /// zero-cost-when-off discipline).
  void SetTrace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  /// Scan-cache hit accounting for this execution (thread-safe: scan
  /// Prepare may run concurrently across a query's pipelines). Surfaced
  /// as QueryProfile::scan_cache_hits and QueryRunResult.
  void CountScanCacheHit() {
    scan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t scan_cache_hits() const {
    return scan_cache_hits_.load(std::memory_order_relaxed);
  }

  /// --- Deferred scan-cache publication -------------------------------
  ///
  /// Failed (cancelled, timed-out, faulted) queries must never publish
  /// scan-cache entries, so the pipeline engine does not Put into the
  /// cache mid-query: completed filter bitmaps are queued here and the
  /// Database commits the queue only after the whole query succeeded
  /// (dropping it on any failure). Entries are complete and correct at
  /// queue time — deferral only narrows *when* they become visible to
  /// other queries. The queue site (FilterBitmap) runs in source and
  /// operator Prepare; a small mutex keeps the queue safe should a query
  /// ever prepare pipelines concurrently.

  void QueuePut(std::string key, uint64_t version,
                std::shared_ptr<const std::vector<uint8_t>> bitmap) {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    pending_puts_.push_back({std::move(key), version, std::move(bitmap)});
  }
  /// Publishes every queued entry into the attached scan cache (no-op
  /// without one). Called by the Database on query success only.
  void CommitScanCachePublications();
  void DropScanCachePublications() {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    pending_puts_.clear();
  }
  size_t pending_cache_publications() const {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    return pending_puts_.size();
  }

  /// Resolves the base table behind a vertex label.
  Result<storage::TablePtr> VertexTable(int vertex_label) const {
    return catalog_->GetTable(mapping_->vertex_mapping(vertex_label).table);
  }
  /// Resolves the base table behind an edge label.
  Result<storage::TablePtr> EdgeTable(int edge_label) const {
    return catalog_->GetTable(mapping_->edge_mapping(edge_label).table);
  }

 private:
  struct PendingCachePut {
    std::string key;
    uint64_t version = 0;
    std::shared_ptr<const std::vector<uint8_t>> bitmap;
  };

  const storage::Catalog* catalog_;
  const graph::RgMapping* mapping_;
  const graph::GraphIndex* index_;
  ExecutionOptions options_;
  Timer timer_;
  std::atomic<uint64_t> rows_produced_{0};
  QueryProfile* profile_ = nullptr;
  pipeline::TaskScheduler* scheduler_ = nullptr;
  ScanCache* scan_cache_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  std::atomic<uint64_t> scan_cache_hits_{0};
  const std::atomic<bool>* cancelled_ = nullptr;
  uint64_t query_id_ = 0;
  mutable std::mutex pending_puts_mu_;
  std::vector<PendingCachePut> pending_puts_;
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_CONTEXT_H_
