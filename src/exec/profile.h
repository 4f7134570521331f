#ifndef RELGO_EXEC_PROFILE_H_
#define RELGO_EXEC_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace relgo {

namespace plan {
struct PhysicalOp;
}  // namespace plan

namespace exec {

/// Per-operator runtime measurements collected when profiling is enabled
/// (EXPLAIN ANALYZE), keyed by physical plan node. Both engines feed the
/// same structure, with engine-specific time semantics:
///
///  * the materializing interpreter records one invocation per operator;
///    wall_ms is the operator's *subtree* wall time (children execute
///    inside the timed region — the engine is operator-at-a-time);
///  * the pipeline engine accumulates per-batch counters in thread-local
///    slots and merges them here once the pipeline drains: invocations =
///    batches processed (source morsels plus chunks), wall_ms = this
///    operator's cumulative Process time summed over workers (self time,
///    children excluded).
///
/// rows_out — the actual output cardinality — is engine-invariant (the
/// engines are bag-equivalent) and is what Q-error compares against.
/// rows_in is a per-engine diagnostic: for hash joins the materializing
/// engine sums both children while the pipeline engine counts probe-side
/// batches only (the build side is a separate profiled subtree).
struct OperatorProfile {
  uint64_t rows_in = 0;       ///< input tuples consumed (see note above)
  uint64_t rows_out = 0;      ///< output tuples produced (actual cardinality)
  uint64_t invocations = 0;   ///< calls: 1 (materialize) / batches (pipeline)
  double wall_ms = 0.0;       ///< operator time (see engine semantics above)

  void Accumulate(const OperatorProfile& other) {
    rows_in += other.rows_in;
    rows_out += other.rows_out;
    invocations += other.invocations;
    wall_ms += other.wall_ms;
  }
};

/// One executed pipeline of the morsel-driven engine, recorded so EXPLAIN
/// ANALYZE can render the pipeline-shaped (pipelines + breakers) form of
/// the plan. `stages` run bottom-up: source first, then streaming
/// operators. Breaker-only steps (NAIVE_MATCH, which materializes outside
/// any pipeline) appear as a trace with no stages and `breaker` set.
struct PipelineTrace {
  std::vector<const plan::PhysicalOp*> stages;  ///< source + streaming ops
  const plan::PhysicalOp* breaker = nullptr;    ///< sink/breaker plan node
  /// Second plan node fused into the same sink, rendered before `breaker`
  /// (the ORDER BY under a TOP_K sink's LIMIT); null otherwise.
  const plan::PhysicalOp* fused = nullptr;
  std::string sink;  ///< sink label, e.g. "MATERIALIZE"
  uint64_t morsels = 0;  ///< source morsels
  /// Tasks split off oversized operator outputs (kBatchRows-row chunks
  /// beyond each split's first, which its worker carries on itself).
  uint64_t chunks = 0;
  int threads = 1;  ///< fan-out width: max_workers once offered to the pool
  double wall_ms = 0.0;  ///< pipeline wall time (prepare -> sink finish)
};

/// Everything one profiled query execution produced, keyed by plan node so
/// it is independent of which engine ran the plan. Filling it is
/// single-threaded by construction: the pipeline engine merges thread-local
/// worker counters into it only at sink finish.
class QueryProfile {
 public:
  /// Adds `delta` onto the node's counters (creating the entry).
  void Accumulate(const plan::PhysicalOp* op, const OperatorProfile& delta) {
    ops_[op].Accumulate(delta);
  }

  const OperatorProfile* Find(const plan::PhysicalOp* op) const {
    auto it = ops_.find(op);
    return it == ops_.end() ? nullptr : &it->second;
  }

  void AddPipeline(PipelineTrace trace) {
    pipelines_.push_back(std::move(trace));
  }

  /// Serial-section accounting of the pipeline engine's breakers: wall time
  /// spent constructing shared JoinHashTables (after the parallel partition
  /// phase this is the parallel finalize, measured end-to-end) and wall
  /// time spent in sort/top-k sink finish (run sorting + merge). Recorded
  /// by the breaker sinks; BENCH_pipeline.json carries the totals as
  /// build_ms / sort_ms so the perf trajectory tracks how much of a query
  /// the breakers still serialize.
  void AddBuildMs(double ms) { build_ms_ += ms; }
  void AddSortMs(double ms) { sort_ms_ += ms; }
  double build_ms() const { return build_ms_; }
  double sort_ms() const { return sort_ms_; }

  /// Cross-query scan-cache hits of this execution (filtered scans whose
  /// selection vector was replayed instead of re-evaluated). Set once by
  /// Database::RunProfiled from the execution context's counter; rendered
  /// in EXPLAIN ANALYZE and recorded in BENCH_pipeline.json.
  void SetScanCacheHits(uint64_t hits) { scan_cache_hits_ = hits; }
  uint64_t scan_cache_hits() const { return scan_cache_hits_; }

  /// Whether this execution's plan came from the Database's cross-query
  /// plan cache (kHit: optimization skipped, cached template plan re-bound
  /// to this call's constants), was freshly optimized with the cache
  /// consulted (kMiss), or ran with the cache off / bypassed (kOff).
  enum class PlanCacheStatus { kOff, kMiss, kHit };
  void SetPlanCacheStatus(PlanCacheStatus s) { plan_cache_status_ = s; }
  PlanCacheStatus plan_cache_status() const { return plan_cache_status_; }

  const std::vector<PipelineTrace>& pipelines() const { return pipelines_; }
  size_t num_profiled_ops() const { return ops_.size(); }

 private:
  std::unordered_map<const plan::PhysicalOp*, OperatorProfile> ops_;
  std::vector<PipelineTrace> pipelines_;
  double build_ms_ = 0.0;
  double sort_ms_ = 0.0;
  uint64_t scan_cache_hits_ = 0;
  PlanCacheStatus plan_cache_status_ = PlanCacheStatus::kOff;
};

/// One estimate-vs-actual pair extracted from a profiled run for a plan
/// node that names its estimator input (PhysicalOp::feedback_key). This
/// is the record the adaptive-statistics sink (optimizer::StatsFeedback)
/// consumes to refine GLogue pattern counts and TableStats selectivities.
struct EstimateObservation {
  const plan::PhysicalOp* op = nullptr;  ///< node carrying feedback_key
  double estimated = 0.0;                ///< optimizer estimate
  uint64_t actual = 0;                   ///< measured rows_out
};

/// Collects the feedback observations of one profiled run: every plan
/// node with a non-empty feedback_key, a non-negative estimate, and a
/// measured actual cardinality (rows_out is engine-invariant, so the
/// observations are too).
std::vector<EstimateObservation> CollectObservations(
    const plan::PhysicalOp& root, const QueryProfile& profile);

/// Q-error of one estimate against the measured cardinality (Sec 5 style
/// accuracy metric): max(est/act, act/est), with both sides clamped to
/// >= 1 row so empty results do not divide by zero. Always >= 1.
double QError(double estimated, double actual);

/// Aggregate estimator accuracy over every plan node that carries both an
/// optimizer estimate and a measured actual cardinality.
struct QErrorSummary {
  int ops = 0;               ///< nodes with estimate + actual
  double geomean = 1.0;      ///< geometric mean Q-error
  double max_q = 1.0;        ///< worst single-operator Q-error
  const plan::PhysicalOp* worst = nullptr;  ///< node attaining max_q
};

QErrorSummary SummarizeQError(const plan::PhysicalOp& root,
                              const QueryProfile& profile);

/// Tree-shaped EXPLAIN ANALYZE rendering (the materializing engine's
/// execution shape): one indented line per operator, annotated with
/// estimated vs actual cardinality, per-operator Q-error, invocation count
/// and operator time.
std::string RenderAnalyzedTree(const plan::PhysicalOp& root,
                               const QueryProfile& profile);

/// Pipeline-shaped rendering (the morsel-driven engine's execution shape):
/// pipelines in execution order, each listing source -> streaming ops ->
/// sink, with the same per-operator annotations, followed by breaker
/// steps that materialize between pipelines.
std::string RenderAnalyzedPipelines(const plan::PhysicalOp& root,
                                    const QueryProfile& profile);

/// One-line aggregate footer, e.g.
/// "q-error: geomean=1.42 max=13.07 over 9 operators".
std::string RenderQErrorFooter(const plan::PhysicalOp& root,
                               const QueryProfile& profile);

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PROFILE_H_
