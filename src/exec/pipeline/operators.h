#ifndef RELGO_EXEC_PIPELINE_OPERATORS_H_
#define RELGO_EXEC_PIPELINE_OPERATORS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/context.h"
#include "exec/exec_common.h"
#include "exec/join_hash_table.h"
#include "exec/pipeline/batch.h"
#include "exec/vector/compiled_expr.h"
#include "exec/vector/typed_keys.h"
#include "plan/physical_plan.h"

namespace relgo {
namespace exec {
namespace pipeline {

class TaskScheduler;

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

/// A non-blocking operator of a pipeline: consumes one batch, produces one
/// batch (possibly larger — expansions — or smaller — filters).
///
/// Lifecycle: Prepare() runs once, single-threaded, before the pipeline is
/// scheduled; it resolves column indexes against the input schema, binds
/// expressions, and precomputes shared read-only state (base-table filter
/// bitmaps, index-free fallback hash tables). Process() is const and must
/// be thread-safe: the scheduler calls it concurrently on distinct batches.
class StreamingOp {
 public:
  virtual ~StreamingOp() = default;

  virtual Status Prepare(const storage::Schema& input,
                         ExecutionContext* ctx) = 0;
  const storage::Schema& output_schema() const { return output_schema_; }

  virtual Status Process(const Batch& in, Batch* out,
                         ExecutionContext* ctx) const = 0;

 protected:
  storage::Schema output_schema_;
};

using StreamingOpPtr = std::unique_ptr<StreamingOp>;

/// sigma over the streamed schema (PhysFilter).
class FilterOp : public StreamingOp {
 public:
  explicit FilterOp(const plan::PhysFilter& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysFilter& op_;
  /// Bound per-execution clone of op_.predicate (plans can share
  /// expression trees with their query; Bind mutates, so concurrent
  /// executions each bind their own copy).
  storage::ExprPtr predicate_;
  /// Vectorized lowering of predicate_ (null when the tree is outside
  /// the lowerable subset); Process then falls back to row-at-a-time
  /// EvaluateBool.
  std::unique_ptr<vector::CompiledPredicate> compiled_;
};

/// pi with renaming (PhysProject); pure column sharing, zero-copy.
class ProjectOp : public StreamingOp {
 public:
  explicit ProjectOp(const plan::PhysProject& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysProject& op_;
  std::vector<size_t> src_cols_;
};

/// Probe side of a hash join whose build side was materialized AND hashed
/// by an upstream pipeline ending in a HashBuildSink (PhysHashJoin and
/// PhysPatternJoin both lower to this; the pattern join passes its shared
/// variables as drop_right). The JoinHashTable arrives fully constructed —
/// partition-parallel, see HashBuildSink — so Prepare only resolves the
/// probe-side columns and the output schema.
class HashJoinProbeOp : public StreamingOp {
 public:
  HashJoinProbeOp(std::vector<std::string> left_keys,
                  std::vector<std::string> drop_right,
                  storage::TablePtr build,
                  std::shared_ptr<const JoinHashTable> ht)
      : left_keys_(std::move(left_keys)),
        drop_right_(std::move(drop_right)),
        build_(std::move(build)),
        ht_(std::move(ht)) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  std::vector<std::string> left_keys_, drop_right_;
  storage::TablePtr build_;
  std::shared_ptr<const JoinHashTable> ht_;
  std::vector<size_t> probe_cols_;
  std::vector<size_t> build_out_cols_;  // build columns kept in the output
};

/// GRainDB predefined join, edge side driving (PhysRidLookupJoin).
class RidLookupJoinOp : public StreamingOp {
 public:
  explicit RidLookupJoinOp(const plan::PhysRidLookupJoin& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysRidLookupJoin& op_;
  size_t rid_col_ = 0;
  storage::TablePtr vtable_;
  SharedBitmap bitmap_;
  std::vector<int> raw_indexes_;
};

/// GRainDB predefined join, vertex side driving (PhysRidExpandJoin).
class RidExpandJoinOp : public StreamingOp {
 public:
  explicit RidExpandJoinOp(const plan::PhysRidExpandJoin& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysRidExpandJoin& op_;
  size_t rid_col_ = 0;
  storage::TablePtr etable_;
  SharedBitmap bitmap_;
  std::vector<int> raw_indexes_;
};

/// EXPAND_EDGE (PhysExpandEdge): one output row per incident edge.
class ExpandEdgeOp : public StreamingOp {
 public:
  explicit ExpandEdgeOp(const plan::PhysExpandEdge& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysExpandEdge& op_;
  size_t from_col_ = 0;
  SharedBitmap bitmap_;
};

/// GET_VERTEX (PhysGetVertex): edge binding -> endpoint binding.
class GetVertexOp : public StreamingOp {
 public:
  explicit GetVertexOp(const plan::PhysGetVertex& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysGetVertex& op_;
  size_t edge_col_ = 0;
  SharedBitmap bitmap_;
};

/// Fused EXPAND (PhysExpand). With the graph index, streams the VE-index
/// adjacency; without it (RelGoHash), probes an FK hash table over the edge
/// relation built once during Prepare (Case II reduction).
class ExpandOp : public StreamingOp {
 public:
  explicit ExpandOp(const plan::PhysExpand& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysExpand& op_;
  size_t from_col_ = 0;
  bool use_index_ = false;
  SharedBitmap bitmap_;
  // Index-free fallback state (all read-only after Prepare). The TablePtrs
  // keep the borrowed column/index pointers alive.
  storage::TablePtr etable_, from_table_, to_table_;
  const storage::Column* from_key_col_ = nullptr;
  const storage::Column* to_fk_col_ = nullptr;
  const std::unordered_map<int64_t, uint64_t>* to_key_index_ = nullptr;
  std::unordered_map<int64_t, std::vector<uint64_t>> fk_to_edges_;
};

/// EXPAND_INTERSECT (PhysExpandIntersect): k-way sorted adjacency
/// intersection, the wco star join.
class ExpandIntersectOp : public StreamingOp {
 public:
  explicit ExpandIntersectOp(const plan::PhysExpandIntersect& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysExpandIntersect& op_;
  std::vector<size_t> from_cols_;
  SharedBitmap bitmap_;
  bool want_edges_ = false;
};

/// EDGE_VERIFY (PhysEdgeVerify): closes one edge between two bound
/// vertices; binary search of the sorted adjacency run, or a
/// (src_key, dst_key) hash probe when the index is bypassed.
class EdgeVerifyOp : public StreamingOp {
 public:
  explicit EdgeVerifyOp(const plan::PhysEdgeVerify& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysEdgeVerify& op_;
  size_t src_col_ = 0, dst_col_ = 0;
  bool use_index_ = false;
  storage::TablePtr stable_, dtable_;
  const storage::Column* skey_ = nullptr;
  const storage::Column* dkey_ = nullptr;
  std::unordered_map<std::pair<int64_t, int64_t>, std::vector<uint64_t>,
                     PairHash>
      key_to_edges_;
};

/// VERTEX_FILTER (PhysVertexFilter): bitmap membership of the bound row id.
class VertexFilterOp : public StreamingOp {
 public:
  explicit VertexFilterOp(const plan::PhysVertexFilter& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysVertexFilter& op_;
  size_t var_col_ = 0;
  SharedBitmap bitmap_;
};

/// NOT_EQUAL (PhysNotEqual): all-distinct constraint between two vars.
class NotEqualOp : public StreamingOp {
 public:
  explicit NotEqualOp(const plan::PhysNotEqual& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysNotEqual& op_;
  size_t a_col_ = 0, b_col_ = 0;
};

/// SCAN_GRAPH_TABLE's pi-hat projection (PhysScanGraphTable): flattens the
/// streamed binding table into relational columns. The graph sub-plan below
/// it is part of the same pipeline — binding tuples flow through the bridge
/// without materializing.
class ScanGraphTableOp : public StreamingOp {
 public:
  explicit ScanGraphTableOp(const plan::PhysScanGraphTable& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  struct Source {
    storage::TablePtr base;
    int raw_col = -1;  // -1 == the row id itself
    size_t binding_col = 0;
  };
  const plan::PhysScanGraphTable& op_;
  std::vector<Source> sources_;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Per-worker sink partial state; merged once the pipeline drains.
struct SinkState {
  virtual ~SinkState() = default;
};

/// Terminal consumer of a pipeline. Consume() runs concurrently, but each
/// worker owns a private SinkState, so no synchronization is needed until
/// Finish() merges the partials on the owning thread — with the query's
/// TaskScheduler in hand, so breaker work that parallelizes (hash-table
/// finalize, sort-run sorting) can fan back out.
///
/// `seq` is the batch's sequence key: its source morsel, then the chunk
/// index at each split of an oversized operator output (see SeqKey and
/// RunPipeline). Sinks merge in lexicographic (seq, row) order, which
/// makes the pipeline result *order* deterministic and equal to the
/// sequential (and materializing-executor) order regardless of thread
/// count or how batches were chunked — required so ORDER BY + LIMIT
/// breaks ties identically across engines.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status Prepare(const storage::Schema& input,
                         ExecutionContext* ctx) = 0;
  virtual std::unique_ptr<SinkState> MakeState() const = 0;
  virtual Status Consume(SinkState* state, const Batch& in, const SeqKey& seq,
                         ExecutionContext* ctx) const = 0;
  virtual Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) = 0;

  /// The breaker plan node this sink implements (profiling attribution);
  /// null for plain materialization, whose rows belong to the last
  /// streaming operator.
  virtual const plan::PhysicalOp* plan_node() const { return nullptr; }
  /// A second breaker plan node fused below plan_node() into the same sink
  /// (the ORDER BY a TOP_K sink absorbs under its LIMIT); null otherwise.
  /// Its profile entry is recorded by the sink itself during Finish.
  virtual const plan::PhysicalOp* fused_node() const { return nullptr; }
  /// Short label for pipeline-shaped EXPLAIN ANALYZE rendering.
  virtual const char* label() const { return "MATERIALIZE"; }
  /// True once consuming further batches cannot change the result (LIMIT
  /// early-exit). The scheduler still claims the remaining morsels and
  /// chunks but skips their source emit and operator work. Must only
  /// depend on *contiguous-prefix* completion (see MorselFinished): a
  /// morsel being checked may have been claimed before later morsels
  /// completed.
  virtual bool Saturated() const { return false; }
  /// Called once per source morsel after its last task finished — the
  /// morsel's own and every chunk split off below it; each consumed,
  /// emitted zero rows, or was skipped because Saturated() — with the row
  /// count the morsel contributed. Thread-safe like Consume. Default
  /// no-op; TopKSink uses it to advance its completed-morsel frontier.
  virtual void MorselFinished(uint64_t morsel, uint64_t rows) const {
    (void)morsel;
    (void)rows;
  }
};

/// Collects (seq, batch) pairs per worker and concatenates them in
/// sequence order into one Table (pipeline feeding a breaker, or the query
/// result).
class MaterializeSink : public Sink {
 public:
  explicit MaterializeSink(std::string name) : name_(std::move(name)) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, const SeqKey& seq,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;

 private:
  std::string name_;
  storage::Schema schema_;
};

/// Materializes a join build side AND constructs the shared JoinHashTable,
/// partition-parallel (PhysHashJoin / PhysPatternJoin build sides):
/// Consume collects per-worker (seq, batch) lists like MaterializeSink;
/// Finish concatenates them in sequence order, then builds the hash table in
/// two parallel phases on the query's scheduler — morsel-parallel scatter
/// into per-worker partition runs, then partition-parallel finalize into
/// the preallocated shard directory (JoinHashTable's two-phase API). The
/// build wall time is recorded as breaker build time on the owning join
/// node, and the finished table plus hash table are handed to
/// HashJoinProbeOp, whose probe path is unchanged.
class HashBuildSink : public Sink {
 public:
  HashBuildSink(std::vector<std::string> keys,
                const plan::PhysicalOp* join_node)
      : keys_(std::move(keys)), join_node_(join_node) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, const SeqKey& seq,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;
  const char* label() const override { return "HASH_BUILD"; }

  /// The constructed hash table; valid after a successful Finish. Shared
  /// with the probe operator (which holds the build table alive).
  std::shared_ptr<const JoinHashTable> hash_table() const { return ht_; }

 private:
  std::vector<std::string> keys_;
  const plan::PhysicalOp* join_node_;
  storage::Schema schema_;
  std::shared_ptr<JoinHashTable> ht_;
};

/// In-pipeline ORDER BY / LIMIT sink replacing the old materializing
/// post-op path: the three output-clause shapes run as one sink at the end
/// of the probe pipeline instead of materializing between pipelines.
///
///  * ORDER BY + LIMIT k (top-k): each worker keeps a bounded max-heap of
///    its k best rows; Finish merges the <= workers*k candidates and sorts
///    them once. Rows past a full heap's fence are discarded O(1).
///  * ORDER BY without LIMIT: workers collect their batches; Finish sorts
///    per-chunk runs in parallel on the scheduler and k-way merges them —
///    a parallel merge sort over the sequence-ordered row space.
///  * LIMIT without ORDER BY: workers collect batches until the rows of
///    the *contiguous completed-morsel prefix* reach k (Saturated() — an
///    exact early-exit: once morsels [0, f) are all finished, chunks
///    included, and hold >= k rows, no batch of a morsel >= f can
///    contribute to the first k; a batch being skipped is never inside
///    the prefix, because its morsel still has this task open). The
///    frontier advances in MorselFinished, which also counts empty and
///    skipped morsels. Finish truncates the sequence-ordered
///    concatenation. Early-exit is disabled while profiling so per-node
///    actual row counts stay engine-invariant.
///
/// Every comparison tie-breaks on the global (seq, row) order, which
/// equals the sequential scan order — so the selected rows and their order
/// match the materializing engine's stable sort exactly, independent of
/// thread count.
class TopKSink : public Sink {
 public:
  /// `order` may be null (plain LIMIT); `limit_node` may be null (plain
  /// ORDER BY, pass limit = -1). At least one must be set.
  TopKSink(const plan::PhysOrderBy* order, const plan::PhysLimit* limit_node,
           int64_t limit)
      : order_(order), limit_node_(limit_node), limit_(limit) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, const SeqKey& seq,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;
  const plan::PhysicalOp* plan_node() const override {
    return limit_node_ != nullptr
               ? static_cast<const plan::PhysicalOp*>(limit_node_)
               : static_cast<const plan::PhysicalOp*>(order_);
  }
  const plan::PhysicalOp* fused_node() const override {
    return limit_node_ != nullptr && order_ != nullptr
               ? static_cast<const plan::PhysicalOp*>(order_)
               : nullptr;
  }
  const char* label() const override {
    if (order_ == nullptr) return "LIMIT";
    return limit_node_ != nullptr ? "TOP_K" : "ORDER_BY";
  }
  bool Saturated() const override {
    return early_exit_ &&
           prefix_rows_.load(std::memory_order_relaxed) >=
               static_cast<uint64_t>(limit_);
  }
  void MorselFinished(uint64_t morsel, uint64_t rows) const override;

 private:
  /// Above this k, bounded per-worker heaps of Value rows cost more memory
  /// than collecting batches; fall back to sort-then-truncate.
  static constexpr int64_t kMaxHeapLimit = 1 << 14;

  bool HeapMode() const {
    return order_ != nullptr && limit_ >= 0 && limit_ <= kMaxHeapLimit;
  }

  const plan::PhysOrderBy* order_;
  const plan::PhysLimit* limit_node_;
  int64_t limit_;
  storage::Schema schema_;
  std::vector<size_t> key_cols_;
  bool early_exit_ = false;  // plain LIMIT, profiling off

  // Completed-morsel frontier (early-exit mode only): morsels [0,
  // frontier_next_) have all finished and contributed frontier-counted
  // rows; finished morsels beyond the frontier wait in pending_.
  // prefix_rows_ mirrors the frontier row count for lock-free Saturated().
  mutable std::mutex exit_mu_;
  mutable uint64_t frontier_next_ = 0;
  mutable std::map<uint64_t, uint64_t> pending_;  // finished morsel -> rows
  mutable std::atomic<uint64_t> prefix_rows_{0};
};

/// Parallel hash aggregation (PhysHashAggregate): each worker accumulates a
/// thread-local partial group table; Finish() merges the partials
/// (count/sum add, min/max combine) in first-seen (seq, row) order and
/// emits seed-identical output, including the SQL one-row global aggregate
/// over empty input.
class AggregateSink : public Sink {
 public:
  explicit AggregateSink(const plan::PhysHashAggregate& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, const SeqKey& seq,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;
  const plan::PhysicalOp* plan_node() const override { return &op_; }
  const char* label() const override { return "HASH_AGGREGATE"; }

 private:
  const plan::PhysHashAggregate& op_;
  storage::Schema input_schema_;
  std::vector<size_t> group_cols_;
  std::vector<int> agg_cols_;
  /// Typed group-key codec: workers key their partial maps on
  /// byte-encoded keys read from payload spans instead of boxed Value
  /// vectors. Const (its dictionary pinning is call_once), so shared
  /// across workers.
  std::unique_ptr<vector::KeyEncoder> encoder_;
};

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_OPERATORS_H_
