#ifndef RELGO_EXEC_PIPELINE_PIPELINE_H_
#define RELGO_EXEC_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/exec_common.h"
#include "exec/pipeline/operators.h"
#include "exec/pipeline/scheduler.h"

namespace relgo {
namespace exec {
namespace pipeline {

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Produces the driving batches of a pipeline. `num_rows()` defines the
/// morsel space: the scheduler partitions [0, num_rows) into kBatchRows
/// ranges and workers call Emit() on claimed ranges concurrently.
class Source {
 public:
  virtual ~Source() = default;
  virtual Status Prepare(ExecutionContext* ctx) = 0;
  const storage::Schema& output_schema() const { return output_schema_; }
  virtual uint64_t num_rows() const = 0;
  virtual Status Emit(uint64_t begin, uint64_t count, Batch* out,
                      ExecutionContext* ctx) const = 0;

 protected:
  storage::Schema output_schema_;
};

using SourcePtr = std::unique_ptr<Source>;

/// Streams an already-materialized table (a breaker's output, or a hash
/// join's probe feed). Whole-table morsels share columns zero-copy.
class TableSource : public Source {
 public:
  explicit TableSource(storage::TablePtr table) : table_(std::move(table)) {}
  Status Prepare(ExecutionContext* ctx) override;
  uint64_t num_rows() const override { return table_->num_rows(); }
  Status Emit(uint64_t begin, uint64_t count, Batch* out,
              ExecutionContext* ctx) const override;

 private:
  storage::TablePtr table_;
};

/// PhysScanTable over a base relation: filter + projection + optional
/// "$rid" column. The filter is evaluated once per table in Prepare
/// (FilterBitmap, replayed from the cross-query scan cache when any
/// earlier scan or expansion filtered this table with the same
/// predicate); each morsel turns its range of the bitmap into the
/// selection it gathers.
class ScanTableSource : public Source {
 public:
  explicit ScanTableSource(const plan::PhysScanTable& op) : op_(op) {}
  Status Prepare(ExecutionContext* ctx) override;
  uint64_t num_rows() const override { return table_->num_rows(); }
  Status Emit(uint64_t begin, uint64_t count, Batch* out,
              ExecutionContext* ctx) const override;

 private:
  const plan::PhysScanTable& op_;
  storage::TablePtr table_;
  SharedBitmap bitmap_;  ///< rows passing op_.filter; empty: all rows
  std::vector<int> raw_indexes_;
};

/// PhysScanVertex: emits the row ids of the (optionally filtered) vertex
/// relation as one binding column, selected through the same per-table
/// filter bitmap as ScanTableSource.
class ScanVertexSource : public Source {
 public:
  explicit ScanVertexSource(const plan::PhysScanVertex& op) : op_(op) {}
  Status Prepare(ExecutionContext* ctx) override;
  uint64_t num_rows() const override { return vtable_->num_rows(); }
  Status Emit(uint64_t begin, uint64_t count, Batch* out,
              ExecutionContext* ctx) const override;

 private:
  const plan::PhysScanVertex& op_;
  storage::TablePtr vtable_;
  SharedBitmap bitmap_;  ///< see ScanTableSource
};

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

/// One source → streaming ops → sink segment of a decomposed plan.
///
/// The plan-node pointers mirror `source` / `ops` and exist purely for
/// profiling (EXPLAIN ANALYZE): when the execution context carries a
/// QueryProfile, RunPipeline attributes per-morsel row counts and timings
/// to these nodes. `source_node` is null when the source streams a
/// materialized breaker result (TableSource) — that subtree was profiled
/// by its own pipelines already.
struct Pipeline {
  SourcePtr source;
  std::vector<StreamingOpPtr> ops;
  const plan::PhysicalOp* source_node = nullptr;
  std::vector<const plan::PhysicalOp*> op_nodes;
};

/// Prepares every stage (resolving schemas source → ops → sink), then runs
/// the pipeline morsel-by-morsel on `scheduler` and returns the sink's
/// merged result. Honors the context's row budget and timeout: workers
/// check the clock per morsel and charge rows per batch, and the first
/// failing morsel aborts the run.
Result<storage::TablePtr> RunPipeline(Pipeline* pipeline, Sink* sink,
                                      TaskScheduler* scheduler,
                                      ExecutionContext* ctx);

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_PIPELINE_H_
