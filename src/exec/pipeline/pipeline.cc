#include "exec/pipeline/pipeline.h"

#include <algorithm>
#include <mutex>

#include "common/fault.h"
#include "exec/exec_common.h"
#include "obs/trace.h"

namespace relgo {
namespace exec {
namespace pipeline {

using storage::Column;
using storage::Schema;

// ---------------------------------------------------------------------------
// TableSource
// ---------------------------------------------------------------------------

Status TableSource::Prepare(ExecutionContext* ctx) {
  (void)ctx;
  output_schema_ = table_->schema();
  return Status::OK();
}

Status TableSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                         ExecutionContext* ctx) const {
  (void)ctx;
  *out = SliceTable(table_, begin, count);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Filtered scan sources
// ---------------------------------------------------------------------------

namespace {

/// The rows of morsel [begin, begin + count) that `bitmap` passes — every
/// row when it is empty (no filter) — in ascending order.
std::vector<uint64_t> SelectRange(const SharedBitmap& bitmap, uint64_t begin,
                                  uint64_t count) {
  std::vector<uint64_t> sel(count);
  if (bitmap.empty()) {
    for (uint64_t i = 0; i < count; ++i) sel[i] = begin + i;
    return sel;
  }
  // Branch-free compaction: bitmap bytes are 0 or 1.
  const uint8_t* bits = bitmap.data()->data() + begin;
  size_t n = 0;
  for (uint64_t i = 0; i < count; ++i) {
    sel[n] = begin + i;
    n += bits[i];
  }
  sel.resize(n);
  return sel;
}

}  // namespace

Status ScanTableSource::Prepare(ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(table_, ctx->catalog().GetTable(op_.table));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(table_, op_.filter, ctx));
  raw_indexes_.clear();
  output_schema_ = ScanSchema(*table_, op_.alias, op_.projected_columns,
                              op_.emit_rowid, &raw_indexes_);
  return Status::OK();
}

Status ScanTableSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                             ExecutionContext* ctx) const {
  std::vector<uint64_t> sel = SelectRange(bitmap_, begin, count);
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));

  if (op_.emit_rowid) {
    Column rid(LogicalType::kInt64);
    rid.Reserve(sel.size());
    for (uint64_t r : sel) rid.AppendInt(static_cast<int64_t>(r));
    out->AddOwned(std::move(rid));
  }
  bool whole_unfiltered = bitmap_.empty() && begin == 0 &&
                          count == table_->num_rows();
  for (int raw : raw_indexes_) {
    if (whole_unfiltered) {
      out->AddColumn(ShareTableColumn(table_, static_cast<size_t>(raw)));
    } else {
      out->AddOwned(table_->column(static_cast<size_t>(raw)).Gather(sel));
    }
  }
  out->SetNumRows(sel.size());
  return Status::OK();
}

Status ScanVertexSource::Prepare(ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(vtable_, ctx->VertexTable(op_.vertex_label));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(vtable_, op_.filter, ctx));
  output_schema_ = BindingSchema({op_.var});
  return Status::OK();
}

Status ScanVertexSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                              ExecutionContext* ctx) const {
  std::vector<uint64_t> sel = SelectRange(bitmap_, begin, count);
  Column col(LogicalType::kInt64);
  col.Reserve(sel.size());
  for (uint64_t r : sel) col.AppendInt(static_cast<int64_t>(r));
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(col.size()));
  uint64_t n = col.size();
  out->AddOwned(std::move(col));
  out->SetNumRows(n);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RunPipeline
// ---------------------------------------------------------------------------

namespace {

/// One task's unit of work: a source morsel (`parent` null, resume at op
/// 0) or a chunk of an oversized operator output — rows [begin, begin +
/// count) of `parent`, run from op `resume_at` on.
struct PipelineTask {
  SeqKey seq;
  size_t resume_at = 0;
  std::shared_ptr<const Batch> parent;
  uint64_t begin = 0;
  uint64_t count = 0;
};

/// The work of one pipeline run: a LIFO of pending chunks over the source
/// morsel space. Each scheduler task claims exactly one unit — the newest
/// pending chunk, else the next source morsel — so a worker finishing a
/// chunk continues with its siblings' descendants first (depth-first),
/// and pending chunks never hold more than a few expansion levels.
class TaskQueue {
 public:
  PipelineTask Claim() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) {
      PipelineTask task;
      task.seq.push_back(next_morsel_++);
      return task;
    }
    PipelineTask task = std::move(pending_.back());
    pending_.pop_back();
    return task;
  }

  /// Queues chunks 1..n-1 of `parent` (chunk 0 stays with the caller),
  /// chunk 1 on top.
  void PushChunks(const SeqKey& seq, size_t resume_at,
                  const std::shared_ptr<const Batch>& parent,
                  uint64_t chunks) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t c = chunks - 1; c >= 1; --c) {
      PipelineTask task;
      task.seq = seq;
      task.seq.push_back(c);
      task.resume_at = resume_at;
      task.parent = parent;
      task.begin = c * kBatchRows;
      task.count = std::min(kBatchRows, parent->num_rows() - task.begin);
      pending_.push_back(std::move(task));
    }
  }

 private:
  std::mutex mu_;
  std::vector<PipelineTask> pending_;  // guarded by mu_
  uint64_t next_morsel_ = 0;           // guarded by mu_
};

/// Completion of one source morsel: its tasks still running or pending
/// (the morsel's own plus every chunk split off below it) and the rows
/// they handed to the sink.
struct MorselProgress {
  std::atomic<uint64_t> open{1};
  std::atomic<uint64_t> rows{0};
};

void RecordStage(OperatorProfile* slot, uint64_t rows_in, uint64_t rows_out,
                 double ms) {
  slot->wall_ms += ms;
  slot->rows_in += rows_in;
  slot->rows_out += rows_out;
  slot->invocations += 1;
}

}  // namespace

Result<storage::TablePtr> RunPipeline(Pipeline* pipeline, Sink* sink,
                                      TaskScheduler* scheduler,
                                      ExecutionContext* ctx) {
  RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
  QueryProfile* qp = ctx->profile();
  obs::TraceRecorder* tr = ctx->trace();
  Timer pipeline_timer;

  // Single-threaded stage resolution: schemas, expression binding, shared
  // read-only operator state.
  double build_start = tr != nullptr ? obs::TraceNowMs() : 0.0;
  RELGO_RETURN_NOT_OK(pipeline->source->Prepare(ctx));
  const Schema* schema = &pipeline->source->output_schema();
  for (auto& op : pipeline->ops) {
    RELGO_RETURN_NOT_OK(op->Prepare(*schema, ctx));
    schema = &op->output_schema();
  }
  RELGO_RETURN_NOT_OK(sink->Prepare(*schema, ctx));
  if (tr != nullptr) {
    tr->Record("pipeline_build", "pipeline", build_start,
               {{"sink", sink->label()},
                {"ops", std::to_string(pipeline->ops.size())}});
  }

  const Source& source = *pipeline->source;
  const std::vector<StreamingOpPtr>& ops = pipeline->ops;
  uint64_t total_rows = source.num_rows();
  uint64_t morsels = (total_rows + kBatchRows - 1) / kBatchRows;

  // The query's fan-out width on the shared pool: slot ids (sink states,
  // profile slots) live in [0, max_workers).
  int max_workers = ResolveNumThreads(ctx->options());
  std::vector<std::unique_ptr<SinkState>> states;
  states.reserve(max_workers);
  for (int i = 0; i < max_workers; ++i) {
    states.push_back(sink->MakeState());
  }

  // Profiling: each worker accumulates rows in/out, invocations and stage
  // timings into its private slot vector — no shared state, so profiling
  // never serializes workers. Slot 0 is the source, slots 1..N the
  // streaming ops, slot N+1 the sink's Consume side.
  std::vector<std::vector<OperatorProfile>> worker_profs;
  if (qp != nullptr) {
    worker_profs.assign(static_cast<size_t>(max_workers),
                        std::vector<OperatorProfile>(ops.size() + 2));
  }

  TaskQueue queue;
  std::vector<MorselProgress> progress(static_cast<size_t>(morsels));
  std::atomic<uint64_t> chunks{0};

  // Reports a finished task's rows; the morsel's last task reports the
  // morsel (LIMIT early-exit tracks its contiguous completed prefix).
  auto finish_task = [&](uint64_t morsel, uint64_t rows) {
    MorselProgress& p = progress[morsel];
    if (rows != 0) p.rows.fetch_add(rows, std::memory_order_relaxed);
    if (p.open.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      sink->MorselFinished(morsel, p.rows.load(std::memory_order_relaxed));
    }
  };

  // The morsel body. Any operator output over kBatchRows rows is cut into
  // kBatchRows chunks: this worker carries chunk 0 on down the chain, the
  // rest become tasks of the running job (sliced from the shared parent
  // only when claimed, so the parent dies with its last chunk). Every
  // non-error exit finishes the task, so the morsel's completion stays
  // exact.
  auto run_task = [&](int slot,
                      const TaskScheduler::Spawner& spawner) -> Status {
    // Every task — source morsel or chunk — is a morsel boundary: one
    // interrupt check per at most kBatchRows input rows (the pipeline half
    // of the kInterruptCheckMask latency contract) plus the fault site.
    RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
    RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kMorselBoundary));
    PipelineTask task = queue.Claim();
    uint64_t morsel = task.seq[0];
    if (sink->Saturated()) {  // LIMIT early-exit
      finish_task(morsel, 0);
      return Status::OK();
    }
    OperatorProfile* prof = qp != nullptr ? worker_profs[slot].data() : nullptr;
    Timer timer;
    Batch batch;
    if (task.parent == nullptr) {
      uint64_t begin = morsel * kBatchRows;
      uint64_t count = std::min(kBatchRows, total_rows - begin);
      RELGO_RETURN_NOT_OK(source.Emit(begin, count, &batch, ctx));
      if (prof != nullptr) {
        RecordStage(&prof[0], count, batch.num_rows(), timer.ElapsedMillis());
      }
    } else {
      batch = task.parent->Slice(task.begin, task.count);
      task.parent.reset();
    }
    for (size_t i = task.resume_at; i < ops.size(); ++i) {
      if (batch.num_rows() == 0) break;
      Batch next;
      if (prof != nullptr) timer.Restart();
      RELGO_RETURN_NOT_OK(ops[i]->Process(batch, &next, ctx));
      if (prof != nullptr) {
        RecordStage(&prof[i + 1], batch.num_rows(), next.num_rows(),
                    timer.ElapsedMillis());
      }
      uint64_t n = next.num_rows();
      if (n <= kBatchRows) {
        batch = std::move(next);
        continue;
      }
      uint64_t split = (n + kBatchRows - 1) / kBatchRows;
      auto parent = std::make_shared<const Batch>(std::move(next));
      // Count the chunks as open before any can be claimed (and finish).
      progress[morsel].open.fetch_add(split - 1, std::memory_order_relaxed);
      chunks.fetch_add(split - 1, std::memory_order_relaxed);
      queue.PushChunks(task.seq, i + 1, parent, split);
      spawner.Spawn(split - 1);
      batch = parent->Slice(0, kBatchRows);
      task.seq.push_back(0);
    }
    uint64_t rows = batch.num_rows();
    if (rows != 0) {
      if (prof != nullptr) timer.Restart();
      RELGO_RETURN_NOT_OK(
          sink->Consume(states[slot].get(), batch, task.seq, ctx));
      if (prof != nullptr) {
        RecordStage(&prof[ops.size() + 1], rows, 0, timer.ElapsedMillis());
      }
    }
    finish_task(morsel, rows);
    return Status::OK();
  };

  int run_workers = 1;
  double run_start = tr != nullptr ? obs::TraceNowMs() : 0.0;
  Status run_status =
      scheduler->RunTasks(morsels, max_workers, run_task, &run_workers);
  uint64_t chunk_count = chunks.load(std::memory_order_relaxed);
  if (tr != nullptr) {
    tr->Record("pipeline_run", "pipeline", run_start,
               {{"sink", sink->label()},
                {"morsels", std::to_string(morsels)},
                {"chunks", std::to_string(chunk_count)},
                {"workers", std::to_string(run_workers)},
                {"status", run_status.ok() ? "ok" : run_status.ToString()}});
  }
  RELGO_RETURN_NOT_OK(run_status);
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kSinkFinish));
  double sink_start = tr != nullptr ? obs::TraceNowMs() : 0.0;
  Timer finish_timer;
  auto finished = sink->Finish(std::move(states), scheduler, ctx);
  double finish_ms = finish_timer.ElapsedMillis();
  if (tr != nullptr) {
    tr->Record("sink_finish", "pipeline", sink_start,
               {{"sink", sink->label()}});
  }

  if (qp != nullptr) {
    // Back on the owning thread: merge the thread-local counters into the
    // query profile and record the pipeline's shape for EXPLAIN ANALYZE.
    std::vector<OperatorProfile> merged(pipeline->ops.size() + 2);
    for (const auto& slots : worker_profs) {
      for (size_t s = 0; s < slots.size(); ++s) merged[s].Accumulate(slots[s]);
    }
    if (pipeline->source_node != nullptr) {
      qp->Accumulate(pipeline->source_node, merged[0]);
    }
    for (size_t i = 0; i < pipeline->op_nodes.size(); ++i) {
      if (pipeline->op_nodes[i] != nullptr) {
        qp->Accumulate(pipeline->op_nodes[i], merged[i + 1]);
      }
    }
    if (sink->plan_node() != nullptr) {
      OperatorProfile sink_prof = merged[pipeline->ops.size() + 1];
      // The single-threaded partial merge (e.g. AggregateSink combining
      // per-worker group tables) belongs to the breaker's cost too.
      sink_prof.wall_ms += finish_ms;
      if (finished.ok()) sink_prof.rows_out = (*finished)->num_rows();
      qp->Accumulate(sink->plan_node(), sink_prof);
    }
    PipelineTrace trace;
    trace.stages.push_back(pipeline->source_node);
    for (const plan::PhysicalOp* node : pipeline->op_nodes) {
      trace.stages.push_back(node);
    }
    trace.breaker = sink->plan_node();
    trace.fused = sink->fused_node();
    trace.sink = sink->label();
    trace.morsels = morsels;
    trace.chunks = chunk_count;
    trace.threads = run_workers;
    trace.wall_ms = pipeline_timer.ElapsedMillis();
    qp->AddPipeline(std::move(trace));
  }
  return finished;
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo
