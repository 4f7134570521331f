#ifndef RELGO_EXEC_PIPELINE_BATCH_H_
#define RELGO_EXEC_PIPELINE_BATCH_H_

#include <memory>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace relgo {
namespace exec {
namespace pipeline {

/// Rows per morsel/batch. Large enough to amortize per-batch dispatch,
/// small enough that a batch's working set stays cache-resident.
constexpr uint64_t kBatchRows = 2048;

/// A batch's position in its pipeline's sequential row order: the source
/// morsel index, then one chunk index per split of an oversized operator
/// output on the way to the sink (see RunPipeline). Streaming operators
/// emit rows in input-row order, so comparing keys lexicographically —
/// then rows within a batch — reproduces the order a single worker
/// running each morsel's whole batch through the chain would produce.
using SeqKey = std::vector<uint64_t>;

/// A shared, immutable column vector. Batches share columns with their
/// producers (zero-copy) wherever a column passes through unchanged —
/// projection reorders, full-table morsels, join pass-through sides.
using ColumnRef = std::shared_ptr<const storage::Column>;

/// A fixed-size horizontal chunk of a binding or relational table:
/// equal-length immutable column vectors. The column *names/types* are not
/// carried per batch — every operator in a pipeline resolves its input
/// schema once during Prepare, so batches stay lightweight.
class Batch {
 public:
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const storage::Column& column(size_t i) const { return *columns_[i]; }
  const ColumnRef& column_ref(size_t i) const { return columns_[i]; }

  void Clear() {
    columns_.clear();
    num_rows_ = 0;
  }

  /// Shares an existing column (zero-copy).
  void AddColumn(ColumnRef col) { columns_.push_back(std::move(col)); }

  /// Takes ownership of a freshly built column.
  void AddOwned(storage::Column col) {
    columns_.push_back(std::make_shared<storage::Column>(std::move(col)));
  }

  /// Must be called after all columns are added; `n` is the common length.
  void SetNumRows(uint64_t n) { num_rows_ = n; }

  /// Applies a selection vector to every column (materializing).
  Batch Gather(const std::vector<uint64_t>& sel) const {
    Batch out;
    for (const auto& col : columns_) out.AddOwned(col->Gather(sel));
    out.SetNumRows(sel.size());
    return out;
  }

  /// Copies rows [begin, begin + count) of every column into a new batch
  /// (one chunk of an oversized operator output).
  Batch Slice(uint64_t begin, uint64_t count) const {
    Batch out;
    for (const auto& col : columns_) out.AddOwned(col->Slice(begin, count));
    out.SetNumRows(count);
    return out;
  }

  /// Loose-column pointer array for expression evaluation
  /// (storage::Expr::EvaluateBool(const Column* const*, row)).
  std::vector<const storage::Column*> ColumnPointers() const {
    std::vector<const storage::Column*> out;
    out.reserve(columns_.size());
    for (const auto& col : columns_) out.push_back(col.get());
    return out;
  }

 private:
  std::vector<ColumnRef> columns_;
  uint64_t num_rows_ = 0;
};

/// Shares column `col` of `table` without copying; the returned ColumnRef
/// keeps the whole table alive (aliasing shared_ptr).
inline ColumnRef ShareTableColumn(const storage::TablePtr& table,
                                  size_t col) {
  return ColumnRef(table, &table->column(col));
}

/// Builds a batch over rows [begin, begin + count) of `table`. The
/// whole-table case shares every column zero-copy; proper sub-ranges are
/// bulk-copied via Column::Slice.
inline Batch SliceTable(const storage::TablePtr& table, uint64_t begin,
                        uint64_t count) {
  Batch out;
  if (begin == 0 && count == table->num_rows()) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      out.AddColumn(ShareTableColumn(table, c));
    }
  } else {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      out.AddOwned(table->column(c).Slice(begin, count));
    }
  }
  out.SetNumRows(count);
  return out;
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_BATCH_H_
