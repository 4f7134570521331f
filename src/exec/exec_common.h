#ifndef RELGO_EXEC_EXEC_COMMON_H_
#define RELGO_EXEC_EXEC_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/context.h"
#include "plan/spjm_query.h"
#include "storage/expression.h"
#include "storage/table.h"

namespace relgo {
namespace exec {

/// Builds a table whose columns are the child's columns gathered by `sel`.
inline storage::TablePtr GatherTable(const storage::Table& src,
                                     const std::vector<uint64_t>& sel,
                                     const std::string& name) {
  auto out = std::make_shared<storage::Table>(name, src.schema());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    out->column(c) = src.column(c).Gather(sel);
  }
  out->FinishBulkAppend();
  return out;
}

/// Output schema of a base-table scan: "alias.col" for each kept column,
/// preceded by "alias.$rid" when requested. `raw_indexes` receives the
/// source column index behind each emitted attribute column.
inline storage::Schema ScanSchema(const storage::Table& table,
                                  const std::string& alias,
                                  const std::vector<std::string>& projected,
                                  bool emit_rowid,
                                  std::vector<int>* raw_indexes) {
  storage::Schema out;
  if (emit_rowid) {
    (void)out.AddColumn({alias + ".$rid", LogicalType::kInt64});
  }
  if (projected.empty()) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      (void)out.AddColumn({alias + "." + table.schema().column(c).name,
                           table.schema().column(c).type});
      raw_indexes->push_back(static_cast<int>(c));
    }
  } else {
    for (const auto& col : projected) {
      int idx = table.schema().FindColumn(col);
      if (idx < 0) continue;  // validated by the optimizer
      (void)out.AddColumn(
          {alias + "." + col, table.schema().column(idx).type});
      raw_indexes->push_back(idx);
    }
  }
  return out;
}

/// Binding-table schema: one int64 column per variable.
inline storage::Schema BindingSchema(const std::vector<std::string>& vars) {
  storage::Schema s;
  for (const auto& v : vars) (void)s.AddColumn({v, LogicalType::kInt64});
  return s;
}

/// A per-base-row validity bitmap with shared storage: either empty (no
/// filter — every row passes) or one byte per base-table row (1 == pass).
/// The payload is shared so a ScanCache hit replays an earlier query's
/// bitmap without copying it, and the accessors mirror the
/// std::vector<uint8_t> the expansion loops were written against.
class SharedBitmap {
 public:
  using Ptr = std::shared_ptr<const std::vector<uint8_t>>;

  SharedBitmap() = default;
  explicit SharedBitmap(Ptr data) : data_(std::move(data)) {}

  bool empty() const { return data_ == nullptr || data_->empty(); }
  uint8_t operator[](uint64_t i) const { return (*data_)[i]; }
  size_t size() const { return data_ == nullptr ? 0 : data_->size(); }
  const Ptr& data() const { return data_; }

 private:
  Ptr data_;
};

/// Evaluates `filter` once per row of `table` into a validity bitmap
/// (empty when there is no filter). This is the pipeline engine's one
/// filter result per (table, predicate): filtered scan sources replay
/// its morsel ranges as their selection, and expansion-style operators
/// consult it per adjacency entry. It is computed once, in
/// single-threaded source/operator Prepare, so workers only do bitmap
/// loads.
///
/// Two acceleration layers, both semantics-preserving (exec_common.cc):
/// the predicate is lowered to vectorized kernels (row-at-a-time
/// EvaluateBool when CompiledPredicate::Compile cannot lower the tree),
/// and the finished bitmap is published to the cross-query ScanCache
/// under ScanCache::Key(table, filter), so any later scan or expansion
/// with the same predicate replays it instead of re-evaluating. The
/// materializing reference does not call this.
Result<SharedBitmap> FilterBitmap(const storage::TablePtr& table,
                                  const storage::ExprPtr& filter,
                                  ExecutionContext* ctx);

/// Three-way ORDER BY key comparison: the single source of truth for sort
/// semantics (Value comparison incl. null ordering, per-key direction) in
/// BOTH engines — the materializing ORDER BY and the pipeline engine's
/// TopKSink, whose typed comparisons are sign-identical to it. `a` / `b`
/// map a key index to that row's key Value; template accessors so the
/// O(n log n) sort paths inline the loads. Returns <0 / 0 / >0; ties are
/// the caller's to break (stable sort order, or the pipeline's (morsel,
/// row) sequence).
template <typename AValueAt, typename BValueAt>
int CompareSortKeyValues(const std::vector<plan::SortKey>& keys,
                         const AValueAt& a, const BValueAt& b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a(i).Compare(b(i));
    if (c != 0) return keys[i].ascending ? c : -c;
  }
  return 0;
}

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_EXEC_COMMON_H_
