#ifndef RELGO_STORAGE_TABLE_H_
#define RELGO_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/column.h"
#include "storage/schema.h"

namespace relgo {
namespace storage {

/// Draws the next value of the process-wide storage version counter.
/// Every table identity and version comes from it, so one value names one
/// table (or table state) in the whole process: a dropped and re-created
/// table never shows an identity or version that an entry cached against
/// its predecessor carries.
uint64_t NextStorageVersion();

/// An in-memory columnar relation.
///
/// Tables serve double duty: base relations registered in the Catalog, and
/// materialized intermediate results produced by the executor. Row ids are
/// implicit (position), matching the paper's use of row ids as vertex/edge
/// identifiers in the graph index (Sec 3.2.1).
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Column by attribute name; nullptr when absent.
  const Column* FindColumn(const std::string& name) const;

  /// Appends a full row of boxed values (arity must match the schema).
  /// All-or-nothing: every value is checked against its column's type
  /// before the first column grows, so a rejected row appends nothing.
  Status AppendRow(const std::vector<Value>& values);

  /// Row-count bump for callers that append via typed column APIs directly;
  /// all columns must have equal sizes afterwards.
  void FinishBulkAppend();

  Value GetValue(uint64_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// Unique-key hash index over an int64 column (primary keys): value -> row.
  /// Built lazily and cached; invalidated by appends. Thread-safe: the
  /// lazy build is serialized, so concurrent queries may race to the
  /// first lookup (returned pointers stay valid until the next append).
  Result<const std::unordered_map<int64_t, uint64_t>*> GetKeyIndex(
      const std::string& column_name) const;

  /// Version of this table's contents: drawn from NextStorageVersion at
  /// construction and again by every append. Stamps the cross-query scan
  /// cache's filter bitmaps (exec::ScanCache).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Creation identity: drawn from NextStorageVersion once at
  /// construction and never changed, so appends keep it and a dropped and
  /// re-created table gets a new one. Stamps what the optimizer derives
  /// from the table (plan-cache entries, distinct counts), which outlives
  /// appends but not the table.
  uint64_t identity() const { return identity_; }

  /// Renders up to `max_rows` rows for debugging/examples.
  std::string ToString(uint64_t max_rows = 10) const;

  /// Rough per-row footprint in bytes, for memory accounting.
  size_t EstimatedRowBytes() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  uint64_t num_rows_ = 0;
  const uint64_t identity_ = NextStorageVersion();
  std::atomic<uint64_t> version_{NextStorageVersion()};
  /// Serializes the lazy key-index build (concurrent queries hit the same
  /// base tables); mutation paths also take it so the cache clear cannot
  /// race a build.
  mutable std::mutex key_index_mu_;
  mutable std::unordered_map<std::string,
                             std::unordered_map<int64_t, uint64_t>>
      key_indexes_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace storage
}  // namespace relgo

#endif  // RELGO_STORAGE_TABLE_H_
