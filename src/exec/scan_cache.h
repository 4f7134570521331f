#ifndef RELGO_EXEC_SCAN_CACHE_H_
#define RELGO_EXEC_SCAN_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stamped_lru.h"
#include "storage/expression.h"

namespace relgo {
namespace exec {

/// Cross-query filter cache (ROADMAP "Shared scan caching").
///
/// Concurrent workloads filter the same base tables with the same pushed
/// predicates over and over; the expensive part — evaluating the predicate
/// per row — produces a result that depends only on (table contents,
/// predicate). This cache stores that result as one per-row validity
/// bitmap (1 byte per base-table row, 1 == pass) under one key per
/// (table, predicate) — "filter|<table>|<pred>", see Key — whichever
/// pipeline-engine operator consumes it: a relational or vertex scan
/// replays the bitmap's morsel ranges, an expansion tests it per
/// adjacency entry (FilterBitmap, exec_common.h). The materializing
/// reference engine never consults it. Unfiltered scans are never
/// cached: they have no per-row work to amortize.
///
/// Correctness: a hit returns exactly the bitmap the filter would have
/// produced, and callers keep charging the same row budget — results and
/// resource accounting are bit-identical with the cache on or off. The
/// stamp is the owning table's version (storage::Table::version), drawn
/// from the process-wide storage version counter: an append, or a drop
/// and re-create under the same name, gives the table a version no
/// cached entry carries.
///
/// Policy (LRU, admission cap, synchronization) is StampedLru's; the
/// budget is in bytes: 1 per bitmap byte plus key and node overhead.
class ScanCache : public StampedLru<std::vector<uint8_t>> {
 public:
  using BitmapPtr = Ptr;

  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  explicit ScanCache(size_t max_bytes = kDefaultMaxBytes)
      : StampedLru(max_bytes, &EntryBytes) {}

  /// Cache key of `filter` over base table `table`: "filter|<table>|
  /// <pred>", the execution-side twin of optimizer::ScanFeedbackKey's
  /// "scan|<table>|<pred>" signature (without the estimator-base tag,
  /// which is irrelevant at runtime).
  static std::string Key(const std::string& table,
                         const storage::ExprPtr& filter) {
    return "filter|" + table + "|" + (filter ? filter->ToString() : "");
  }

  size_t bytes() const { return cost(); }
  size_t max_bytes() const { return budget(); }
  size_t admit_cap_bytes() const { return admit_cap(); }

 private:
  static size_t EntryBytes(const std::string& key,
                           const std::vector<uint8_t>& bitmap) {
    constexpr size_t kEntryOverhead = 64;  // list/map node estimate
    return key.size() + bitmap.size() + kEntryOverhead;
  }
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_SCAN_CACHE_H_
