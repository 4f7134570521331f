#ifndef RELGO_OPTIMIZER_STATS_H_
#define RELGO_OPTIMIZER_STATS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "optimizer/feedback.h"
#include "storage/catalog.h"
#include "storage/expression.h"

namespace relgo {
namespace optimizer {

/// Row-count drift bucket: floor(log_1.1(rows + 50)). Moves once the
/// table grew by ~10% (PostgreSQL autoanalyze's "50 rows + 10%"), so one
/// small append keeps it and steady growth moves it once per ~10%.
uint32_t DriftBucket(uint64_t rows);

/// What optimizer state derived from one table is valid for: the table's
/// creation identity (storage::Table::identity) and its row-count drift
/// bucket. Appends within a bucket keep it; ~10% growth or a drop +
/// re-create changes it. A missing table stamps as {0, 0}, which no live
/// table has (identities start at 1).
struct TableStamp {
  uint64_t identity = 0;
  uint32_t drift_bucket = 0;

  bool operator==(const TableStamp& o) const {
    return identity == o.identity && drift_bucket == o.drift_bucket;
  }
};

/// `table`'s stamp as of now.
TableStamp StampOf(const storage::Table& table);

/// Low-order relational statistics: table cardinalities, per-column
/// distinct counts, and predicate selectivities.
///
/// Two selectivity estimation modes mirror the paper's baselines:
///  * heuristic (DuckDB/GRainDB-like): magic numbers per predicate shape,
///    1/ndv for equality;
///  * sampled (Umbra-like): evaluates the predicate on a reservoir sample,
///    capturing attribute value distributions (Sec 5.3.2 explains why this
///    sometimes beats RelGo's estimates).
class TableStats {
 public:
  explicit TableStats(const storage::Catalog* catalog) : catalog_(catalog) {}

  /// Rows in `table`; 0 when the table is unknown.
  double Cardinality(const std::string& table) const;

  /// Number of distinct values of an int64 column (exact, cached).
  /// A cached count is served only while the table's TableStamp is the
  /// one it was counted at, so a re-created table or one that grew by
  /// ~10% is counted again. Thread-safe: concurrent optimizations of
  /// different queries share the cache; racing threads may both compute
  /// a cold entry (same value).
  double DistinctCount(const std::string& table,
                       const std::string& column) const;

  /// Heuristic selectivity of `filter` against `table`.
  double HeuristicSelectivity(const storage::Table& table,
                              const storage::ExprPtr& filter) const;

  /// Sampling-based selectivity: evaluates `filter` on up to `sample_size`
  /// rows (deterministic stride sample).
  double SampledSelectivity(const storage::Table& table,
                            const storage::ExprPtr& filter,
                            size_t sample_size = 1024) const;

  /// Attaches the adaptive-statistics sink; null (the default) disables
  /// correction lookups entirely.
  void SetFeedback(const StatsFeedback* feedback) { feedback_ = feedback; }
  const StatsFeedback* feedback() const { return feedback_; }

  /// Scan selectivity with adaptive correction: the base estimate
  /// (sampled or heuristic per `sampled`) times the feedback factor
  /// stored under the scan's (table, predicate) key, clamped back into
  /// [1e-9, 1]. Identical to the base estimate when no feedback sink is
  /// attached or the key was never observed.
  double CorrectedSelectivity(const storage::Table& table,
                              const storage::ExprPtr& filter,
                              bool sampled) const;

 private:
  const storage::Catalog* catalog_;
  const StatsFeedback* feedback_ = nullptr;
  struct CachedDistinct {
    TableStamp stamp;
    double count = 1.0;
  };
  mutable std::mutex distinct_mu_;  ///< guards distinct_cache_
  /// "table.column" -> the count and the stamp it was taken at; a stale
  /// entry is overwritten in place, so the map never outgrows the
  /// columns ever asked about.
  mutable std::unordered_map<std::string, CachedDistinct> distinct_cache_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_STATS_H_
