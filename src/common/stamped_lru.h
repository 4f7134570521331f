#ifndef RELGO_COMMON_STAMPED_LRU_H_
#define RELGO_COMMON_STAMPED_LRU_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace relgo {

/// Lifetime counters of a StampedLru (never reset, not even by Clear).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;         ///< lookups that found nothing usable
  uint64_t insertions = 0;
  uint64_t evictions = 0;      ///< LRU evictions under the budget
  uint64_t invalidations = 0;  ///< entries dropped on a stamp mismatch
  uint64_t rejections = 0;     ///< entries refused by the admission cap
  uint64_t Lookups() const { return hits + misses; }
  double HitRate() const {
    uint64_t n = Lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / n;
  }
};

/// The cross-query cache policy both serving caches share (the scan
/// cache's filter bitmaps, exec::ScanCache, and the plan cache's
/// optimized plans, optimizer::PlanCache): string key -> shared immutable
/// value, each entry tagged with the validity stamp it was computed at.
///
/// - Validity is exact, never timed: a lookup under a different stamp
///   drops the entry (an invalidation) and reports a miss. A Stamp needs
///   only ==, no order: the scan cache's is a table version, the
///   plan cache's a composite (stats epoch plus per-table identity and
///   drift bucket). Any mismatch counts as stale, even one whose stamp
///   could come back (a table re-registered under its old identity).
/// - Eviction is LRU under a budget; each entry costs CostFn(key, value)
///   (1 when no CostFn is given, making the budget an entry count).
/// - Admission is cost-aware: an entry costing more than half the budget
///   (admit_cap) is refused (a rejection), so one huge entry can never
///   wipe out many colder-but-still-hot ones. A zero budget therefore
///   refuses every entry.
/// - Put of a live key replaces it: the old entry's cost is reclaimed and
///   the new one counts as an insertion.
///
/// Thread-safety: fully synchronized; any number of concurrent queries
/// may call every member.
template <typename V, typename Stamp = uint64_t>
class StampedLru {
 public:
  using Ptr = std::shared_ptr<const V>;
  using Stats = CacheStats;
  using CostFn = size_t (*)(const std::string& key, const V& value);

  explicit StampedLru(size_t budget, CostFn cost = nullptr)
      : budget_(budget), cost_fn_(cost) {}

  StampedLru(const StampedLru&) = delete;
  StampedLru& operator=(const StampedLru&) = delete;

  /// The value cached under `key` if present and computed at `stamp`;
  /// null on miss. A stamp mismatch invalidates the entry. A hit
  /// refreshes LRU recency.
  Ptr Get(const std::string& key, const Stamp& stamp) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    if (!(it->second->stamp == stamp)) {
      ++stats_.invalidations;
      ++stats_.misses;
      EraseLocked(it->second);
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// Stores `value` under `key` at `stamp`, evicting the coldest entries
  /// until the budget holds. No-op for a null value.
  void Put(const std::string& key, const Stamp& stamp, Ptr value) {
    if (value == nullptr) return;
    const size_t cost = cost_fn_ != nullptr ? cost_fn_(key, *value) : 1;
    std::lock_guard<std::mutex> lock(mu_);
    if (cost > admit_cap()) {
      ++stats_.rejections;
      return;
    }
    auto it = index_.find(key);
    if (it != index_.end()) EraseLocked(it->second);
    while (cost_ + cost > budget_ && !lru_.empty()) {
      ++stats_.evictions;
      EraseLocked(std::prev(lru_.end()));
    }
    cost_ += cost;
    lru_.push_front({key, stamp, std::move(value), cost});
    index_[key] = lru_.begin();
    ++stats_.insertions;
  }

  /// Drops every entry; the lifetime Stats are kept.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    cost_ = 0;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  /// Summed cost of the resident entries (never above budget()).
  size_t cost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cost_;
  }
  size_t budget() const { return budget_; }
  size_t admit_cap() const { return budget_ / 2; }

 private:
  struct Entry {
    std::string key;
    Stamp stamp{};
    Ptr value;
    size_t cost = 0;
  };
  using Iter = typename std::list<Entry>::iterator;

  /// Drops `it` (must be valid) and its index entry. Caller holds mu_.
  void EraseLocked(Iter it) {
    cost_ -= it->cost;
    index_.erase(it->key);
    lru_.erase(it);
  }

  const size_t budget_;
  const CostFn cost_fn_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, Iter> index_;
  size_t cost_ = 0;
  Stats stats_;
};

}  // namespace relgo

#endif  // RELGO_COMMON_STAMPED_LRU_H_
