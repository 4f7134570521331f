#ifndef RELGO_STORAGE_COLUMN_H_
#define RELGO_STORAGE_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace relgo {
namespace storage {

/// A shared per-column string dictionary: `values[code]` is the string of
/// `code`, `index` inverts it. `sorted` is true while `values` is strictly
/// ascending — then code order coincides with lexicographic order, which
/// the kernel/sort layers exploit (BuildDictionary always produces a
/// sorted dictionary; incremental appends of novel strings go to the end
/// and may clear the flag, never invalidating existing codes).
///
/// The dictionary is shared (via shared_ptr) between a base column and
/// every batch column derived from it through Gather/Slice/AppendRange/
/// AppendFrom. Only the owning base column may add entries (see
/// Column::AppendString); all other sharers treat it as immutable, so a
/// reader never meets a code it cannot resolve.
struct StringDictionary {
  std::vector<std::string> values;
  std::unordered_map<std::string, int32_t> index;
  bool sorted = true;

  int32_t size() const { return static_cast<int32_t>(values.size()); }

  /// Code of `s`, or -1 when absent.
  int32_t Find(const std::string& s) const {
    auto it = index.find(s);
    return it == index.end() ? -1 : it->second;
  }

  /// Code of `s`, appending a new entry when absent (owner-only path).
  int32_t GetOrAdd(const std::string& s) {
    auto it = index.find(s);
    if (it != index.end()) return it->second;
    int32_t code = size();
    if (sorted && code > 0 && !(values.back() < s)) sorted = false;
    values.push_back(s);
    index.emplace(s, code);
    return code;
  }
};

/// A typed, append-only column vector.
///
/// Integers, booleans and dates share a single int64 payload vector; doubles
/// and strings use dedicated payloads. Nulls are tracked by an optional
/// validity vector (empty means "all rows valid"), which keeps the common
/// non-null path allocation-free.
class Column {
 public:
  explicit Column(LogicalType type) : type_(type) {}

  LogicalType type() const { return type_; }
  uint64_t size() const { return size_; }

  /// Appends a typed value; the fast paths below skip Value boxing. Like
  /// AppendInts, they keep the validity bitmap aligned when an earlier
  /// AppendNull materialized it (all-valid columns pay no branch cost
  /// beyond the empty() check).
  void AppendInt(int64_t v) {
    ints_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
    ++size_;
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
    ++size_;
  }
  void AppendString(std::string v) {
    if (dict_ != nullptr) AppendCodeFor(v);
    strings_.push_back(std::move(v));
    if (!validity_.empty()) validity_.push_back(1);
    ++size_;
  }
  void AppendNull();

  /// Bulk-appends `count` int64 payload values (all valid). Valid for the
  /// int64-payload types (kInt64 / kBool / kDate).
  void AppendInts(const int64_t* data, uint64_t count);

  /// Whether AppendValue would accept `v`: NULL, or a value of the column
  /// type (kDate and kDouble also take kInt64). Appends nothing.
  Status CheckValue(const Value& v) const;

  /// Appends a boxed value; fails (appending nothing) unless it passes
  /// CheckValue.
  Status AppendValue(const Value& v);

  /// Appends a boxed value the caller has already passed through
  /// CheckValue; does not check again.
  void AppendCheckedValue(const Value& v);

  /// Unchecked typed accessors for hot paths.
  int64_t int_at(uint64_t i) const { return ints_[i]; }
  double double_at(uint64_t i) const { return doubles_[i]; }
  const std::string& string_at(uint64_t i) const { return strings_[i]; }

  bool is_valid(uint64_t i) const {
    return validity_.empty() || validity_[i] != 0;
  }

  /// Typed payload spans for vectorized kernels (src/exec/vector/). The
  /// debug-mode assertions pin the payload/type contract: int64, bool and
  /// date share the int64 payload; doubles and strings have their own.
  /// Kernels must consult `validity_data()` (nullptr == all rows valid)
  /// before trusting any payload slot.
  const int64_t* data_int64() const {
    assert(type_ == LogicalType::kInt64 || type_ == LogicalType::kBool ||
           type_ == LogicalType::kDate);
    return ints_.data();
  }
  const double* data_double() const {
    assert(type_ == LogicalType::kDouble);
    return doubles_.data();
  }
  const std::string* data_string() const {
    assert(type_ == LogicalType::kString);
    return strings_.data();
  }
  /// Validity bytes (1 == valid); nullptr when every row is valid.
  const uint8_t* validity_data() const {
    return validity_.empty() ? nullptr : validity_.data();
  }

  /// Builds (or rebuilds) a sorted-unique dictionary over the current
  /// string payload — null rows included via their "" placeholder — and
  /// codes every row. No-op for non-string columns. Called by
  /// Database::Finalize for every base-table string column; this column
  /// becomes the dictionary's owner, so later appends of novel strings
  /// extend the shared dictionary in place (existing codes never move).
  /// Not safe concurrently with queries — the standard mutation contract.
  void BuildDictionary();

  /// Drops dictionary + codes; the string payload stays authoritative.
  /// Batch columns use this when fed strings outside their shared
  /// dictionary — every dictionary consumer falls back to payloads.
  void DropDictionary() {
    dict_.reset();
    codes_.clear();
    dict_owner_ = false;
  }

  /// The shared dictionary, or nullptr when this column is not encoded.
  /// Kernel-layer consumers compare this pointer against the one they
  /// captured at compile time before trusting any code.
  const StringDictionary* dictionary() const { return dict_.get(); }

  /// Dictionary codes aligned with size(). Null rows carry the code of
  /// their "" payload placeholder, so consumers must still consult
  /// `validity_data()` — exactly like the payload spans. Only valid
  /// while dictionary() != nullptr.
  const int32_t* data_codes() const {
    assert(dict_ != nullptr);
    return codes_.data();
  }
  int32_t code_at(uint64_t i) const { return codes_[i]; }

  /// Boxed accessor used by expression evaluation and result rendering.
  Value GetValue(uint64_t i) const;

  /// Builds a new column containing rows at `indices`, in order.
  Column Gather(const std::vector<uint64_t>& indices) const;

  /// Builds a new column containing the contiguous rows
  /// [begin, begin + count); bulk-copies payload vectors (morsel slicing).
  Column Slice(uint64_t begin, uint64_t count) const;

  /// Appends row `row` of `other` (same type) onto this column.
  void AppendFrom(const Column& other, uint64_t row);

  /// Appends the contiguous rows [begin, begin + count) of `other` (same
  /// type); bulk-copies payload vectors (batch concatenation).
  void AppendRange(const Column& other, uint64_t begin, uint64_t count);

  void Reserve(uint64_t n);

 private:
  /// Pushes the code of `v` (invariant: dict_ != nullptr). The owner
  /// extends the dictionary for novel strings; sharers drop encoding
  /// instead — they must never mutate the shared dictionary.
  void AppendCodeFor(const std::string& v) {
    if (dict_owner_) {
      codes_.push_back(dict_->GetOrAdd(v));
      return;
    }
    int32_t code = dict_->Find(v);
    if (code < 0) {
      DropDictionary();
      return;
    }
    codes_.push_back(code);
  }

  /// Shares `src`'s dictionary (read-only) when this column is still
  /// empty and unencoded — the batch-materialization entry point.
  void AdoptDictionary(const Column& src) {
    if (src.dict_ != nullptr && dict_ == nullptr && size_ == 0) {
      dict_ = src.dict_;
      dict_owner_ = false;
    }
  }

  LogicalType type_;
  uint64_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> validity_;  // empty == all valid
  /// Dictionary encoding (kString only): while dict_ is set, codes_ is
  /// aligned with size_ and dict_->values[codes_[i]] == strings_[i].
  std::shared_ptr<StringDictionary> dict_;
  std::vector<int32_t> codes_;
  bool dict_owner_ = false;  // only the owner may extend dict_
};

}  // namespace storage
}  // namespace relgo

#endif  // RELGO_STORAGE_COLUMN_H_
