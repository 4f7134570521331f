#include "storage/column.h"

#include <algorithm>
#include <limits>

namespace relgo {
namespace storage {

void Column::AppendNull() {
  if (validity_.empty()) validity_.assign(size_, 1);
  switch (type_) {
    case LogicalType::kDouble:
      doubles_.push_back(0.0);
      break;
    case LogicalType::kString:
      strings_.emplace_back();
      // Codes are total: the null row carries the code of its ""
      // placeholder (consumers gate on validity first, so the code is
      // never interpreted as a value).
      if (dict_ != nullptr) AppendCodeFor(strings_.back());
      break;
    default:
      ints_.push_back(0);
      break;
  }
  validity_.push_back(0);
  ++size_;
}

void Column::BuildDictionary() {
  if (type_ != LogicalType::kString) return;
  auto dict = std::make_shared<StringDictionary>();
  dict->values.assign(strings_.begin(), strings_.end());
  std::sort(dict->values.begin(), dict->values.end());
  dict->values.erase(std::unique(dict->values.begin(), dict->values.end()),
                     dict->values.end());
  if (dict->values.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return;  // int32 code space exhausted; stay payload-only
  }
  dict->index.reserve(dict->values.size());
  for (int32_t c = 0; c < dict->size(); ++c) {
    dict->index.emplace(dict->values[c], c);
  }
  codes_.clear();
  codes_.reserve(strings_.size());
  for (const std::string& s : strings_) {
    codes_.push_back(dict->index.find(s)->second);
  }
  dict_ = std::move(dict);
  dict_owner_ = true;
}

void Column::AppendInts(const int64_t* data, uint64_t count) {
  assert(type_ == LogicalType::kInt64 || type_ == LogicalType::kBool ||
         type_ == LogicalType::kDate);
  ints_.insert(ints_.end(), data, data + count);
  if (!validity_.empty()) validity_.insert(validity_.end(), count, 1);
  size_ += count;
}

Status Column::CheckValue(const Value& v) const {
  if (v.is_null()) return Status::OK();
  bool accepted = false;
  switch (type_) {
    case LogicalType::kBool:
      accepted = v.type() == LogicalType::kBool;
      break;
    case LogicalType::kInt64:
      accepted = v.type() == LogicalType::kInt64;
      break;
    case LogicalType::kDate:
      accepted = v.type() == LogicalType::kDate ||
                 v.type() == LogicalType::kInt64;
      break;
    case LogicalType::kDouble:
      accepted = v.type() == LogicalType::kDouble ||
                 v.type() == LogicalType::kInt64;
      break;
    case LogicalType::kString:
      accepted = v.type() == LogicalType::kString;
      break;
    case LogicalType::kNull:
      break;
  }
  if (accepted) return Status::OK();
  return Status::InvalidArgument(
      std::string("type mismatch appending ") + LogicalTypeName(v.type()) +
      " into column of " + LogicalTypeName(type_));
}

Status Column::AppendValue(const Value& v) {
  RELGO_RETURN_NOT_OK(CheckValue(v));
  AppendCheckedValue(v);
  return Status::OK();
}

void Column::AppendCheckedValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case LogicalType::kBool:
      AppendInt(v.bool_value() ? 1 : 0);
      break;
    case LogicalType::kInt64:
      AppendInt(v.int_value());
      break;
    case LogicalType::kDate:
      AppendInt(v.type() == LogicalType::kDate ? v.date_value()
                                               : v.int_value());
      break;
    case LogicalType::kDouble:
      AppendDouble(v.type() == LogicalType::kDouble
                       ? v.double_value()
                       : static_cast<double>(v.int_value()));
      break;
    case LogicalType::kString:
      AppendString(v.string_value());
      break;
    case LogicalType::kNull:
      break;  // CheckValue refuses every non-NULL value
  }
}

Value Column::GetValue(uint64_t i) const {
  if (!is_valid(i)) return Value::Null();
  switch (type_) {
    case LogicalType::kBool:
      return Value::Bool(ints_[i] != 0);
    case LogicalType::kInt64:
      return Value::Int(ints_[i]);
    case LogicalType::kDate:
      return Value::Date(static_cast<int32_t>(ints_[i]));
    case LogicalType::kDouble:
      return Value::Double(doubles_[i]);
    case LogicalType::kString:
      return Value::String(strings_[i]);
    case LogicalType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

Column Column::Gather(const std::vector<uint64_t>& indices) const {
  Column out(type_);
  out.AdoptDictionary(*this);
  out.Reserve(indices.size());
  if (validity_.empty()) {
    // All-valid fast path: one type dispatch for the whole gather instead
    // of a per-row switch (this is the hottest loop of both engines).
    switch (type_) {
      case LogicalType::kDouble:
        for (uint64_t idx : indices) out.doubles_.push_back(doubles_[idx]);
        break;
      case LogicalType::kString:
        if (dict_ != nullptr) {
          // Codes travel with the payload so derived batches keep the
          // shared dictionary without re-hashing a single string.
          for (uint64_t idx : indices) {
            out.strings_.push_back(strings_[idx]);
            out.codes_.push_back(codes_[idx]);
          }
        } else {
          for (uint64_t idx : indices) out.strings_.push_back(strings_[idx]);
        }
        break;
      default:
        for (uint64_t idx : indices) out.ints_.push_back(ints_[idx]);
        break;
    }
    out.size_ = indices.size();
    return out;
  }
  for (uint64_t idx : indices) out.AppendFrom(*this, idx);
  return out;
}

Column Column::Slice(uint64_t begin, uint64_t count) const {
  Column out(type_);
  out.AppendRange(*this, begin, count);
  return out;
}

void Column::AppendRange(const Column& other, uint64_t begin,
                         uint64_t count) {
  if (count == 0) return;
  AdoptDictionary(other);
  uint64_t end = begin + count;
  // Validity: materialize our vector first if the incoming range carries
  // nulls and we were in the allocation-free all-valid state (which an
  // empty column also is, so the test cannot be validity_.empty()).
  bool other_has_nulls = !other.validity_.empty();
  if (other_has_nulls && validity_.empty()) validity_.assign(size_, 1);
  if (other_has_nulls || !validity_.empty()) {
    if (other_has_nulls) {
      validity_.insert(validity_.end(), other.validity_.begin() + begin,
                       other.validity_.begin() + end);
    } else {
      validity_.insert(validity_.end(), count, 1);
    }
  }
  switch (type_) {
    case LogicalType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin() + begin,
                      other.doubles_.begin() + end);
      break;
    case LogicalType::kString:
      strings_.insert(strings_.end(), other.strings_.begin() + begin,
                      other.strings_.begin() + end);
      if (dict_ != nullptr) {
        if (dict_.get() == other.dict_.get()) {
          codes_.insert(codes_.end(), other.codes_.begin() + begin,
                        other.codes_.begin() + end);
        } else {
          // Foreign (or no) source dictionary: re-code row by row; a
          // miss on a non-owner drops our encoding and ends the loop.
          for (uint64_t i = begin; i < end && dict_ != nullptr; ++i) {
            AppendCodeFor(other.strings_[i]);
          }
        }
      }
      break;
    default:
      ints_.insert(ints_.end(), other.ints_.begin() + begin,
                   other.ints_.begin() + end);
      break;
  }
  size_ += count;
}

void Column::AppendFrom(const Column& other, uint64_t row) {
  AdoptDictionary(other);
  if (!other.is_valid(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case LogicalType::kDouble:
      AppendDouble(other.doubles_[row]);
      break;
    case LogicalType::kString:
      if (dict_ != nullptr && dict_.get() == other.dict_.get()) {
        // Shared dictionary: copy the code instead of re-hashing.
        codes_.push_back(other.codes_[row]);
        strings_.push_back(other.strings_[row]);
        if (!validity_.empty()) validity_.push_back(1);
        ++size_;
      } else {
        AppendString(other.strings_[row]);
      }
      break;
    default:
      AppendInt(other.ints_[row]);
      break;
  }
}

void Column::Reserve(uint64_t n) {
  switch (type_) {
    case LogicalType::kDouble:
      doubles_.reserve(n);
      break;
    case LogicalType::kString:
      strings_.reserve(n);
      if (dict_ != nullptr) codes_.reserve(n);
      break;
    default:
      ints_.reserve(n);
      break;
  }
}

}  // namespace storage
}  // namespace relgo
