#include "exec/vector/typed_keys.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace relgo {
namespace exec {
namespace vector {

namespace {

constexpr char kTagNull = 0;
constexpr char kTagValue = 1;
/// Dictionary-coded string value: 4-byte int32 code into the pinned
/// dictionary. Disjoint from kTagValue, so a coded string can never
/// byte-collide with a payload-encoded one.
constexpr char kTagCode = 2;

void AppendFixed64(std::string* out, int64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  out->append(buf, sizeof(buf));
}

int64_t ReadFixed64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendLength(std::string* out, uint32_t n) {
  char buf[4];
  std::memcpy(buf, &n, sizeof(buf));
  out->append(buf, sizeof(buf));
}

uint32_t ReadLength(const char* p) {
  uint32_t n;
  std::memcpy(&n, p, sizeof(n));
  return n;
}

void AppendFixed32(std::string* out, int32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(buf));
  out->append(buf, sizeof(buf));
}

int32_t ReadFixed32(const char* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One representative per Value-equal double: -0.0 folds into +0.0 and
/// every NaN payload into the quiet NaN.
double CanonicalDouble(double v) {
  if (v == 0.0) return 0.0;
  if (std::isnan(v)) return std::numeric_limits<double>::quiet_NaN();
  return v;
}

}  // namespace

KeyEncoder::KeyEncoder(std::vector<LogicalType> types)
    : types_(std::move(types)) {
  pinned_.assign(types_.size(), nullptr);
  pin_once_.resize(types_.size());
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i] == LogicalType::kString) {
      pin_once_[i] = std::make_unique<std::once_flag>();
    }
  }
}

std::unique_ptr<KeyEncoder> KeyEncoder::Make(
    const std::vector<LogicalType>& types) {
  return std::unique_ptr<KeyEncoder>(new KeyEncoder(types));
}

void KeyEncoder::Encode(const storage::Column* const* cols, uint64_t row,
                        EncodedGroupKey* key) const {
  key->bytes.clear();
  size_t h = kHashSeed;
  for (size_t i = 0; i < types_.size(); ++i) {
    const storage::Column& col = *cols[i];
    if (types_[i] == LogicalType::kNull || !col.is_valid(row)) {
      key->bytes.push_back(kTagNull);
      h = HashCombine(h, kNullHash);
      continue;
    }
    key->bytes.push_back(kTagValue);
    switch (types_[i]) {
      case LogicalType::kBool: {
        bool v = col.int_at(row) != 0;
        key->bytes.push_back(v ? 1 : 0);
        h = HashCombine(h, TypedHash(v));
        break;
      }
      case LogicalType::kInt64: {
        int64_t v = col.int_at(row);
        AppendFixed64(&key->bytes, v);
        h = HashCombine(h, TypedHash(v));
        break;
      }
      case LogicalType::kDate: {
        // Mirror GetValue's boxing: truncate to the 32-bit day number,
        // then hash the widened int64 exactly as Value::Hash does.
        auto v = static_cast<int64_t>(static_cast<int32_t>(col.int_at(row)));
        AppendFixed64(&key->bytes, v);
        h = HashCombine(h, TypedHash(v));
        break;
      }
      case LogicalType::kDouble: {
        double v = CanonicalDouble(col.double_at(row));
        int64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        AppendFixed64(&key->bytes, bits);
        h = HashCombine(h, TypedHash(v));
        break;
      }
      case LogicalType::kString: {
        const std::string& s = col.string_at(row);
        std::call_once(*pin_once_[i], [&] { pinned_[i] = col.dictionary(); });
        const storage::StringDictionary* dict = pinned_[i];
        if (dict != nullptr) {
          // Same dictionary: read the row's code straight off the
          // column; foreign/no dictionary: translate through the pinned
          // one (absent strings keep the byte encoding below).
          int32_t code = col.dictionary() == dict ? col.code_at(row)
                                                  : dict->Find(s);
          if (code >= 0) {
            key->bytes.back() = kTagCode;
            AppendFixed32(&key->bytes, code);
            h = HashCombine(h, TypedHash(static_cast<int64_t>(code)));
            break;
          }
        }
        AppendLength(&key->bytes, static_cast<uint32_t>(s.size()));
        key->bytes.append(s);
        h = HashCombine(h, TypedHash(s));
        break;
      }
      default:
        break;  // kNull took the NULL tag above
    }
  }
  key->hash = h;
}

void KeyEncoder::Decode(const EncodedGroupKey& key,
                        std::vector<Value>* out) const {
  out->clear();
  out->reserve(types_.size());
  const char* p = key.bytes.data();
  for (size_t i = 0; i < types_.size(); ++i) {
    LogicalType t = types_[i];
    char tag = *p++;
    if (tag == kTagNull) {
      out->push_back(Value::Null());
      continue;
    }
    if (tag == kTagCode) {
      // Dictionary-coded string: resolve against the pinned dictionary
      // (the encoder that produced this key pinned it before encoding).
      int32_t code = ReadFixed32(p);
      p += 4;
      out->push_back(Value::String(pinned_[i]->values[code]));
      continue;
    }
    switch (t) {
      case LogicalType::kBool:
        out->push_back(Value::Bool(*p++ != 0));
        break;
      case LogicalType::kInt64:
        out->push_back(Value::Int(ReadFixed64(p)));
        p += 8;
        break;
      case LogicalType::kDate:
        out->push_back(Value::Date(static_cast<int32_t>(ReadFixed64(p))));
        p += 8;
        break;
      case LogicalType::kDouble: {
        int64_t bits = ReadFixed64(p);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        out->push_back(Value::Double(v));
        p += 8;
        break;
      }
      case LogicalType::kString: {
        uint32_t n = ReadLength(p);
        p += 4;
        out->push_back(Value::String(std::string(p, n)));
        p += n;
        break;
      }
      default:
        out->push_back(Value::Null());
        break;
    }
  }
}

}  // namespace vector
}  // namespace exec
}  // namespace relgo
