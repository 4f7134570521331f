#include "exec/vector/compiled_expr.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/vector/kernels.h"

namespace relgo {
namespace exec {
namespace vector {

namespace {

using storage::Column;
using storage::CompareOp;
using storage::Expr;
using storage::Schema;

/// int64 / bool / date share the int64 payload and promote to double in
/// Value::Compare; doubles promote trivially.
bool IsNumericType(LogicalType t) {
  return t == LogicalType::kInt64 || t == LogicalType::kBool ||
         t == LogicalType::kDate || t == LogicalType::kDouble;
}

bool IsNumericValue(const Value& v) { return IsNumericType(v.type()); }

/// Mirrors the `numeric` promotion lambda inside Value::Compare exactly:
/// int64/date via their int64 payload, bool as 1.0/0.0.
double PromoteValue(const Value& v) {
  switch (v.type()) {
    case LogicalType::kInt64:
      return static_cast<double>(v.int_value());
    case LogicalType::kDate:
      return static_cast<double>(v.date_value());
    case LogicalType::kBool:
      return v.bool_value() ? 1.0 : 0.0;
    case LogicalType::kDouble:
      return v.double_value();
    default:
      return 0.0;
  }
}

/// Applies a CompareOp to a Value::Compare-style three-way result.
bool ApplyOp(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// NOT(a op b) for non-null operands is (a negop b); both sides are NULL
/// on NULL input, which the filter boundary collapses to false either way.
CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

/// (a op b) with the operands swapped: (b mirror(op) a).
CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

/// Deterministic ordering of incomparable types (Value::Compare tail).
int TypeTagCompare(LogicalType a, LogicalType b) {
  return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
}

/// Dispatches a CompareOp to a comparator functor once per kernel so the
/// per-row loops are branch-light. The functors are phrased in terms of
/// `<` and `>` exactly like Value::Compare's three-way result, so double
/// NaN behaves identically to the row path (NaN is "equal" to every
/// numeric there: neither side compares less or greater).
template <typename F>
void DispatchCmp(CompareOp op, F&& f) {
  switch (op) {
    case CompareOp::kEq:
      f([](const auto& a, const auto& b) { return !(a < b) && !(a > b); });
      return;
    case CompareOp::kNe:
      f([](const auto& a, const auto& b) { return a < b || a > b; });
      return;
    case CompareOp::kLt:
      f([](const auto& a, const auto& b) { return a < b; });
      return;
    case CompareOp::kLe:
      f([](const auto& a, const auto& b) { return !(a > b); });
      return;
    case CompareOp::kGt:
      f([](const auto& a, const auto& b) { return a > b; });
      return;
    case CompareOp::kGe:
      f([](const auto& a, const auto& b) { return !(a < b); });
      return;
  }
}

/// Dictionary fast path of a string leaf: int32 code compares or
/// one-byte bitmap probes instead of payload string compares. Entered
/// only after RunLeaf verified the batch column(s) still carry the
/// compile-time dictionary. Null rows carry the code of their ""
/// payload placeholder, so the validity gate comes first exactly like
/// the payload kernels.
template <typename Scan>
void RunDictLeaf(const CompiledKernel& k, const Column& a, const Column* b,
                 Scan&& scan) {
  const uint8_t* va = a.validity_data();
  const int32_t* ca = a.data_codes();
  switch (k.dict_mode) {
    case CompiledKernel::DictMode::kCodeCmp: {
      // Branch-free validity gate (`&`, not `&&`): codes are total, so
      // the unconditional ca[r] load is safe, and the loop body carries
      // no control flow — required for auto-vectorization of this
      // widest kernel (see FilterBitmap's dense path).
      const int32_t cst = k.code_const;
      DispatchCmp(k.code_cmp, [&](auto cmp) {
        if (!va) {
          scan([&](uint64_t r) { return cmp(ca[r], cst); });
        } else {
          scan([&](uint64_t r) {
            return bool((va[r] != 0) & cmp(ca[r], cst));
          });
        }
      });
      return;
    }
    case CompiledKernel::DictMode::kCodeCols: {
      const uint8_t* vb = b->validity_data();
      const int32_t* cb = b->data_codes();
      DispatchCmp(k.code_cmp, [&](auto cmp) {
        if (!va && !vb) {
          scan([&](uint64_t r) { return cmp(ca[r], cb[r]); });
        } else if (va != nullptr && vb != nullptr) {
          scan([&](uint64_t r) {
            return bool(((va[r] & vb[r]) != 0) & cmp(ca[r], cb[r]));
          });
        } else {
          const uint8_t* v = va != nullptr ? va : vb;
          scan([&](uint64_t r) {
            return bool((v[r] != 0) & cmp(ca[r], cb[r]));
          });
        }
      });
      return;
    }
    case CompiledKernel::DictMode::kCodeBits: {
      // The bits[ca[r]] gather defeats baseline x86-64 vectorization
      // (no hardware gather below AVX2), but the branch-free gate still
      // keeps the scalar loop tight: one byte load per row, no
      // per-distinct-value string work.
      const uint8_t* bits = k.code_bits.data();
      if (!va) {
        scan([&](uint64_t r) { return bits[ca[r]] != 0; });
      } else {
        scan([&](uint64_t r) {
          return bool((va[r] != 0) & (bits[ca[r]] != 0));
        });
      }
      return;
    }
    case CompiledKernel::DictMode::kNone:
      return;
  }
}

/// True when the dictionary lowering of `k` may run against this batch:
/// every referenced column must still carry the compile-time dictionary
/// (derived columns drop it when fed foreign strings; the fold-free
/// payload fields then take over).
inline bool DictUsable(const CompiledKernel& k, const Column* const* cols) {
  if (k.dict_mode == CompiledKernel::DictMode::kNone) return false;
  if (cols[k.col]->dictionary() != k.dict) return false;
  if (k.dict_mode == CompiledKernel::DictMode::kCodeCols &&
      cols[k.col2]->dictionary() != k.dict) {
    return false;
  }
  return true;
}

/// Runs leaf kernel `k` through `scan`, a callable that applies a
/// row-predicate over some row source (dense range or selection) and
/// collects passing rows. Instantiated once for each source shape.
template <typename Scan>
void RunLeaf(const CompiledKernel& k, const Column* const* cols,
             Scan&& scan) {
  switch (k.op) {
    case CompiledKernel::Op::kCmpNumConst: {
      const Column& c = *cols[k.col];
      const uint8_t* vd = c.validity_data();
      const double cst = k.num_const;
      // Validity gates use bitwise `&` so the loop body stays free of
      // control flow (payload slots of null rows hold 0.0/0 and are
      // safe to load); short-circuit `&&` here blocks vectorization.
      DispatchCmp(k.cmp, [&](auto cmp) {
        if (c.type() == LogicalType::kDouble) {
          const double* d = c.data_double();
          if (!vd) {
            scan([&](uint64_t r) { return cmp(d[r], cst); });
          } else {
            scan([&](uint64_t r) {
              return bool((vd[r] != 0) & cmp(d[r], cst));
            });
          }
        } else {
          const int64_t* d = c.data_int64();
          if (!vd) {
            scan([&](uint64_t r) {
              return cmp(static_cast<double>(d[r]), cst);
            });
          } else {
            scan([&](uint64_t r) {
              return bool((vd[r] != 0) &
                          cmp(static_cast<double>(d[r]), cst));
            });
          }
        }
      });
      return;
    }
    case CompiledKernel::Op::kCmpStrConst: {
      const Column& c = *cols[k.col];
      if (DictUsable(k, cols)) {
        RunDictLeaf(k, c, nullptr, scan);
        return;
      }
      const uint8_t* vd = c.validity_data();
      const std::string* d = c.data_string();
      const std::string& cst = k.str_const;
      DispatchCmp(k.cmp, [&](auto cmp) {
        if (!vd) {
          scan([&](uint64_t r) { return cmp(d[r], cst); });
        } else {
          scan([&](uint64_t r) { return vd[r] && cmp(d[r], cst); });
        }
      });
      return;
    }
    case CompiledKernel::Op::kCmpNumCols: {
      const Column& a = *cols[k.col];
      const Column& b = *cols[k.col2];
      const uint8_t* va = a.validity_data();
      const uint8_t* vb = b.validity_data();
      auto with_getters = [&](auto geta, auto getb) {
        DispatchCmp(k.cmp, [&](auto cmp) {
          if (!va && !vb) {
            scan([&](uint64_t r) { return cmp(geta(r), getb(r)); });
          } else if (va != nullptr && vb != nullptr) {
            scan([&](uint64_t r) {
              return bool(((va[r] & vb[r]) != 0) & cmp(geta(r), getb(r)));
            });
          } else {
            const uint8_t* v = va != nullptr ? va : vb;
            scan([&](uint64_t r) {
              return bool((v[r] != 0) & cmp(geta(r), getb(r)));
            });
          }
        });
      };
      bool ad = a.type() == LogicalType::kDouble;
      bool bd = b.type() == LogicalType::kDouble;
      if (ad && bd) {
        const double* da = a.data_double();
        const double* db = b.data_double();
        with_getters([da](uint64_t r) { return da[r]; },
                     [db](uint64_t r) { return db[r]; });
      } else if (ad) {
        const double* da = a.data_double();
        const int64_t* db = b.data_int64();
        with_getters([da](uint64_t r) { return da[r]; },
                     [db](uint64_t r) { return static_cast<double>(db[r]); });
      } else if (bd) {
        const int64_t* da = a.data_int64();
        const double* db = b.data_double();
        with_getters([da](uint64_t r) { return static_cast<double>(da[r]); },
                     [db](uint64_t r) { return db[r]; });
      } else {
        const int64_t* da = a.data_int64();
        const int64_t* db = b.data_int64();
        with_getters([da](uint64_t r) { return static_cast<double>(da[r]); },
                     [db](uint64_t r) { return static_cast<double>(db[r]); });
      }
      return;
    }
    case CompiledKernel::Op::kCmpStrCols: {
      const Column& a = *cols[k.col];
      const Column& b = *cols[k.col2];
      if (DictUsable(k, cols)) {
        RunDictLeaf(k, a, &b, scan);
        return;
      }
      const uint8_t* va = a.validity_data();
      const uint8_t* vb = b.validity_data();
      const std::string* da = a.data_string();
      const std::string* db = b.data_string();
      DispatchCmp(k.cmp, [&](auto cmp) {
        if (!va && !vb) {
          scan([&](uint64_t r) { return cmp(da[r], db[r]); });
        } else {
          scan([&](uint64_t r) {
            return (!va || va[r]) && (!vb || vb[r]) && cmp(da[r], db[r]);
          });
        }
      });
      return;
    }
    case CompiledKernel::Op::kInListNum: {
      const Column& c = *cols[k.col];
      const uint8_t* vd = c.validity_data();
      const bool neg = k.negate;
      const std::vector<double>& list = k.num_list;
      // A NaN probe value is Compare-equal to every numeric candidate in
      // the row path, so it matches any non-empty list (`v != v` test).
      auto probe = [&list](double v) {
        return v != v || std::binary_search(list.begin(), list.end(), v);
      };
      if (c.type() == LogicalType::kDouble) {
        const double* d = c.data_double();
        scan([&](uint64_t r) {
          return (!vd || vd[r]) && probe(d[r]) != neg;
        });
      } else {
        const int64_t* d = c.data_int64();
        scan([&](uint64_t r) {
          return (!vd || vd[r]) && probe(static_cast<double>(d[r])) != neg;
        });
      }
      return;
    }
    case CompiledKernel::Op::kInListStr: {
      const Column& c = *cols[k.col];
      if (DictUsable(k, cols)) {
        RunDictLeaf(k, c, nullptr, scan);
        return;
      }
      const uint8_t* vd = c.validity_data();
      const std::string* d = c.data_string();
      const bool neg = k.negate;
      const std::vector<std::string>& list = k.str_list;
      scan([&](uint64_t r) {
        return (!vd || vd[r]) &&
               std::binary_search(list.begin(), list.end(), d[r]) != neg;
      });
      return;
    }
    case CompiledKernel::Op::kStartsWith: {
      const Column& c = *cols[k.col];
      if (DictUsable(k, cols)) {
        RunDictLeaf(k, c, nullptr, scan);
        return;
      }
      const uint8_t* vd = c.validity_data();
      const std::string* d = c.data_string();
      const bool neg = k.negate;
      scan([&](uint64_t r) {
        return (!vd || vd[r]) &&
               relgo::StartsWith(d[r], k.str_const) != neg;
      });
      return;
    }
    case CompiledKernel::Op::kContains: {
      const Column& c = *cols[k.col];
      if (DictUsable(k, cols)) {
        RunDictLeaf(k, c, nullptr, scan);
        return;
      }
      const uint8_t* vd = c.validity_data();
      const std::string* d = c.data_string();
      const bool neg = k.negate;
      scan([&](uint64_t r) {
        return (!vd || vd[r]) && relgo::Contains(d[r], k.str_const) != neg;
      });
      return;
    }
    case CompiledKernel::Op::kIsNull: {
      const uint8_t* vd = cols[k.col]->validity_data();
      if (!vd) return;  // all valid: nothing passes
      scan([&](uint64_t r) { return !vd[r]; });
      return;
    }
    case CompiledKernel::Op::kIsNotNull: {
      const uint8_t* vd = cols[k.col]->validity_data();
      if (!vd) {
        scan([](uint64_t) { return true; });
      } else {
        scan([&](uint64_t r) { return vd[r] != 0; });
      }
      return;
    }
    case CompiledKernel::Op::kBoolCol: {
      const Column& c = *cols[k.col];
      const uint8_t* vd = c.validity_data();
      const int64_t* d = c.data_int64();
      const bool neg = k.negate;
      if (!vd) {
        scan([&](uint64_t r) { return (d[r] != 0) != neg; });
      } else {
        scan([&](uint64_t r) { return vd[r] && (d[r] != 0) != neg; });
      }
      return;
    }
    case CompiledKernel::Op::kAllRows:
      scan([](uint64_t) { return true; });
      return;
    case CompiledKernel::Op::kNoRows:
      return;
  }
}

}  // namespace

int CompiledPredicate::AddLeaf(CompiledKernel k) {
  Node n;
  n.kind = Node::Kind::kLeaf;
  n.leaf = std::move(k);
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int CompiledPredicate::Lower(const Expr& expr, const Schema& schema,
                             bool negated) {
  using Kind = Expr::Kind;
  // Resolves a bound column-ref child against the schema; -1 on anything
  // else (the caller then falls back).
  auto col_index = [&](const Expr& e) -> int {
    if (e.kind() != Kind::kColumnRef) return -1;
    int idx = e.bound_index();
    if (idx < 0 || idx >= static_cast<int>(schema.num_columns())) return -1;
    return idx;
  };
  auto col_type = [&](int idx) { return schema.column(idx).type; };
  // Dictionary of a string column when compiled against a table;
  // nullptr otherwise (payload lowering only).
  auto col_dict = [&](int idx) -> const storage::StringDictionary* {
    if (table_ == nullptr) return nullptr;
    if (idx >= static_cast<int>(table_->num_columns())) return nullptr;
    const Column& c = table_->column(idx);
    if (c.type() != LogicalType::kString) return nullptr;
    return c.dictionary();
  };
  auto make_const = [&](bool pass) {
    CompiledKernel k;
    k.op = pass ? CompiledKernel::Op::kAllRows : CompiledKernel::Op::kNoRows;
    return AddLeaf(k);
  };

  switch (expr.kind()) {
    case Kind::kNot:
      return Lower(*expr.children()[0], schema, !negated);
    case Kind::kAnd:
    case Kind::kOr: {
      // Kleene De Morgan: NOT(a AND b) == NOT a OR NOT b under SQL
      // three-valued logic, so negation distributes to the children.
      bool is_and = (expr.kind() == Kind::kAnd) != negated;
      int l = Lower(*expr.children()[0], schema, negated);
      if (l < 0) return -1;
      int r = Lower(*expr.children()[1], schema, negated);
      if (r < 0) return -1;
      Node n;
      n.kind = is_and ? Node::Kind::kAnd : Node::Kind::kOr;
      n.children = {l, r};
      nodes_.push_back(std::move(n));
      return static_cast<int>(nodes_.size()) - 1;
    }
    case Kind::kCompare: {
      const Expr& le = *expr.children()[0];
      const Expr& re = *expr.children()[1];
      CompareOp op = negated ? NegateOp(expr.compare_op())
                             : expr.compare_op();
      // Constant-vs-constant folds at compile time.
      if (le.kind() == Kind::kConstant && re.kind() == Kind::kConstant) {
        if (le.constant().is_null() || re.constant().is_null()) {
          return make_const(false);
        }
        return make_const(ApplyOp(op, le.constant().Compare(re.constant())));
      }
      // Normalize constant-vs-column to column-vs-constant.
      const Expr* ce = &le;
      const Expr* ke = &re;
      if (le.kind() == Kind::kConstant) {
        std::swap(ce, ke);
        op = MirrorOp(op);
      }
      int ci = col_index(*ce);
      if (ci < 0) return -1;
      LogicalType ct = col_type(ci);
      if (ke->kind() == Kind::kConstant) {
        const Value& cv = ke->constant();
        if (cv.is_null()) return make_const(false);
        CompiledKernel k;
        k.cmp = op;
        k.col = ci;
        if (IsNumericType(ct) && IsNumericValue(cv)) {
          k.op = CompiledKernel::Op::kCmpNumConst;
          k.num_const = PromoteValue(cv);
        } else if (ct == LogicalType::kString &&
                   cv.type() == LogicalType::kString) {
          k.op = CompiledKernel::Op::kCmpStrConst;
          k.str_const = cv.string_value();
          if (const storage::StringDictionary* dict = col_dict(ci)) {
            // Dictionary lowering: translate the constant to a code at
            // compile time. The dictionary covers every string of the
            // compile-time column (null placeholders included), so an
            // absent constant folds: no row can equal it.
            if (op == CompareOp::kEq || op == CompareOp::kNe) {
              int32_t code = dict->Find(k.str_const);
              if (code < 0) {
                if (op == CompareOp::kEq) return make_const(false);
                CompiledKernel e;
                e.op = CompiledKernel::Op::kIsNotNull;
                e.col = ci;
                return AddLeaf(std::move(e));
              }
              k.dict_mode = CompiledKernel::DictMode::kCodeCmp;
              k.dict = dict;
              k.code_cmp = op;
              k.code_const = code;
            } else if (dict->sorted) {
              // Sorted dictionary: code order == lexicographic order,
              // so a range becomes an integer compare against the
              // constant's insertion position. With pos =
              // lower_bound(const) and ub = pos + (const present):
              // s < c <=> code < pos, s <= c <=> code < ub, and the
              // complements for >= / >.
              auto lb = std::lower_bound(dict->values.begin(),
                                         dict->values.end(), k.str_const);
              auto pos = static_cast<int32_t>(lb - dict->values.begin());
              int32_t ub =
                  pos + (lb != dict->values.end() && *lb == k.str_const);
              k.dict_mode = CompiledKernel::DictMode::kCodeCmp;
              k.dict = dict;
              switch (op) {
                case CompareOp::kLt:
                  k.code_cmp = CompareOp::kLt;
                  k.code_const = pos;
                  break;
                case CompareOp::kGe:
                  k.code_cmp = CompareOp::kGe;
                  k.code_const = pos;
                  break;
                case CompareOp::kLe:
                  k.code_cmp = CompareOp::kLt;
                  k.code_const = ub;
                  break;
                case CompareOp::kGt:
                  k.code_cmp = CompareOp::kGe;
                  k.code_const = ub;
                  break;
                default:
                  break;  // unreachable: kEq/kNe handled above
              }
            } else {
              // Unsorted (post-append) dictionary: evaluate the range
              // once per distinct value into a pass bitmap — O(distinct)
              // at compile, one byte load per row.
              k.dict_mode = CompiledKernel::DictMode::kCodeBits;
              k.dict = dict;
              k.code_bits.resize(dict->values.size());
              DispatchCmp(op, [&](auto cmpf) {
                for (size_t c = 0; c < dict->values.size(); ++c) {
                  k.code_bits[c] = cmpf(dict->values[c], k.str_const);
                }
              });
            }
          }
        } else if (ct == LogicalType::kNull) {
          return -1;
        } else {
          // Incomparable types: Value::Compare orders by type tag, so
          // the outcome is fixed for every non-null row.
          if (!ApplyOp(op, TypeTagCompare(ct, cv.type()))) {
            return make_const(false);
          }
          k.op = CompiledKernel::Op::kIsNotNull;
        }
        return AddLeaf(std::move(k));
      }
      int ci2 = col_index(*ke);
      if (ci2 < 0) return -1;
      LogicalType ct2 = col_type(ci2);
      CompiledKernel k;
      k.cmp = op;
      k.col = ci;
      k.col2 = ci2;
      if (IsNumericType(ct) && IsNumericType(ct2)) {
        k.op = CompiledKernel::Op::kCmpNumCols;
      } else if (ct == LogicalType::kString && ct2 == LogicalType::kString) {
        k.op = CompiledKernel::Op::kCmpStrCols;
        const storage::StringDictionary* dict = col_dict(ci);
        if (dict != nullptr && dict == col_dict(ci2)) {
          // Same shared dictionary on both sides: equal strings <=>
          // equal codes; a sorted dictionary carries the full ordering.
          if (op == CompareOp::kEq || op == CompareOp::kNe ||
              dict->sorted) {
            k.dict_mode = CompiledKernel::DictMode::kCodeCols;
            k.dict = dict;
            k.code_cmp = op;
          }
        }
      } else if (ct == LogicalType::kNull || ct2 == LogicalType::kNull) {
        return -1;
      } else {
        // Fixed type-tag outcome; rows still need both sides non-null.
        if (!ApplyOp(op, TypeTagCompare(ct, ct2))) return make_const(false);
        CompiledKernel ka;
        ka.op = CompiledKernel::Op::kIsNotNull;
        ka.col = ci;
        CompiledKernel kb;
        kb.op = CompiledKernel::Op::kIsNotNull;
        kb.col = ci2;
        Node n;
        n.kind = Node::Kind::kAnd;
        n.children = {AddLeaf(std::move(ka)), AddLeaf(std::move(kb))};
        nodes_.push_back(std::move(n));
        return static_cast<int>(nodes_.size()) - 1;
      }
      return AddLeaf(std::move(k));
    }
    case Kind::kStartsWith:
    case Kind::kContains: {
      int ci = col_index(*expr.children()[0]);
      if (ci < 0) return -1;
      if (col_type(ci) != LogicalType::kString) {
        // Row path yields NULL for non-string input, false either way.
        return make_const(false);
      }
      CompiledKernel k;
      k.op = expr.kind() == Kind::kStartsWith
                 ? CompiledKernel::Op::kStartsWith
                 : CompiledKernel::Op::kContains;
      k.col = ci;
      k.str_const = expr.string_arg();
      k.negate = negated;
      if (const storage::StringDictionary* dict = col_dict(ci)) {
        // Substring scans hit every row; against a dictionary the match
        // runs once per distinct value into a pass bitmap (negation
        // baked in), one byte load per row after that.
        k.dict_mode = CompiledKernel::DictMode::kCodeBits;
        k.dict = dict;
        k.code_bits.resize(dict->values.size());
        for (size_t c = 0; c < dict->values.size(); ++c) {
          bool m = expr.kind() == Kind::kStartsWith
                       ? relgo::StartsWith(dict->values[c], k.str_const)
                       : relgo::Contains(dict->values[c], k.str_const);
          k.code_bits[c] = m != k.negate;
        }
      }
      return AddLeaf(std::move(k));
    }
    case Kind::kInList: {
      int ci = col_index(*expr.children()[0]);
      if (ci < 0) return -1;
      LogicalType ct = col_type(ci);
      CompiledKernel k;
      k.col = ci;
      k.negate = negated;
      if (IsNumericType(ct)) {
        // Only numeric candidates can ever match (Value::Compare treats
        // cross-family pairs as incomparable, hence never equal).
        for (const Value& v : expr.in_list()) {
          if (IsNumericValue(v)) k.num_list.push_back(PromoteValue(v));
        }
        // A NaN candidate is Compare-equal to every numeric probe, so
        // the list matches all non-null rows (it also cannot be sorted).
        for (double v : k.num_list) {
          if (v != v) {
            CompiledKernel e;
            e.op = negated ? CompiledKernel::Op::kNoRows
                           : CompiledKernel::Op::kIsNotNull;
            e.col = ci;
            return AddLeaf(std::move(e));
          }
        }
        std::sort(k.num_list.begin(), k.num_list.end());
        k.num_list.erase(std::unique(k.num_list.begin(), k.num_list.end()),
                         k.num_list.end());
        if (k.num_list.empty()) {
          CompiledKernel e;
          e.op = negated ? CompiledKernel::Op::kIsNotNull
                         : CompiledKernel::Op::kNoRows;
          e.col = ci;
          return AddLeaf(std::move(e));
        }
        k.op = CompiledKernel::Op::kInListNum;
      } else if (ct == LogicalType::kString) {
        for (const Value& v : expr.in_list()) {
          if (v.type() == LogicalType::kString) {
            k.str_list.push_back(v.string_value());
          }
        }
        std::sort(k.str_list.begin(), k.str_list.end());
        k.str_list.erase(std::unique(k.str_list.begin(), k.str_list.end()),
                         k.str_list.end());
        if (k.str_list.empty()) {
          CompiledKernel e;
          e.op = negated ? CompiledKernel::Op::kIsNotNull
                         : CompiledKernel::Op::kNoRows;
          e.col = ci;
          return AddLeaf(std::move(e));
        }
        k.op = CompiledKernel::Op::kInListStr;
        if (const storage::StringDictionary* dict = col_dict(ci)) {
          // Probe set -> per-code pass bitmap: the sorted-list binary
          // search runs once per distinct value instead of once per row.
          k.dict_mode = CompiledKernel::DictMode::kCodeBits;
          k.dict = dict;
          k.code_bits.resize(dict->values.size());
          for (size_t c = 0; c < dict->values.size(); ++c) {
            bool in = std::binary_search(k.str_list.begin(),
                                         k.str_list.end(), dict->values[c]);
            k.code_bits[c] = in != k.negate;
          }
        }
      } else {
        return -1;
      }
      return AddLeaf(std::move(k));
    }
    case Kind::kIsNull: {
      const Expr& child = *expr.children()[0];
      if (child.kind() == Kind::kConstant) {
        return make_const(child.constant().is_null() != negated);
      }
      int ci = col_index(child);
      if (ci < 0 || col_type(ci) == LogicalType::kNull) return -1;
      CompiledKernel k;
      k.op = negated ? CompiledKernel::Op::kIsNotNull
                     : CompiledKernel::Op::kIsNull;
      k.col = ci;
      return AddLeaf(std::move(k));
    }
    case Kind::kColumnRef: {
      int ci = col_index(expr);
      if (ci < 0) return -1;
      if (col_type(ci) == LogicalType::kBool) {
        CompiledKernel k;
        k.op = CompiledKernel::Op::kBoolCol;
        k.col = ci;
        k.negate = negated;
        return AddLeaf(std::move(k));
      }
      // Non-bool bare reference: EvaluateBool's type check rejects every
      // row; under negation the row path is undefined, so fall back.
      return negated ? -1 : make_const(false);
    }
    case Kind::kConstant: {
      const Value& v = expr.constant();
      if (v.is_null()) return make_const(false);
      if (v.type() != LogicalType::kBool) {
        return negated ? -1 : make_const(false);
      }
      return make_const(v.bool_value() != negated);
    }
  }
  return -1;
}

std::unique_ptr<CompiledPredicate> CompiledPredicate::Compile(
    const Expr& expr, const Schema& schema, const storage::Table* table) {
  std::unique_ptr<CompiledPredicate> p(new CompiledPredicate());
  p->table_ = table;
  p->root_ = p->Lower(expr, schema, /*negated=*/false);
  if (p->root_ < 0) return nullptr;
  return p;
}

void CompiledPredicate::EvalDense(int node, const Column* const* columns,
                                  uint64_t begin, uint64_t end,
                                  std::vector<uint64_t>* out) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Node::Kind::kLeaf:
      RunLeaf(n.leaf, columns, [&](auto pred) {
        ScanRange(begin, end, pred, out);
      });
      return;
    case Node::Kind::kAnd: {
      std::vector<uint64_t> acc;
      EvalDense(n.children[0], columns, begin, end, &acc);
      std::vector<uint64_t> next;
      for (size_t i = 1; i < n.children.size() && !acc.empty(); ++i) {
        next.clear();
        EvalSelected(n.children[i], columns, acc, &next);
        acc.swap(next);
      }
      out->insert(out->end(), acc.begin(), acc.end());
      return;
    }
    case Node::Kind::kOr: {
      std::vector<uint64_t> acc;
      EvalDense(n.children[0], columns, begin, end, &acc);
      std::vector<uint64_t> tmp;
      std::vector<uint64_t> merged;
      for (size_t i = 1; i < n.children.size(); ++i) {
        tmp.clear();
        EvalDense(n.children[i], columns, begin, end, &tmp);
        UnionSelections(acc, tmp, &merged);
        acc.swap(merged);
      }
      out->insert(out->end(), acc.begin(), acc.end());
      return;
    }
  }
}

void CompiledPredicate::EvalSelected(int node, const Column* const* columns,
                                     const std::vector<uint64_t>& in,
                                     std::vector<uint64_t>* out) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Node::Kind::kLeaf:
      RunLeaf(n.leaf, columns, [&](auto pred) {
        ScanSelected(in, pred, out);
      });
      return;
    case Node::Kind::kAnd: {
      std::vector<uint64_t> acc;
      EvalSelected(n.children[0], columns, in, &acc);
      std::vector<uint64_t> next;
      for (size_t i = 1; i < n.children.size() && !acc.empty(); ++i) {
        next.clear();
        EvalSelected(n.children[i], columns, acc, &next);
        acc.swap(next);
      }
      out->insert(out->end(), acc.begin(), acc.end());
      return;
    }
    case Node::Kind::kOr: {
      std::vector<uint64_t> acc;
      EvalSelected(n.children[0], columns, in, &acc);
      std::vector<uint64_t> tmp;
      std::vector<uint64_t> merged;
      for (size_t i = 1; i < n.children.size(); ++i) {
        tmp.clear();
        EvalSelected(n.children[i], columns, in, &tmp);
        UnionSelections(acc, tmp, &merged);
        acc.swap(merged);
      }
      out->insert(out->end(), acc.begin(), acc.end());
      return;
    }
  }
}

void CompiledPredicate::FilterRange(const Column* const* columns,
                                    uint64_t begin, uint64_t end,
                                    std::vector<uint64_t>* out_sel) const {
  if (begin >= end) return;
  EvalDense(root_, columns, begin, end, out_sel);
}

void CompiledPredicate::FilterSelected(const Column* const* columns,
                                       const std::vector<uint64_t>& in,
                                       std::vector<uint64_t>* out_sel) const {
  EvalSelected(root_, columns, in, out_sel);
}

void CompiledPredicate::FilterBitmap(const Column* const* columns,
                                     uint64_t num_rows,
                                     std::vector<uint8_t>* out) const {
  out->assign(num_rows, 0);
  if (nodes_[root_].kind == Node::Kind::kLeaf) {
    // Single-leaf programs write the bitmap densely: `out[r] = pred(r)`
    // has no data-dependent store position, so the widest compare
    // kernels auto-vectorize where the selection-building ScanRange
    // (push_back) cannot (verified with -fopt-info-vec; see
    // docs/ARCHITECTURE.md "Dictionary-encoded strings").
    // By-value captures and __restrict__ matter: the uint8_t stores
    // would otherwise alias the validity bytes (char-typed under TBAA)
    // and the by-reference loop bound, forcing reloads per iteration.
    uint8_t* const o = out->data();
    const uint64_t n = num_rows;
    RunLeaf(nodes_[root_].leaf, columns, [o, n](auto pred) {
      // Copy the closure fields to true locals: the closure lives in
      // the caller's frame, and the char-typed ro[r] stores would
      // otherwise be assumed to clobber the bound each iteration.
      uint8_t* __restrict__ ro = o;
      const uint64_t nn = n;
      for (uint64_t r = 0; r < nn; ++r) ro[r] = pred(r) ? 1 : 0;
    });
    return;
  }
  std::vector<uint64_t> sel;
  FilterRange(columns, 0, num_rows, &sel);
  for (uint64_t r : sel) (*out)[r] = 1;
}

void CompiledPredicate::FilterTable(const storage::Table& table,
                                    uint64_t begin, uint64_t end,
                                    std::vector<uint64_t>* out_sel) const {
  std::vector<const Column*> cols(table.num_columns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = &table.column(i);
  FilterRange(cols.data(), begin, end, out_sel);
}

}  // namespace vector
}  // namespace exec
}  // namespace relgo
