#ifndef RELGO_EXEC_VECTOR_COMPILED_EXPR_H_
#define RELGO_EXEC_VECTOR_COMPILED_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/expression.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace relgo {
namespace exec {
namespace vector {

/// One lowered leaf kernel of a compiled predicate: a type-specialized
/// operation over a column payload span (see kernels.h for the ABI).
/// Nodes above leaves are AND/OR combinators over selection vectors.
struct CompiledKernel {
  enum class Op : uint8_t {
    kCmpNumConst,   // numeric-payload column vs promoted double constant
    kCmpStrConst,   // string column vs string constant
    kCmpNumCols,    // numeric-payload column vs numeric-payload column
    kCmpStrCols,    // string column vs string column
    kInListNum,     // numeric column IN sorted double probe set
    kInListStr,     // string column IN sorted string probe set
    kStartsWith,    // string column prefix match
    kContains,      // string column substring match
    kIsNull,        // pass rows with invalid slots
    kIsNotNull,     // pass rows with valid slots
    kBoolCol,       // bare bool column reference as predicate
    kAllRows,       // constant TRUE
    kNoRows,        // constant FALSE / NULL / type-incompatible compare
  };

  Op op = Op::kNoRows;
  storage::CompareOp cmp = storage::CompareOp::kEq;
  /// Negation baked into the leaf (NOT is pushed to leaves during
  /// lowering via Kleene-logic De Morgan; compare leaves instead flip
  /// their operator, so `negate` only applies to the match-style ops:
  /// kInList*, kStartsWith, kContains, kBoolCol).
  bool negate = false;
  int col = -1;   // bound index of the (left) input column
  int col2 = -1;  // bound index of the right column (kCmp*Cols)
  double num_const = 0.0;
  std::string str_const;
  std::vector<double> num_list;       // sorted, deduplicated
  std::vector<std::string> str_list;  // sorted, deduplicated

  /// Dictionary lowering of the string ops (set when compiled against a
  /// table whose column carries a storage::StringDictionary). The
  /// payload fields
  /// above stay fully populated: the kernel runner re-checks `dict`
  /// against each batch column and falls back to the payload compare
  /// when a derived column dropped the dictionary.
  enum class DictMode : uint8_t {
    kNone,      ///< no dictionary lowering; payload kernel only
    kCodeCmp,   ///< codes[r] `code_cmp` code_const (validity-gated)
    kCodeCols,  ///< codes[r] `code_cmp` codes2[r] (same shared dict)
    kCodeBits,  ///< code_bits[codes[r]] (negation pre-baked into bits)
  };
  DictMode dict_mode = DictMode::kNone;
  const storage::StringDictionary* dict = nullptr;
  storage::CompareOp code_cmp = storage::CompareOp::kEq;
  int32_t code_const = 0;
  std::vector<uint8_t> code_bits;  ///< indexed by code; 1 == row passes
};

/// A bound predicate tree lowered to a flat program of typed kernels.
///
/// The program is a node arena: leaves run one CompiledKernel over a row
/// range or an existing selection; kAnd chains children as successive
/// selection refinements; kOr unions child selections. Evaluation output
/// is always an ascending selection vector of rows where the original
/// expression's `EvaluateBool` is true — semantics are bit-identical to
/// the row-at-a-time path, including NULL collapse at the filter
/// boundary, numeric comparison via double promotion (Value::Compare),
/// and deterministic ordering of incomparable types.
///
/// `Compile` returns nullptr for any tree it cannot lower (the fallback
/// contract): callers must keep the row-at-a-time loop as the fallback.
class CompiledPredicate {
 public:
  /// Lowers `expr` against `schema`. `expr` must already be bound to
  /// `schema` (bound_index resolved). Returns nullptr when any part of
  /// the tree is outside the lowerable subset.
  ///
  /// With a `table`, string predicates additionally lower onto int32
  /// dictionary codes where its columns carry dictionaries. `table` must
  /// be the table the predicate filters — or the ancestor every filtered
  /// batch derives from: the constant-not-in-dictionary folds assume
  /// filtered rows draw their strings from the compile-time column's
  /// value set. Without one (a mid-pipeline filter), only the payload
  /// kernels are used.
  static std::unique_ptr<CompiledPredicate> Compile(
      const storage::Expr& expr, const storage::Schema& schema,
      const storage::Table* table = nullptr);

  /// Appends the passing rows of [begin, end) to `*out_sel` (ascending).
  /// `columns[i]` must match the compile-time schema layout.
  void FilterRange(const storage::Column* const* columns, uint64_t begin,
                   uint64_t end, std::vector<uint64_t>* out_sel) const;

  /// Refines an ascending selection: appends passing rows of `in` to
  /// `*out_sel`.
  void FilterSelected(const storage::Column* const* columns,
                      const std::vector<uint64_t>& in,
                      std::vector<uint64_t>* out_sel) const;

  /// Evaluates rows [0, num_rows) into a byte bitmap (1 == pass).
  void FilterBitmap(const storage::Column* const* columns, uint64_t num_rows,
                    std::vector<uint8_t>* out) const;

  /// Convenience over a Table: appends passing rows of [begin, end).
  void FilterTable(const storage::Table& table, uint64_t begin, uint64_t end,
                   std::vector<uint64_t>* out_sel) const;

 private:
  struct Node {
    enum class Kind : uint8_t { kLeaf, kAnd, kOr };
    Kind kind = Kind::kLeaf;
    CompiledKernel leaf;
    std::vector<int> children;  // arena indices (kAnd / kOr)
  };

  CompiledPredicate() = default;

  /// Lowers one subtree; returns the arena index or -1 when not
  /// lowerable. `negated` pushes NOT down (Kleene De Morgan).
  int Lower(const storage::Expr& expr, const storage::Schema& schema,
            bool negated);
  int AddLeaf(CompiledKernel k);

  void EvalDense(int node, const storage::Column* const* columns,
                 uint64_t begin, uint64_t end,
                 std::vector<uint64_t>* out) const;
  void EvalSelected(int node, const storage::Column* const* columns,
                    const std::vector<uint64_t>& in,
                    std::vector<uint64_t>* out) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  /// Compile-time dictionary context (see the table-aware Compile).
  const storage::Table* table_ = nullptr;
};

}  // namespace vector
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_VECTOR_COMPILED_EXPR_H_
