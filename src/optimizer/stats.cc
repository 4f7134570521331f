#include "optimizer/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace relgo {
namespace optimizer {

double TableStats::Cardinality(const std::string& table) const {
  auto t = catalog_->GetTable(table);
  return t.ok() ? static_cast<double>((*t)->num_rows()) : 0.0;
}

uint32_t DriftBucket(uint64_t rows) {
  static const double kInvLogRatio = 1.0 / std::log(1.1);
  return static_cast<uint32_t>(
      std::log(static_cast<double>(rows) + 50.0) * kInvLogRatio);
}

TableStamp StampOf(const storage::Table& table) {
  return {table.identity(), DriftBucket(table.num_rows())};
}

double TableStats::DistinctCount(const std::string& table,
                                 const std::string& column) const {
  auto t = catalog_->GetTable(table);
  if (!t.ok()) return 1.0;
  const TableStamp stamp = StampOf(**t);
  std::string key = table + "." + column;
  {
    std::lock_guard<std::mutex> lock(distinct_mu_);
    auto cached = distinct_cache_.find(key);
    if (cached != distinct_cache_.end() && cached->second.stamp == stamp) {
      return cached->second.count;
    }
  }

  const storage::Column* col = (*t)->FindColumn(column);
  double result = 1.0;
  if (col != nullptr && col->type() == LogicalType::kInt64) {
    std::unordered_set<int64_t> seen;
    seen.reserve((*t)->num_rows());
    for (uint64_t r = 0; r < (*t)->num_rows(); ++r) {
      seen.insert(col->int_at(r));
    }
    result = std::max<double>(1.0, static_cast<double>(seen.size()));
  } else if (col != nullptr) {
    // Non-integer columns: assume moderately distinct.
    result = std::max(1.0, static_cast<double>((*t)->num_rows()) / 10.0);
  }
  std::lock_guard<std::mutex> lock(distinct_mu_);
  distinct_cache_[key] = {stamp, result};
  return result;
}

namespace {

double HeuristicSelectivityExpr(const storage::Table& table,
                                const storage::Expr& e,
                                const TableStats& stats) {
  using storage::CompareOp;
  using Kind = storage::Expr::Kind;
  switch (e.kind()) {
    case Kind::kCompare: {
      // column <op> constant (either side).
      const auto& lhs = e.children()[0];
      const auto& rhs = e.children()[1];
      const storage::Expr* col = nullptr;
      if (lhs->kind() == Kind::kColumnRef && rhs->kind() == Kind::kConstant) {
        col = lhs.get();
      } else if (rhs->kind() == Kind::kColumnRef &&
                 lhs->kind() == Kind::kConstant) {
        col = rhs.get();
      }
      if (e.compare_op() == CompareOp::kEq && col != nullptr) {
        double ndv = stats.DistinctCount(table.name(), col->column_name());
        return std::min(1.0, 1.0 / ndv);
      }
      if (e.compare_op() == CompareOp::kNe) return 0.9;
      return 1.0 / 3.0;  // ranges: the classic System R guess
    }
    case Kind::kAnd:
      return HeuristicSelectivityExpr(table, *e.children()[0], stats) *
             HeuristicSelectivityExpr(table, *e.children()[1], stats);
    case Kind::kOr: {
      double a = HeuristicSelectivityExpr(table, *e.children()[0], stats);
      double b = HeuristicSelectivityExpr(table, *e.children()[1], stats);
      return std::min(1.0, a + b - a * b);
    }
    case Kind::kNot:
      return 1.0 -
             HeuristicSelectivityExpr(table, *e.children()[0], stats);
    case Kind::kStartsWith:
      return 0.05;
    case Kind::kContains:
      return 0.1;
    case Kind::kInList:
      return std::min(1.0, 0.01 * static_cast<double>(e.in_list().size()));
    case Kind::kIsNull:
      return 0.05;
    case Kind::kConstant:
      return 1.0;
    default:
      return 0.5;
  }
}

}  // namespace

double TableStats::HeuristicSelectivity(const storage::Table& table,
                                        const storage::ExprPtr& filter) const {
  if (!filter) return 1.0;
  return std::max(1e-9,
                  HeuristicSelectivityExpr(table, *filter, *this));
}

double TableStats::CorrectedSelectivity(const storage::Table& table,
                                        const storage::ExprPtr& filter,
                                        bool sampled) const {
  double sel = sampled ? SampledSelectivity(table, filter)
                       : HeuristicSelectivity(table, filter);
  if (feedback_ == nullptr || feedback_->empty() || !filter) return sel;
  double factor =
      feedback_->Factor(ScanFeedbackKey(table.name(), filter, sampled));
  if (factor == 1.0) return sel;
  return std::min(std::max(sel * factor, 1e-9), 1.0);
}

double TableStats::SampledSelectivity(const storage::Table& table,
                                      const storage::ExprPtr& filter,
                                      size_t sample_size) const {
  if (!filter) return 1.0;
  // Parameterized predicates are estimated value-insensitively: sampling
  // would make the estimate (and hence the plan) depend on the bound
  // constant, breaking the plan cache's generic-plan contract that every
  // binding of one template plans identically.
  if (filter->HasParam()) return HeuristicSelectivity(table, filter);
  if (table.num_rows() == 0) return 1.0;
  if (!filter->BindsTo(table.schema())) return 0.5;
  storage::ExprPtr bound = filter->Clone();
  if (!bound->Bind(table.schema()).ok()) return 0.5;

  uint64_t n = table.num_rows();
  uint64_t stride = std::max<uint64_t>(1, n / sample_size);
  uint64_t sampled = 0, hits = 0;
  for (uint64_t r = 0; r < n; r += stride) {
    ++sampled;
    if (bound->EvaluateBool(table, r)) ++hits;
  }
  // Laplace smoothing keeps zero-hit predicates from collapsing to 0.
  return std::max(1e-9, (static_cast<double>(hits) + 0.5) /
                            (static_cast<double>(sampled) + 1.0));
}

}  // namespace optimizer
}  // namespace relgo
