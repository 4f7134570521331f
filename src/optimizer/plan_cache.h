#ifndef RELGO_OPTIMIZER_PLAN_CACHE_H_
#define RELGO_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stamped_lru.h"
#include "optimizer/query_optimizer.h"
#include "plan/physical_plan.h"
#include "plan/spjm_query.h"

namespace relgo {
namespace optimizer {

/// A query template: an SpjmQuery whose eligible constants have been
/// replaced by parameter slots ($0, $1, ...), plus the default value each
/// slot was extracted from. Bind concrete constants with BindTemplate;
/// every binding shares one TemplateSignature, so every binding reuses one
/// cached plan.
struct ParameterizedQuery {
  plan::SpjmQuery query;
  std::vector<Value> defaults;  ///< per-slot values, in slot order
};

/// Extracts a template from `query`: every non-bool, non-null constant in
/// the pattern predicates, join scan filters and WHERE clause becomes a
/// parameter slot (slot order: pattern vertices, pattern edges, joins,
/// where — left to right within each expression). Bool/null constants are
/// structural (e.g. the empty-conjunction TRUE) and stay literal; IN-list
/// members and STARTS WITH / CONTAINS string arguments are part of the
/// template shape and are not slotted.
ParameterizedQuery ParameterizeQuery(const plan::SpjmQuery& query);

/// Binds one constant per slot into a copy of the template. Fails when the
/// arity or any value's LogicalType differs from the template's defaults.
/// Bound constants keep their slot annotation, so the optimizer estimates
/// them value-insensitively — a fresh optimize of the bound query produces
/// the same plan as rebinding the cached template plan.
Result<plan::SpjmQuery> BindTemplate(const ParameterizedQuery& t,
                                     const std::vector<Value>& params);

/// Canonical cache key of (query shape, optimizer mode): renders the
/// pattern, projections, joins, predicates (via Expr::ToTemplateString, so
/// parameter slots erase their bound values), output clause and mode name
/// into one deterministic string. Two bindings of one template map to the
/// same signature; a plain unparameterized query gets a value-rendered
/// signature (exact-match caching).
std::string TemplateSignature(const plan::SpjmQuery& query,
                              OptimizerMode mode);

/// Slot -> currently-bound constant for every parameterized constant in
/// `query`'s expressions; empty for unparameterized queries.
std::unordered_map<int, Value> CollectBoundParams(const plan::SpjmQuery& query);

/// Deep-copies `e`, substituting `params[slot]` at each slotted constant
/// whose slot is present in the map (absent slots keep their value).
/// Resolved column indexes are dropped — callers re-Bind, per the
/// clone-before-Bind discipline.
storage::ExprPtr RebindExpr(const storage::ExprPtr& e,
                            const std::unordered_map<int, Value>& params);

/// Process-wide cache of optimized physical plans, keyed by
/// TemplateSignature and stamped with (stats epoch, catalog version) of
/// the owning Database. Invalidation is exact, never timed: an entry dies
/// when adaptive feedback taught the estimator something (epoch bump) or
/// the catalog changed under it (storage::Catalog::version moves on every
/// append, create and drop). Policy is StampedLru's with unit cost, so
/// the budget is an entry count.
class PlanCache
    : public StampedLru<plan::PhysicalOp, std::pair<uint64_t, uint64_t>> {
 public:
  explicit PlanCache(size_t capacity = 256) : StampedLru(capacity) {}

  /// The cached plan for `key` if present and still valid against
  /// (stats_epoch, data_version); otherwise a miss.
  Ptr Get(const std::string& key, uint64_t stats_epoch,
          uint64_t data_version) {
    return StampedLru::Get(key, {stats_epoch, data_version});
  }

  /// Publishes a plan under `key`. Callers only publish after the plan
  /// executed successfully (the same no-publish-on-failure chokepoint the
  /// scan cache uses), so a cancelled or faulted query never seeds the
  /// cache.
  void Put(const std::string& key, uint64_t stats_epoch,
           uint64_t data_version, Ptr plan) {
    StampedLru::Put(key, {stats_epoch, data_version}, std::move(plan));
  }
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_PLAN_CACHE_H_
