#ifndef RELGO_OPTIMIZER_PLAN_CACHE_H_
#define RELGO_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stamped_lru.h"
#include "graph/rg_mapping.h"
#include "optimizer/query_optimizer.h"
#include "optimizer/stats.h"
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

/// Validity stamp of a cached plan: the stats epoch it was optimized at
/// and the TableStamp of every table the query reads. Those are the
/// vertex and edge tables behind its pattern's labels, then its joins'
/// tables, each once, in first-use order. That order is a function of
/// the query's shape, so one cache key always lists the same tables in
/// the same order. The stamp is an exact value, never a hash, so no
/// collision can serve a plan against another table generation. A plan
/// holds only table, column and alias names and expressions (no row ids
/// or row data), so it stays correct across appends; the drift buckets
/// only bound how far the estimates it was chosen under may have moved.
struct PlanStamp {
  uint64_t stats_epoch = 0;
  std::vector<TableStamp> tables;

  bool operator==(const PlanStamp& o) const {
    return stats_epoch == o.stats_epoch && tables == o.tables;
  }
};

/// The stamp `query` would be cached under now: `stats_epoch` plus the
/// TableStamp, in `catalog`, of each table the query reads through
/// `mapping` and its joins ({0, 0} for a table that does not exist).
PlanStamp MakePlanStamp(const plan::SpjmQuery& query,
                        const graph::RgMapping& mapping,
                        const storage::Catalog& catalog,
                        uint64_t stats_epoch);

/// Process-wide cache of optimized physical plans, keyed by
/// TemplateSignature and stamped with the PlanStamp of the tables the
/// plan reads. Invalidation is exact, never timed: an entry dies when
/// adaptive feedback taught the estimator something (epoch bump), when a
/// table it reads was dropped and re-created (new identity), or when one
/// grew by ~10% (drift bucket). A one-row append keeps every plan, and an
/// append to a table a plan does not read never touches it. Policy is
/// StampedLru's with unit cost, so the budget is an entry count. Callers
/// only Put after the plan executed successfully (the same
/// no-publish-on-failure chokepoint the scan cache uses), so a cancelled
/// or faulted query never seeds the cache.
class PlanCache : public StampedLru<plan::PhysicalOp, PlanStamp> {
 public:
  explicit PlanCache(size_t capacity = 256) : StampedLru(capacity) {}
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_PLAN_CACHE_H_
