#ifndef RELGO_OPTIMIZER_RELATIONAL_OPTIMIZER_H_
#define RELGO_OPTIMIZER_RELATIONAL_OPTIMIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph_stats.h"
#include "optimizer/graph_optimizer.h"
#include "optimizer/stats.h"
#include "plan/physical_plan.h"
#include "plan/spjm_query.h"

namespace relgo {
namespace optimizer {

/// Options for the relational (join-order) optimizer.
struct RelOptimizerOptions {
  /// Substitute eligible hash joins with GRainDB predefined joins
  /// (RID_JOIN / RID_EXPAND_JOIN) at physical emission. Join *ordering* is
  /// index-agnostic either way, mirroring GRainDB's design where the
  /// DuckDB optimizer is reused unchanged (Sec 4.1).
  bool use_graph_index = false;
  /// Sampling-based scan selectivities (the Umbra-like mode); otherwise
  /// System-R style heuristics (DuckDB-like).
  bool sampled_selectivity = false;
  /// Exact DP (DPsub) bound; larger join graphs fall back to a greedy
  /// min-cardinality heuristic.
  int dp_max_relations = 14;
};

/// One leaf of the join graph: a base-table scan or the encapsulated
/// SCAN_GRAPH_TABLE produced by the graph optimizer.
struct RelNode {
  enum class Kind { kTableScan, kGraphTable };
  Kind kind = Kind::kTableScan;
  std::string alias;

  // kTableScan:
  std::string table;
  storage::ExprPtr filter;  ///< pushed predicate over raw columns

  // kGraphTable:
  plan::PhysicalOpPtr graph_root;  ///< binding-table producer (moved in)
  std::vector<plan::GraphProjection> projections;
  std::vector<std::pair<std::string, int>> vertex_var_labels;
  std::vector<std::pair<std::string, int>> edge_var_labels;
  storage::ExprPtr post_filter;  ///< residual filter over projected columns
  double graph_cardinality = 0.0;
  double graph_cost = 0.0;  ///< graph optimizer's cost for graph_root
  /// Feedback signature of the matched pattern (PatternFeedbackKey) —
  /// distinguishes different queries' graph leaves inside persisted
  /// join-mask correction keys.
  std::string graph_signature;

  /// Qualified output column names this node exposes.
  std::vector<std::string> output_columns;
};

/// An equi-join predicate between two join-graph nodes. When the predicate
/// is one side of an EVJoin (Eq 3), the rid-join metadata identifies the
/// edge mapping so GRainDB-mode emission can use the graph index.
struct JoinEdgeSpec {
  int a = -1, b = -1;
  std::string a_col, b_col;  ///< qualified names on each side

  int edge_label = -1;  ///< >= 0: this is an EVJoin of that edge label
  int edge_node = -1;   ///< node index of the edge-relation side
  int vertex_node = -1; ///< node index of the vertex-relation side
  /// RID_JOIN direction: kOut when the vertex is the edge's source.
  graph::Direction vertex_side = graph::Direction::kOut;
};

/// Wraps `root` in the query's output clause, innermost first:
/// HASH_AGGREGATE (when aggregating), PROJECT (when selecting), ORDER_BY,
/// LIMIT — each only when the query asks for it. Every optimizer mode
/// ends its plan here.
plan::PhysicalOpPtr AddOutputClause(const plan::SpjmQuery& query,
                                    plan::PhysicalOpPtr root);

/// DP/greedy join-order optimizer with C_out cost, plus physical plan
/// emission (hash joins, or predefined rid-joins when the other side is a
/// base scan and the index applies — the order-sensitivity GRainDB
/// exhibits in Fig 12).
class RelationalOptimizer {
 public:
  /// `feedback` (optional) is the adaptive-statistics sink: scan and
  /// join-output estimates consult its correction factors and emitted
  /// nodes are stamped with their signatures (PhysicalOp::feedback_key).
  RelationalOptimizer(const storage::Catalog* catalog,
                      const graph::RgMapping* mapping,
                      const TableStats* stats,
                      const StatsFeedback* feedback = nullptr)
      : catalog_(catalog),
        mapping_(mapping),
        stats_(stats),
        feedback_(feedback) {}

  /// Graph-agnostic planning of a full SPJM query: the matching operator is
  /// flattened via Lemma 1 into vertex/edge relation scans plus EVJoins,
  /// then join-ordered together with the query's relational joins.
  Result<plan::PhysicalOpPtr> PlanAgnostic(
      const plan::SpjmQuery& query, const RelOptimizerOptions& options) const;

  /// Converged planning: the graph sub-plan enters the join graph as one
  /// SCAN_GRAPH_TABLE leaf; only the relational component is join-ordered.
  Result<plan::PhysicalOpPtr> PlanWithGraphLeaf(
      const plan::SpjmQuery& query, GraphPlanResult graph_plan,
      const RelOptimizerOptions& options) const;

  /// Lemma-1 flattening exposed for tests: fills nodes/edges/conjuncts for
  /// the pattern of `query` (aliases = pattern variable names).
  Status FlattenPattern(const plan::SpjmQuery& query,
                        std::vector<RelNode>* nodes,
                        std::vector<JoinEdgeSpec>* edges,
                        std::vector<storage::ExprPtr>* conjuncts) const;

 private:
  Result<plan::PhysicalOpPtr> Plan(std::vector<RelNode> nodes,
                                   std::vector<JoinEdgeSpec> edges,
                                   std::vector<storage::ExprPtr> conjuncts,
                                   const plan::SpjmQuery& query,
                                   const RelOptimizerOptions& options) const;

  const storage::Catalog* catalog_;
  const graph::RgMapping* mapping_;
  const TableStats* stats_;
  const StatsFeedback* feedback_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_RELATIONAL_OPTIMIZER_H_
