#include "optimizer/relational_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

namespace relgo {
namespace optimizer {

using graph::Direction;
using plan::PhysicalOp;
using plan::PhysicalOpPtr;
using plan::SpjmQuery;
using storage::Expr;
using storage::ExprPtr;

namespace {

/// Strips "alias." from a qualified name when it carries that prefix.
bool StripPrefix(const std::string& qualified, const std::string& alias,
                 std::string* raw) {
  if (qualified.size() > alias.size() + 1 &&
      qualified.compare(0, alias.size(), alias) == 0 &&
      qualified[alias.size()] == '.') {
    *raw = qualified.substr(alias.size() + 1);
    return true;
  }
  return false;
}

/// Resolves qualified column names to (base table, raw column) for NDV and
/// selectivity estimation; understands both scan aliases and graph-table
/// projections.
class ColumnResolver {
 public:
  ColumnResolver(const std::vector<RelNode>* nodes,
                 const graph::RgMapping* mapping)
      : nodes_(nodes), mapping_(mapping) {}

  /// Returns true and fills table/raw column when `qualified` is traceable
  /// to a base table column of node `node`.
  bool Resolve(int node, const std::string& qualified, std::string* table,
               std::string* raw) const {
    const RelNode& n = (*nodes_)[node];
    if (n.kind == RelNode::Kind::kTableScan) {
      if (!StripPrefix(qualified, n.alias, raw)) return false;
      *table = n.table;
      return true;
    }
    for (const auto& proj : n.projections) {
      if (proj.output_name != qualified) continue;
      for (const auto& [var, label] : n.vertex_var_labels) {
        if (var == proj.var) {
          *table = mapping_->vertex_mapping(label).table;
          *raw = proj.column;
          return true;
        }
      }
      for (const auto& [var, label] : n.edge_var_labels) {
        if (var == proj.var) {
          *table = mapping_->edge_mapping(label).table;
          *raw = proj.column;
          return true;
        }
      }
    }
    return false;
  }

  /// Node index owning the qualified column; -1 when unknown.
  int Owner(const std::string& qualified) const {
    for (size_t i = 0; i < nodes_->size(); ++i) {
      const auto& cols = (*nodes_)[i].output_columns;
      if (std::find(cols.begin(), cols.end(), qualified) != cols.end()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

 private:
  const std::vector<RelNode>* nodes_;
  const graph::RgMapping* mapping_;
};

/// Selectivity of a predicate over a node's output, resolving column
/// references through the node (graph-table aware).
double NodePredicateSelectivity(const RelNode& node, int node_index,
                                const Expr& e, const ColumnResolver& resolver,
                                const TableStats& stats) {
  using Kind = Expr::Kind;
  switch (e.kind()) {
    case Kind::kCompare: {
      const auto& lhs = e.children()[0];
      const auto& rhs = e.children()[1];
      const Expr* col = nullptr;
      if (lhs->kind() == Kind::kColumnRef && rhs->kind() == Kind::kConstant) {
        col = lhs.get();
      } else if (rhs->kind() == Kind::kColumnRef &&
                 lhs->kind() == Kind::kConstant) {
        col = rhs.get();
      }
      if (e.compare_op() == storage::CompareOp::kEq && col != nullptr) {
        std::string table, raw;
        if (resolver.Resolve(node_index, col->column_name(), &table, &raw)) {
          return std::min(1.0, 1.0 / stats.DistinctCount(table, raw));
        }
        return 0.01;
      }
      return 1.0 / 3.0;
    }
    case Kind::kAnd:
      return NodePredicateSelectivity(node, node_index, *e.children()[0],
                                      resolver, stats) *
             NodePredicateSelectivity(node, node_index, *e.children()[1],
                                      resolver, stats);
    case Kind::kOr: {
      double a = NodePredicateSelectivity(node, node_index, *e.children()[0],
                                          resolver, stats);
      double b = NodePredicateSelectivity(node, node_index, *e.children()[1],
                                          resolver, stats);
      return std::min(1.0, a + b - a * b);
    }
    case Kind::kNot:
      return 1.0 - NodePredicateSelectivity(node, node_index,
                                            *e.children()[0], resolver, stats);
    case Kind::kStartsWith:
      return 0.05;
    case Kind::kContains:
      return 0.1;
    case Kind::kInList:
      return std::min(1.0, 0.01 * static_cast<double>(e.in_list().size()));
    default:
      return 0.5;
  }
}

/// Join-order search (DPsub with C_out, greedy fallback) + emission.
class JoinPlanner {
 public:
  JoinPlanner(std::vector<RelNode> nodes, std::vector<JoinEdgeSpec> edges,
              const RelOptimizerOptions& options, const TableStats* stats,
              const graph::RgMapping* mapping,
              const storage::Catalog* catalog,
              const StatsFeedback* feedback)
      : nodes_(std::move(nodes)),
        edges_(std::move(edges)),
        options_(options),
        stats_(stats),
        catalog_(catalog),
        feedback_(feedback),
        has_corrections_(feedback != nullptr && !feedback->empty()),
        resolver_(&nodes_, mapping) {}

  Status Prepare(const std::vector<std::string>& used_columns) {
    used_columns_ = used_columns;
    node_cards_.resize(nodes_.size());
    node_keys_.resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      RELGO_RETURN_NOT_OK(PrepareNode(static_cast<int>(i)));
    }
    return Status::OK();
  }

  Result<PhysicalOpPtr> BuildJoinTree() {
    size_t n = nodes_.size();
    if (n == 1) return EmitLeaf(0);
    if (static_cast<int>(n) <= options_.dp_max_relations) {
      RELGO_RETURN_NOT_OK(RunDp());
      uint32_t all = (1u << n) - 1;
      if (!plans_.count(all)) {
        return Status::InvalidArgument(
            "join graph is disconnected (cross products unsupported)");
      }
      return EmitMask(all);
    }
    return BuildGreedy();
  }

 private:
  struct DpEntry {
    double cost = std::numeric_limits<double>::infinity();
    uint32_t split = 0;  // s1 of the winning (s1, s2) pair; 0 == leaf
  };

  Status PrepareNode(int i) {
    RelNode& node = nodes_[i];
    if (node.kind == RelNode::Kind::kTableScan) {
      RELGO_ASSIGN_OR_RETURN(auto table, catalog_->GetTable(node.table));
      double base = static_cast<double>(table->num_rows());
      double sel = 1.0;
      if (node.filter) {
        // CorrectedSelectivity layers the adaptive feedback factor for
        // this (table, predicate) over the mode's base estimator.
        sel = stats_->CorrectedSelectivity(*table, node.filter,
                                           options_.sampled_selectivity);
        node_keys_[i] = ScanFeedbackKey(node.table, node.filter,
                                        options_.sampled_selectivity);
      }
      node_cards_[i] = std::max(base * sel, 1e-3);
      // Fill output columns (pruned to used + join keys + $rid).
      node.output_columns.clear();
      bool emit_rid = NeedsRowId(i);
      if (emit_rid) node.output_columns.push_back(node.alias + ".$rid");
      for (const auto& def : table->schema().columns()) {
        std::string qualified = node.alias + "." + def.name;
        if (IsColumnUsed(qualified)) node.output_columns.push_back(qualified);
      }
    } else {
      double sel = 1.0;
      if (node.post_filter) {
        sel = NodePredicateSelectivity(node, i, *node.post_filter, resolver_,
                                       *stats_);
      }
      node_cards_[i] = std::max(node.graph_cardinality * sel, 1e-3);
      node.output_columns.clear();
      for (const auto& proj : node.projections) {
        node.output_columns.push_back(proj.output_name);
      }
    }
    return Status::OK();
  }

  bool NeedsRowId(int i) const {
    if (!options_.use_graph_index) return false;
    for (const auto& e : edges_) {
      if (e.edge_label >= 0 && (e.edge_node == i || e.vertex_node == i)) {
        return true;
      }
    }
    return false;
  }

  bool IsColumnUsed(const std::string& qualified) const {
    if (std::find(used_columns_.begin(), used_columns_.end(), qualified) !=
        used_columns_.end()) {
      return true;
    }
    for (const auto& e : edges_) {
      if (e.a_col == qualified || e.b_col == qualified) return true;
    }
    return false;
  }

  double EdgeSelectivity(const JoinEdgeSpec& e) const {
    double ndv_a = 1.0, ndv_b = 1.0;
    std::string table, raw;
    if (resolver_.Resolve(e.a, e.a_col, &table, &raw)) {
      ndv_a = stats_->DistinctCount(table, raw);
    }
    if (resolver_.Resolve(e.b, e.b_col, &table, &raw)) {
      ndv_b = stats_->DistinctCount(table, raw);
    }
    return 1.0 / std::max({ndv_a, ndv_b, 1.0});
  }

  double MaskCard(uint32_t mask) {
    auto it = card_memo_.find(mask);
    if (it != card_memo_.end()) return it->second;
    double card = 1.0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (mask >> i & 1u) card *= node_cards_[i];
    }
    for (const auto& e : edges_) {
      if ((mask >> e.a & 1u) && (mask >> e.b & 1u)) {
        card *= EdgeSelectivity(e);
      }
    }
    // Adaptive correction of the join-output estimate for this mask
    // signature (covers join-key distinct-count errors, which the
    // independence model above cannot see). Leaves are corrected at the
    // scan level already; the emptiness snapshot keeps the non-adaptive
    // DP free of signature work.
    if (has_corrections_ && __builtin_popcount(mask) >= 2) {
      double factor = feedback_->Factor(MaskKey(mask));
      if (factor != 1.0) card *= factor;
    }
    card = std::max(card, 1e-3);
    card_memo_[mask] = card;
    return card;
  }

  /// Stable feedback signature of a join-graph mask: sorted leaf
  /// signatures (base table + pushed predicate; the graph leaf by its
  /// residual filter) plus sorted join conditions internal to the mask,
  /// resolved to base-table columns where possible. Structurally
  /// symmetric sub-joins deliberately share one key, like canonical
  /// pattern codes — their true cardinalities are equal.
  const std::string& MaskKey(uint32_t mask) {
    auto it = mask_key_memo_.find(mask);
    if (it != mask_key_memo_.end()) return it->second;
    std::vector<std::string> leaves, conds;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!(mask >> i & 1u)) continue;
      const RelNode& n = nodes_[i];
      if (n.kind == RelNode::Kind::kTableScan) {
        leaves.push_back("t:" + n.table + ":" +
                         (n.filter ? n.filter->ToTemplateString() : ""));
      } else {
        leaves.push_back(
            "g:" + n.graph_signature + ":" +
            (n.post_filter ? n.post_filter->ToTemplateString() : ""));
      }
    }
    for (const auto& e : edges_) {
      if (!(mask >> e.a & 1u) || !(mask >> e.b & 1u)) continue;
      std::string table, raw;
      std::string sa = resolver_.Resolve(e.a, e.a_col, &table, &raw)
                           ? table + "." + raw
                           : e.a_col;
      std::string sb = resolver_.Resolve(e.b, e.b_col, &table, &raw)
                           ? table + "." + raw
                           : e.b_col;
      conds.push_back(sa <= sb ? sa + "=" + sb : sb + "=" + sa);
    }
    std::sort(leaves.begin(), leaves.end());
    std::sort(conds.begin(), conds.end());
    std::string key = "rel|";
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (i) key += ",";
      key += leaves[i];
    }
    key += "|";
    for (size_t i = 0; i < conds.size(); ++i) {
      if (i) key += ",";
      key += conds[i];
    }
    return mask_key_memo_[mask] = std::move(key);
  }

  bool Joinable(uint32_t s1, uint32_t s2) const {
    for (const auto& e : edges_) {
      bool a1 = s1 >> e.a & 1u, b1 = s1 >> e.b & 1u;
      bool a2 = s2 >> e.a & 1u, b2 = s2 >> e.b & 1u;
      if ((a1 && b2) || (b1 && a2)) return true;
    }
    return false;
  }

  Status RunDp() {
    size_t n = nodes_.size();
    uint32_t all = (1u << n) - 1;
    for (size_t i = 0; i < n; ++i) {
      DpEntry leaf;
      // Leaf constants (including the graph sub-plan's internal cost) are
      // shared by every complete plan, so they never change the argmin —
      // but they make the reported subtree costs meaningful.
      leaf.cost = LeafCost(static_cast<int>(i));
      leaf.split = 0;
      plans_[1u << i] = leaf;
    }
    for (uint32_t mask = 1; mask <= all; ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      DpEntry best;
      for (uint32_t s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
        uint32_t s2 = mask ^ s1;
        if (s1 > s2) continue;  // each unordered split once
        auto it1 = plans_.find(s1);
        auto it2 = plans_.find(s2);
        if (it1 == plans_.end() || it2 == plans_.end()) continue;
        if (!Joinable(s1, s2)) continue;
        double cost = it1->second.cost + it2->second.cost + MaskCard(mask);
        if (cost < best.cost) {
          best.cost = cost;
          best.split = s1;
        }
      }
      if (std::isfinite(best.cost)) plans_[mask] = best;
    }
    return Status::OK();
  }

  Result<PhysicalOpPtr> BuildGreedy() {
    // Each partition: (mask, plan, card, accumulated C_out cost).
    struct Part {
      uint32_t mask;
      PhysicalOpPtr op;
      double card;
      double cost;
    };
    std::vector<Part> parts;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      RELGO_ASSIGN_OR_RETURN(auto leaf, EmitLeaf(static_cast<int>(i)));
      parts.push_back({1u << i, std::move(leaf), node_cards_[i],
                       LeafCost(static_cast<int>(i))});
    }
    while (parts.size() > 1) {
      double best_card = std::numeric_limits<double>::infinity();
      int bi = -1, bj = -1;
      for (size_t i = 0; i < parts.size(); ++i) {
        for (size_t j = i + 1; j < parts.size(); ++j) {
          if (!Joinable(parts[i].mask, parts[j].mask)) continue;
          double card = MaskCard(parts[i].mask | parts[j].mask);
          if (card < best_card) {
            best_card = card;
            bi = static_cast<int>(i);
            bj = static_cast<int>(j);
          }
        }
      }
      if (bi < 0) {
        return Status::InvalidArgument(
            "join graph is disconnected (cross products unsupported)");
      }
      double joined_cost = parts[bi].cost + parts[bj].cost + best_card;
      RELGO_ASSIGN_OR_RETURN(
          auto joined,
          EmitJoin(parts[bi].mask, parts[bj].mask, std::move(parts[bi].op),
                   std::move(parts[bj].op), joined_cost));
      parts[bi].mask |= parts[bj].mask;
      parts[bi].op = std::move(joined);
      parts[bi].card = best_card;
      parts[bi].cost = joined_cost;
      parts.erase(parts.begin() + bj);
    }
    return std::move(parts[0].op);
  }

  /// C_out cost of one leaf: its (filtered) cardinality, plus the graph
  /// optimizer's internal plan cost for the SCAN_GRAPH_TABLE leaf.
  double LeafCost(int i) const {
    const RelNode& node = nodes_[i];
    double cost = node_cards_[i];
    if (node.kind == RelNode::Kind::kGraphTable) cost += node.graph_cost;
    return cost;
  }

  Result<PhysicalOpPtr> EmitLeaf(int i) {
    RelNode& node = nodes_[i];
    if (node.kind == RelNode::Kind::kTableScan) {
      auto scan = std::make_unique<plan::PhysScanTable>();
      scan->table = node.table;
      scan->alias = node.alias;
      scan->filter = node.filter;
      scan->emit_rowid = NeedsRowId(i);
      for (const auto& qualified : node.output_columns) {
        std::string raw;
        if (StripPrefix(qualified, node.alias, &raw) && raw != "$rid") {
          scan->projected_columns.push_back(raw);
        }
      }
      scan->estimated_cardinality = node_cards_[i];
      scan->estimated_cost = node_cards_[i];
      scan->feedback_key = node_keys_[i];
      return PhysicalOpPtr(std::move(scan));
    }
    auto sgt = std::make_unique<plan::PhysScanGraphTable>();
    sgt->projections = node.projections;
    sgt->vertex_var_labels = node.vertex_var_labels;
    sgt->edge_var_labels = node.edge_var_labels;
    sgt->children.push_back(std::move(node.graph_root));
    sgt->estimated_cardinality = node.graph_cardinality;
    sgt->estimated_cost = node.graph_cost + node.graph_cardinality;
    PhysicalOpPtr op = std::move(sgt);
    if (node.post_filter) {
      auto filter = std::make_unique<plan::PhysFilter>();
      filter->predicate = node.post_filter;
      filter->children.push_back(std::move(op));
      filter->estimated_cardinality = node_cards_[i];
      filter->estimated_cost = LeafCost(i);
      op = std::move(filter);
    }
    return op;
  }

  Result<PhysicalOpPtr> EmitMask(uint32_t mask) {
    const DpEntry& entry = plans_.at(mask);
    if (entry.split == 0) {
      return EmitLeaf(__builtin_ctz(mask));
    }
    uint32_t s1 = entry.split, s2 = mask ^ entry.split;
    RELGO_ASSIGN_OR_RETURN(auto left, EmitMask(s1));
    RELGO_ASSIGN_OR_RETURN(auto right, EmitMask(s2));
    return EmitJoin(s1, s2, std::move(left), std::move(right), entry.cost);
  }

  /// Crossing join conditions between two masks, oriented (s1 col, s2 col).
  std::vector<std::pair<const JoinEdgeSpec*, bool>> CrossingEdges(
      uint32_t s1, uint32_t s2) const {
    std::vector<std::pair<const JoinEdgeSpec*, bool>> out;
    for (const auto& e : edges_) {
      bool a1 = s1 >> e.a & 1u, b1 = s1 >> e.b & 1u;
      bool a2 = s2 >> e.a & 1u, b2 = s2 >> e.b & 1u;
      if (a1 && b2) out.emplace_back(&e, false);   // a-side on s1
      if (b1 && a2) out.emplace_back(&e, true);    // b-side on s1
    }
    return out;
  }

  Result<PhysicalOpPtr> EmitJoin(uint32_t s1, uint32_t s2, PhysicalOpPtr left,
                                 PhysicalOpPtr right, double subtree_cost) {
    auto crossing = CrossingEdges(s1, s2);
    if (crossing.empty()) return Status::Internal("no crossing join edges");
    double out_card = MaskCard(s1 | s2);

    // GRainDB-style predefined join: applicable when one side is a single
    // base-table leaf and the crossing condition is an EVJoin whose
    // counterpart lives on the other side. Join-result x join-result pairs
    // fall back to hash joins — exactly the missed-index case of Fig 12.
    // When both orientations are possible (leaf x leaf), the cheaper side
    // drives (streams rids) and the larger side is absorbed as the rid
    // target, mirroring GRainDB's sjoin semantics.
    if (options_.use_graph_index) {
      bool prefer_absorb_s2 = MaskCard(s1) <= MaskCard(s2);
      for (size_t ci = 0; ci < crossing.size(); ++ci) {
        const JoinEdgeSpec& e = *crossing[ci].first;
        if (e.edge_label < 0) continue;
        bool s2_is_leaf = __builtin_popcount(s2) == 1;
        bool s1_is_leaf = __builtin_popcount(s1) == 1;
        int s2_node = s2_is_leaf ? __builtin_ctz(s2) : -1;
        int s1_node = s1_is_leaf ? __builtin_ctz(s1) : -1;

        // Each candidate: absorb a leaf node, driving from the other side.
        struct Candidate {
          int absorbed;
          bool vertex_fetch;
          bool child_is_left;
        };
        std::vector<Candidate> candidates;
        if (s2_is_leaf && s2_node == e.vertex_node &&
            nodes_[e.vertex_node].kind == RelNode::Kind::kTableScan &&
            (s1 >> e.edge_node & 1u)) {
          candidates.push_back({e.vertex_node, true, true});
        }
        if (s1_is_leaf && s1_node == e.vertex_node &&
            nodes_[e.vertex_node].kind == RelNode::Kind::kTableScan &&
            (s2 >> e.edge_node & 1u)) {
          candidates.push_back({e.vertex_node, true, false});
        }
        if (s2_is_leaf && s2_node == e.edge_node &&
            nodes_[e.edge_node].kind == RelNode::Kind::kTableScan &&
            (s1 >> e.vertex_node & 1u)) {
          candidates.push_back({e.edge_node, false, true});
        }
        if (s1_is_leaf && s1_node == e.edge_node &&
            nodes_[e.edge_node].kind == RelNode::Kind::kTableScan &&
            (s2 >> e.vertex_node & 1u)) {
          candidates.push_back({e.edge_node, false, false});
        }
        if (candidates.empty()) continue;
        // Prefer absorbing the side the cost model thinks is larger.
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const Candidate& a, const Candidate& b) {
                           bool a_pref = a.child_is_left == prefer_absorb_s2;
                           bool b_pref = b.child_is_left == prefer_absorb_s2;
                           return a_pref > b_pref;
                         });
        int absorbed = candidates[0].absorbed;
        bool vertex_fetch = candidates[0].vertex_fetch;
        PhysicalOpPtr child = candidates[0].child_is_left ? std::move(left)
                                                          : std::move(right);

        RelNode& anode = nodes_[absorbed];
        PhysicalOpPtr op;
        if (vertex_fetch) {
          auto rj = std::make_unique<plan::PhysRidLookupJoin>();
          rj->edge_label = e.edge_label;
          rj->dir = e.vertex_side;
          rj->edge_rowid_column =
              nodes_[e.edge_node].alias + ".$rid";
          rj->vertex_alias = anode.alias;
          rj->vertex_filter = anode.filter;
          rj->emit_vertex_rowid = NeedsRowId(absorbed);
          for (const auto& qualified : anode.output_columns) {
            std::string raw;
            if (StripPrefix(qualified, anode.alias, &raw) && raw != "$rid") {
              rj->vertex_columns.push_back(raw);
            }
          }
          rj->children.push_back(std::move(child));
          rj->estimated_cardinality = out_card;
          rj->estimated_cost = subtree_cost;
          op = std::move(rj);
        } else {
          auto rj = std::make_unique<plan::PhysRidExpandJoin>();
          rj->edge_label = e.edge_label;
          rj->dir = e.vertex_side;
          rj->vertex_rowid_column = nodes_[e.vertex_node].alias + ".$rid";
          rj->edge_alias = anode.alias;
          rj->edge_filter = anode.filter;
          rj->emit_edge_rowid = NeedsRowId(absorbed);
          for (const auto& qualified : anode.output_columns) {
            std::string raw;
            if (StripPrefix(qualified, anode.alias, &raw) && raw != "$rid") {
              rj->edge_columns.push_back(raw);
            }
          }
          rj->children.push_back(std::move(child));
          rj->estimated_cardinality = out_card;
          rj->estimated_cost = subtree_cost;
          op = std::move(rj);
        }
        // Remaining crossing conditions become a residual filter.
        std::vector<ExprPtr> residual;
        for (size_t cj = 0; cj < crossing.size(); ++cj) {
          if (cj == ci) continue;
          const JoinEdgeSpec& r = *crossing[cj].first;
          residual.push_back(Expr::ColumnsEq(r.a_col, r.b_col));
        }
        if (!residual.empty()) {
          auto filter = std::make_unique<plan::PhysFilter>();
          filter->predicate = Expr::And(residual);
          filter->children.push_back(std::move(op));
          filter->estimated_cardinality = out_card;
          filter->estimated_cost = subtree_cost;
          op = std::move(filter);
        }
        // The join's topmost node (after any residual filter) produces
        // the mask's rows — stamp the mask signature for feedback.
        op->feedback_key = MaskKey(s1 | s2);
        return op;
      }
    }

    // Hash join on all crossing conditions.
    auto hj = std::make_unique<plan::PhysHashJoin>();
    for (const auto& [e, flipped] : crossing) {
      hj->left_keys.push_back(flipped ? e->b_col : e->a_col);
      hj->right_keys.push_back(flipped ? e->a_col : e->b_col);
    }
    hj->children.push_back(std::move(left));
    hj->children.push_back(std::move(right));
    hj->estimated_cardinality = out_card;
    hj->estimated_cost = subtree_cost;
    hj->feedback_key = MaskKey(s1 | s2);
    return PhysicalOpPtr(std::move(hj));
  }

  std::vector<RelNode> nodes_;
  std::vector<JoinEdgeSpec> edges_;
  RelOptimizerOptions options_;
  const TableStats* stats_;
  const storage::Catalog* catalog_;
  const StatsFeedback* feedback_;
  bool has_corrections_;  ///< feedback non-empty at planner construction
  ColumnResolver resolver_;
  std::vector<std::string> used_columns_;
  std::vector<double> node_cards_;
  std::vector<std::string> node_keys_;  ///< scan feedback keys per leaf
  std::unordered_map<uint32_t, DpEntry> plans_;
  std::unordered_map<uint32_t, double> card_memo_;
  std::unordered_map<uint32_t, std::string> mask_key_memo_;
};

/// Collects every qualified column the output clause references.
std::vector<std::string> CollectUsedColumns(
    const SpjmQuery& query, const std::vector<ExprPtr>& residual) {
  std::vector<std::string> used;
  auto add_expr = [&](const ExprPtr& e) {
    if (e) e->CollectColumns(&used);
  };
  for (const auto& [src, _] : query.select) used.push_back(src);
  for (const auto& g : query.group_by) used.push_back(g);
  for (const auto& a : query.aggregates) {
    if (!a.input_column.empty()) used.push_back(a.input_column);
  }
  for (const auto& k : query.order_by) used.push_back(k.column);
  for (const auto& j : query.joins) used.push_back(j.left_column);
  for (const auto& e : residual) add_expr(e);
  return used;
}

/// Appends the SPJ-side relational joins of the query as join-graph nodes.
Status AppendRelationalJoins(const SpjmQuery& query,
                             const graph::RgMapping* mapping,
                             std::vector<RelNode>* nodes,
                             std::vector<JoinEdgeSpec>* edges) {
  (void)mapping;
  for (const auto& j : query.joins) {
    RelNode node;
    node.kind = RelNode::Kind::kTableScan;
    node.alias = j.alias;
    node.table = j.table;
    node.filter = j.scan_filter;
    int b = static_cast<int>(nodes->size());
    nodes->push_back(std::move(node));

    // Resolve the owner of the left column among all earlier nodes.
    int owner = -1;
    for (int i = 0; i < b; ++i) {
      const RelNode& n = (*nodes)[i];
      if (n.kind == RelNode::Kind::kTableScan) {
        std::string raw;
        if (StripPrefix(j.left_column, n.alias, &raw)) owner = i;
      } else {
        for (const auto& proj : n.projections) {
          if (proj.output_name == j.left_column) owner = i;
        }
      }
    }
    if (owner < 0) {
      return Status::InvalidArgument("join column '" + j.left_column +
                                     "' does not resolve to any input");
    }
    JoinEdgeSpec spec;
    spec.a = owner;
    spec.b = b;
    spec.a_col = j.left_column;
    spec.b_col = j.alias + "." + j.right_column;
    edges->push_back(std::move(spec));
  }
  return Status::OK();
}

/// Rename map from custom pi-hat output names back to "var.column"
/// defaults, used by the flattened (graph-agnostic) path.
std::unordered_map<std::string, std::string> ProjectionRenames(
    const SpjmQuery& query) {
  std::unordered_map<std::string, std::string> renames;
  for (const auto& proj : query.graph_projections) {
    std::string internal = proj.var + "." + proj.column;
    if (proj.output_name != internal) renames[proj.output_name] = internal;
  }
  return renames;
}

std::string ApplyRename(
    const std::string& name,
    const std::unordered_map<std::string, std::string>& renames) {
  auto it = renames.find(name);
  return it == renames.end() ? name : it->second;
}

}  // namespace

Status RelationalOptimizer::FlattenPattern(
    const SpjmQuery& query, std::vector<RelNode>* nodes,
    std::vector<JoinEdgeSpec>* edges,
    std::vector<ExprPtr>* conjuncts) const {
  const pattern::PatternGraph& p = query.pattern;
  std::vector<int> vertex_node(p.num_vertices(), -1);

  for (int v = 0; v < p.num_vertices(); ++v) {
    const graph::VertexMapping& vm =
        mapping_->vertex_mapping(p.vertex(v).label);
    RelNode node;
    node.kind = RelNode::Kind::kTableScan;
    node.alias = p.VertexVarName(v);
    node.table = vm.table;
    node.filter = p.vertex(v).predicate;
    vertex_node[v] = static_cast<int>(nodes->size());
    nodes->push_back(std::move(node));
  }

  for (int e = 0; e < p.num_edges(); ++e) {
    const auto& pe = p.edge(e);
    const graph::EdgeMapping& em = mapping_->edge_mapping(pe.label);
    const graph::VertexMapping& src_vm =
        mapping_->vertex_mapping(mapping_->EdgeSrcLabelId(pe.label));
    const graph::VertexMapping& dst_vm =
        mapping_->vertex_mapping(mapping_->EdgeDstLabelId(pe.label));

    bool identity_src =
        em.table == src_vm.table && em.src_key_column == src_vm.key_column;
    if (identity_src) {
      // FK edge folded into the source vertex relation (Example 4's
      // redundant-relation elimination): a single EVJoin to the target.
      JoinEdgeSpec spec;
      spec.a = vertex_node[pe.src];
      spec.b = vertex_node[pe.dst];
      spec.a_col = p.VertexVarName(pe.src) + "." + em.dst_key_column;
      spec.b_col = p.VertexVarName(pe.dst) + "." + dst_vm.key_column;
      spec.edge_label = pe.label;
      spec.edge_node = vertex_node[pe.src];
      spec.vertex_node = vertex_node[pe.dst];
      spec.vertex_side = Direction::kIn;  // target side of the edge
      edges->push_back(std::move(spec));
      if (pe.predicate) {
        // The edge predicate constrains the source relation directly.
        RelNode& src_node = (*nodes)[vertex_node[pe.src]];
        src_node.filter = src_node.filter
                              ? Expr::And(src_node.filter, pe.predicate)
                              : pe.predicate;
      }
      continue;
    }

    RelNode node;
    node.kind = RelNode::Kind::kTableScan;
    node.alias = p.EdgeVarName(e);
    node.table = em.table;
    node.filter = pe.predicate;
    int edge_idx = static_cast<int>(nodes->size());
    nodes->push_back(std::move(node));

    JoinEdgeSpec src_spec;
    src_spec.a = edge_idx;
    src_spec.b = vertex_node[pe.src];
    src_spec.a_col = p.EdgeVarName(e) + "." + em.src_key_column;
    src_spec.b_col = p.VertexVarName(pe.src) + "." + src_vm.key_column;
    src_spec.edge_label = pe.label;
    src_spec.edge_node = edge_idx;
    src_spec.vertex_node = vertex_node[pe.src];
    src_spec.vertex_side = Direction::kOut;
    edges->push_back(std::move(src_spec));

    JoinEdgeSpec dst_spec;
    dst_spec.a = edge_idx;
    dst_spec.b = vertex_node[pe.dst];
    dst_spec.a_col = p.EdgeVarName(e) + "." + em.dst_key_column;
    dst_spec.b_col = p.VertexVarName(pe.dst) + "." + dst_vm.key_column;
    dst_spec.edge_label = pe.label;
    dst_spec.edge_node = edge_idx;
    dst_spec.vertex_node = vertex_node[pe.dst];
    dst_spec.vertex_side = Direction::kIn;
    edges->push_back(std::move(dst_spec));
  }

  // Distinct pairs become key inequalities over the flattened relations.
  for (const auto& [a, b] : p.distinct_pairs()) {
    const graph::VertexMapping& vma =
        mapping_->vertex_mapping(p.vertex(a).label);
    const graph::VertexMapping& vmb =
        mapping_->vertex_mapping(p.vertex(b).label);
    conjuncts->push_back(Expr::Compare(
        storage::CompareOp::kNe,
        Expr::Column(p.VertexVarName(a) + "." + vma.key_column),
        Expr::Column(p.VertexVarName(b) + "." + vmb.key_column)));
  }
  return Status::OK();
}

PhysicalOpPtr AddOutputClause(const SpjmQuery& query, PhysicalOpPtr root) {
  auto wrap = [&root](PhysicalOpPtr op) {
    op->children.push_back(std::move(root));
    root = std::move(op);
  };
  if (!query.aggregates.empty()) {
    auto agg = std::make_unique<plan::PhysHashAggregate>();
    agg->group_by = query.group_by;
    agg->aggregates = query.aggregates;
    wrap(std::move(agg));
  }
  if (!query.select.empty()) {
    auto proj = std::make_unique<plan::PhysProject>();
    proj->columns = query.select;
    wrap(std::move(proj));
  }
  if (!query.order_by.empty()) {
    auto order = std::make_unique<plan::PhysOrderBy>();
    order->keys = query.order_by;
    wrap(std::move(order));
  }
  if (query.limit >= 0) {
    auto limit = std::make_unique<plan::PhysLimit>();
    limit->limit = query.limit;
    wrap(std::move(limit));
  }
  return root;
}

Result<PhysicalOpPtr> RelationalOptimizer::Plan(
    std::vector<RelNode> nodes, std::vector<JoinEdgeSpec> edges,
    std::vector<ExprPtr> conjuncts, const SpjmQuery& query,
    const RelOptimizerOptions& options) const {
  // Push single-node conjuncts into node filters.
  std::vector<ExprPtr> residual;
  for (auto& conjunct : conjuncts) {
    std::vector<std::string> cols;
    conjunct->CollectColumns(&cols);
    int owner = -1;
    bool single = !cols.empty();
    for (const auto& col : cols) {
      int node = -1;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].kind == RelNode::Kind::kTableScan) {
          std::string raw;
          if (StripPrefix(col, nodes[i].alias, &raw)) {
            node = static_cast<int>(i);
          }
        } else {
          for (const auto& proj : nodes[i].projections) {
            if (proj.output_name == col) node = static_cast<int>(i);
          }
        }
      }
      if (node < 0 || (owner >= 0 && node != owner)) {
        single = false;
        break;
      }
      owner = node;
    }
    if (single && owner >= 0) {
      RelNode& node = nodes[owner];
      if (node.kind == RelNode::Kind::kTableScan) {
        // Rebase qualified references onto raw column names.
        std::unordered_map<std::string, std::string> rename;
        for (const auto& col : cols) {
          std::string raw;
          if (StripPrefix(col, node.alias, &raw)) rename[col] = raw;
        }
        ExprPtr rebased = conjunct->CloneRenamed(rename);
        node.filter =
            node.filter ? Expr::And(node.filter, rebased) : rebased;
      } else {
        node.post_filter = node.post_filter
                               ? Expr::And(node.post_filter, conjunct)
                               : conjunct;
      }
    } else {
      residual.push_back(conjunct);
    }
  }

  std::vector<std::string> used = CollectUsedColumns(query, residual);

  JoinPlanner planner(std::move(nodes), std::move(edges), options, stats_,
                      mapping_, catalog_, feedback_);
  RELGO_RETURN_NOT_OK(planner.Prepare(used));
  RELGO_ASSIGN_OR_RETURN(auto root, planner.BuildJoinTree());

  if (!residual.empty()) {
    auto filter = std::make_unique<plan::PhysFilter>();
    filter->predicate = Expr::And(residual);
    filter->children.push_back(std::move(root));
    root = std::move(filter);
  }

  return AddOutputClause(query, std::move(root));
}

Result<PhysicalOpPtr> RelationalOptimizer::PlanAgnostic(
    const SpjmQuery& query, const RelOptimizerOptions& options) const {
  std::vector<RelNode> nodes;
  std::vector<JoinEdgeSpec> edges;
  std::vector<ExprPtr> conjuncts;
  RELGO_RETURN_NOT_OK(FlattenPattern(query, &nodes, &edges, &conjuncts));

  // Rewrite custom pi-hat output names to their flattened equivalents.
  auto renames = ProjectionRenames(query);
  SpjmQuery rewritten = query;
  rewritten.pattern = query.pattern;  // untouched
  if (rewritten.where) {
    rewritten.where = rewritten.where->CloneRenamed(renames);
  }
  for (auto& [src, _] : rewritten.select) src = ApplyRename(src, renames);
  for (auto& g : rewritten.group_by) g = ApplyRename(g, renames);
  for (auto& a : rewritten.aggregates) {
    a.input_column = ApplyRename(a.input_column, renames);
  }
  for (auto& k : rewritten.order_by) k.column = ApplyRename(k.column, renames);
  for (auto& j : rewritten.joins) {
    j.left_column = ApplyRename(j.left_column, renames);
  }

  RELGO_RETURN_NOT_OK(
      AppendRelationalJoins(rewritten, mapping_, &nodes, &edges));
  if (rewritten.where) {
    Expr::SplitConjuncts(rewritten.where, &conjuncts);
  }
  return Plan(std::move(nodes), std::move(edges), std::move(conjuncts),
              rewritten, options);
}

Result<PhysicalOpPtr> RelationalOptimizer::PlanWithGraphLeaf(
    const SpjmQuery& query, GraphPlanResult graph_plan,
    const RelOptimizerOptions& options) const {
  const pattern::PatternGraph& p = query.pattern;
  std::vector<RelNode> nodes;
  RelNode gnode;
  gnode.kind = RelNode::Kind::kGraphTable;
  gnode.alias = "$graph";
  gnode.graph_root = std::move(graph_plan.root);
  gnode.projections = query.graph_projections;
  gnode.graph_cardinality = graph_plan.estimated_cardinality;
  gnode.graph_cost = graph_plan.estimated_cost;
  gnode.graph_signature = PatternFeedbackKey(p);
  for (int v = 0; v < p.num_vertices(); ++v) {
    gnode.vertex_var_labels.emplace_back(p.VertexVarName(v),
                                         p.vertex(v).label);
  }
  for (int e = 0; e < p.num_edges(); ++e) {
    gnode.edge_var_labels.emplace_back(p.EdgeVarName(e), p.edge(e).label);
  }
  nodes.push_back(std::move(gnode));

  std::vector<JoinEdgeSpec> edges;
  RELGO_RETURN_NOT_OK(AppendRelationalJoins(query, mapping_, &nodes, &edges));

  std::vector<ExprPtr> conjuncts;
  if (query.where) Expr::SplitConjuncts(query.where, &conjuncts);
  return Plan(std::move(nodes), std::move(edges), std::move(conjuncts), query,
              options);
}

}  // namespace optimizer
}  // namespace relgo
