#include "optimizer/plan_cache.h"

#include <functional>
#include <utility>

namespace relgo {
namespace optimizer {

namespace {

using storage::Expr;
using storage::ExprPtr;

/// Structurally rebuilds an expression tree, delegating every constant
/// leaf to `on_constant`. Column references are rebuilt unbound (callers
/// re-Bind), every other node keeps its shape and arguments.
ExprPtr RebuildExpr(const ExprPtr& e,
                    const std::function<ExprPtr(const Expr&)>& on_constant) {
  switch (e->kind()) {
    case Expr::Kind::kColumnRef:
      return Expr::Column(e->column_name());
    case Expr::Kind::kConstant:
      return on_constant(*e);
    case Expr::Kind::kCompare:
      return Expr::Compare(e->compare_op(),
                           RebuildExpr(e->children()[0], on_constant),
                           RebuildExpr(e->children()[1], on_constant));
    case Expr::Kind::kAnd:
      return Expr::And(RebuildExpr(e->children()[0], on_constant),
                       RebuildExpr(e->children()[1], on_constant));
    case Expr::Kind::kOr:
      return Expr::Or(RebuildExpr(e->children()[0], on_constant),
                      RebuildExpr(e->children()[1], on_constant));
    case Expr::Kind::kNot:
      return Expr::Not(RebuildExpr(e->children()[0], on_constant));
    case Expr::Kind::kStartsWith:
      return Expr::StartsWith(RebuildExpr(e->children()[0], on_constant),
                              e->string_arg());
    case Expr::Kind::kContains:
      return Expr::Contains(RebuildExpr(e->children()[0], on_constant),
                            e->string_arg());
    case Expr::Kind::kInList:
      return Expr::InList(RebuildExpr(e->children()[0], on_constant),
                          e->in_list());
    case Expr::Kind::kIsNull:
      return Expr::IsNull(RebuildExpr(e->children()[0], on_constant));
  }
  return e->Clone();
}

/// Applies `fn` to every expression slot of `q`, in the deterministic
/// order that defines parameter-slot numbering: pattern vertices, pattern
/// edges, join scan filters, WHERE.
void TransformQueryExprs(plan::SpjmQuery* q,
                         const std::function<ExprPtr(const ExprPtr&)>& fn) {
  pattern::PatternGraph& p = q->pattern;
  for (int i = 0; i < p.num_vertices(); ++i) {
    if (p.vertex(i).predicate) {
      p.vertex(i).predicate = fn(p.vertex(i).predicate);
    }
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    if (p.edge(i).predicate) p.edge(i).predicate = fn(p.edge(i).predicate);
  }
  for (auto& j : q->joins) {
    if (j.scan_filter) j.scan_filter = fn(j.scan_filter);
  }
  if (q->where) q->where = fn(q->where);
}

void CollectExprParams(const ExprPtr& e,
                       std::unordered_map<int, Value>* out) {
  if (!e) return;
  if (e->kind() == Expr::Kind::kConstant && e->param_slot() >= 0) {
    (*out)[e->param_slot()] = e->constant();
  }
  for (const auto& child : e->children()) CollectExprParams(child, out);
}

std::string ExprSig(const ExprPtr& e) {
  return e ? e->ToTemplateString() : "";
}

}  // namespace

ParameterizedQuery ParameterizeQuery(const plan::SpjmQuery& query) {
  ParameterizedQuery out;
  out.query = query;
  auto slot_constant = [&out](const Expr& c) -> ExprPtr {
    const Value& v = c.constant();
    if (v.type() == LogicalType::kBool || v.type() == LogicalType::kNull) {
      // Structural literals (the empty-conjunction TRUE) stay literal:
      // slotting them would let a binding change the plan shape.
      return Expr::Constant(v);
    }
    int slot = static_cast<int>(out.defaults.size());
    out.defaults.push_back(v);
    return Expr::Param(slot, v);
  };
  TransformQueryExprs(&out.query, [&slot_constant](const ExprPtr& e) {
    return RebuildExpr(e, slot_constant);
  });
  return out;
}

Result<plan::SpjmQuery> BindTemplate(const ParameterizedQuery& t,
                                     const std::vector<Value>& params) {
  if (params.size() != t.defaults.size()) {
    return Status::InvalidArgument(
        "template '" + t.query.name + "' takes " +
        std::to_string(t.defaults.size()) + " parameter(s), got " +
        std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].type() != t.defaults[i].type()) {
      return Status::InvalidArgument(
          "template '" + t.query.name + "' parameter $" + std::to_string(i) +
          " type mismatch");
    }
  }
  plan::SpjmQuery bound = t.query;
  auto substitute = [&params](const Expr& c) -> ExprPtr {
    if (c.param_slot() >= 0) {
      return Expr::Param(c.param_slot(), params[c.param_slot()]);
    }
    return Expr::Constant(c.constant());
  };
  TransformQueryExprs(&bound, [&substitute](const ExprPtr& e) {
    return RebuildExpr(e, substitute);
  });
  return bound;
}

std::string TemplateSignature(const plan::SpjmQuery& query,
                              OptimizerMode mode) {
  std::string sig = "mode=";
  sig += ModeName(mode);
  const pattern::PatternGraph& p = query.pattern;
  sig += "|pattern:";
  for (int i = 0; i < p.num_vertices(); ++i) {
    const pattern::PatternVertex& v = p.vertex(i);
    sig += "v" + std::to_string(i) + ":" + std::to_string(v.label) + ":" +
           v.name + "[" + ExprSig(v.predicate) + "];";
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    const pattern::PatternEdge& e = p.edge(i);
    sig += "e" + std::to_string(i) + ":" + std::to_string(e.label) + ":" +
           std::to_string(e.src) + "->" + std::to_string(e.dst) + ":" +
           e.name + "[" + ExprSig(e.predicate) + "];";
  }
  for (const auto& [a, b] : p.distinct_pairs()) {
    sig += "d" + std::to_string(a) + "!=" + std::to_string(b) + ";";
  }
  sig += "|cols:";
  for (const auto& g : query.graph_projections) {
    sig += g.var + "." + g.column + " AS " + g.output_name + ";";
  }
  sig += "|joins:";
  for (const auto& j : query.joins) {
    sig += j.table + " " + j.alias + " ON " + j.left_column + "=" +
           j.right_column + "[" + ExprSig(j.scan_filter) + "];";
  }
  sig += "|where:" + ExprSig(query.where);
  sig += "|select:";
  for (const auto& [src, out] : query.select) {
    sig += src + " AS " + out + ";";
  }
  sig += "|group:";
  for (const auto& g : query.group_by) sig += g + ";";
  sig += "|agg:";
  for (const auto& a : query.aggregates) {
    sig += std::to_string(static_cast<int>(a.func)) + "(" + a.input_column +
           ") AS " + a.output_name + ";";
  }
  sig += "|order:";
  for (const auto& k : query.order_by) {
    sig += k.column + (k.ascending ? " ASC;" : " DESC;");
  }
  sig += "|limit:" + std::to_string(query.limit);
  return sig;
}

std::unordered_map<int, Value> CollectBoundParams(
    const plan::SpjmQuery& query) {
  std::unordered_map<int, Value> out;
  const pattern::PatternGraph& p = query.pattern;
  for (int i = 0; i < p.num_vertices(); ++i) {
    CollectExprParams(p.vertex(i).predicate, &out);
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    CollectExprParams(p.edge(i).predicate, &out);
  }
  for (const auto& j : query.joins) CollectExprParams(j.scan_filter, &out);
  CollectExprParams(query.where, &out);
  return out;
}

storage::ExprPtr RebindExpr(const storage::ExprPtr& e,
                            const std::unordered_map<int, Value>& params) {
  if (!e) return nullptr;
  return RebuildExpr(e, [&params](const Expr& c) -> ExprPtr {
    if (c.param_slot() >= 0) {
      auto it = params.find(c.param_slot());
      if (it != params.end()) return Expr::Param(c.param_slot(), it->second);
    }
    return c.param_slot() >= 0 ? Expr::Param(c.param_slot(), c.constant())
                               : Expr::Constant(c.constant());
  });
}

PlanStamp MakePlanStamp(const plan::SpjmQuery& query,
                        const graph::RgMapping& mapping,
                        const storage::Catalog& catalog,
                        uint64_t stats_epoch) {
  PlanStamp stamp;
  stamp.stats_epoch = stats_epoch;
  // Each table once, in first-use order: the order is a function of the
  // query's shape, which TemplateSignature encodes, so one cache key
  // always stamps the same tables in the same order.
  std::vector<const std::string*> seen;
  auto add = [&](const std::string& name) {
    for (const std::string* s : seen) {
      if (*s == name) return;
    }
    seen.push_back(&name);
    auto table = catalog.GetTable(name);
    stamp.tables.push_back(table.ok() ? StampOf(**table) : TableStamp{});
  };
  const pattern::PatternGraph& p = query.pattern;
  for (int i = 0; i < p.num_vertices(); ++i) {
    int label = p.vertex(i).label;
    if (label >= 0 &&
        static_cast<size_t>(label) < mapping.num_vertex_labels()) {
      add(mapping.vertex_mapping(label).table);
    }
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    int label = p.edge(i).label;
    if (label >= 0 &&
        static_cast<size_t>(label) < mapping.num_edge_labels()) {
      add(mapping.edge_mapping(label).table);
    }
  }
  for (const auto& j : query.joins) add(j.table);
  return stamp;
}

}  // namespace optimizer
}  // namespace relgo
