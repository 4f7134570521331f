#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/naive_matcher.h"
#include "exec/scan_cache.h"
#include "fixtures.h"

namespace relgo {
namespace {

using exec::ExecutionContext;
using exec::ExecutionOptions;
using exec::Executor;
using plan::OpKind;
using storage::Expr;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  ExecutionContext MakeContext(ExecutionOptions options = {}) {
    return ExecutionContext(&db_.catalog(), &db_.mapping(), &db_.index(),
                            options);
  }

  int Label(const char* name, bool edge = false) {
    return edge ? db_.mapping().FindEdgeLabel(name)
                : db_.mapping().FindVertexLabel(name);
  }

  Database db_;
};

TEST_F(ExecTest, ScanTableWithFilterAndAlias) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  scan.filter = Expr::Eq("name", Value::String("Bob"));
  auto ctx = MakeContext();
  auto result = Executor::Run(scan, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), 1u);
  EXPECT_GE((*result)->schema().FindColumn("p.name"), 0);
  EXPECT_EQ((*result)->GetValue(0, 1).string_value(), "Bob");
}

TEST_F(ExecTest, ScanTableEmitsRowIds) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  scan.emit_rowid = true;
  auto ctx = MakeContext();
  auto result = Executor::Run(scan, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->schema().column(0).name, "p.$rid");
  EXPECT_EQ((*result)->GetValue(2, 0).int_value(), 2);
}

TEST_F(ExecTest, ProjectRenames) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Place";
  scan->alias = "pl";
  plan::PhysProject proj;
  proj.columns = {{"pl.name", "place_name"}};
  proj.children.push_back(std::move(scan));
  auto ctx = MakeContext();
  auto result = Executor::Run(proj, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema().column(0).name, "place_name");
  EXPECT_EQ((*result)->num_rows(), 3u);
}

TEST_F(ExecTest, HashJoinMatchesForeignKeys) {
  auto person = std::make_unique<plan::PhysScanTable>();
  person->table = "Person";
  person->alias = "p";
  auto place = std::make_unique<plan::PhysScanTable>();
  place->table = "Place";
  place->alias = "pl";
  plan::PhysHashJoin join;
  join.left_keys = {"p.place_id"};
  join.right_keys = {"pl.id"};
  join.children.push_back(std::move(person));
  join.children.push_back(std::move(place));
  auto ctx = MakeContext();
  auto result = Executor::Run(join, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), 3u);  // every person has a place
}

TEST_F(ExecTest, ScanVertexEmitsRowIds) {
  plan::PhysScanVertex scan;
  scan.vertex_label = Label("Person");
  scan.var = "p";
  scan.filter = Expr::Eq("name", Value::String("Tom"));
  auto ctx = MakeContext();
  auto result = Executor::Run(scan, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 1u);
  EXPECT_EQ((*result)->GetValue(0, 0).int_value(), 0);  // Tom is row 0
}

TEST_F(ExecTest, ExpandFollowsEdges) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p";
  plan::PhysExpand expand;
  expand.edge_label = Label("Likes", true);
  expand.dir = graph::Direction::kOut;
  expand.from_var = "p";
  expand.to_var = "m";
  expand.children.push_back(std::move(scan));
  auto ctx = MakeContext();
  auto result = Executor::Run(expand, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 4u);  // 4 likes edges
  EXPECT_GE((*result)->schema().FindColumn("m"), 0);
}

TEST_F(ExecTest, ExpandHashEqualsIndexExpand) {
  for (bool use_index : {true, false}) {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = Label("Person");
    scan->var = "p";
    plan::PhysExpand expand;
    expand.edge_label = Label("Knows", true);
    expand.dir = graph::Direction::kIn;
    expand.from_var = "p";
    expand.to_var = "q";
    expand.edge_var = "k";
    expand.use_index = use_index;
    expand.children.push_back(std::move(scan));
    auto ctx = MakeContext();
    auto result = Executor::Run(expand, &ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->num_rows(), 4u) << "use_index=" << use_index;
  }
}

TEST_F(ExecTest, ExpandEdgeThenGetVertexEqualsFusedExpand) {
  auto make_scan = [&]() {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = Label("Person");
    scan->var = "p";
    return scan;
  };
  // Unfused.
  auto ee = std::make_unique<plan::PhysExpandEdge>();
  ee->edge_label = Label("Likes", true);
  ee->dir = graph::Direction::kOut;
  ee->from_var = "p";
  ee->edge_var = "l";
  ee->children.push_back(make_scan());
  plan::PhysGetVertex gv;
  gv.edge_label = ee->edge_label;
  gv.dir = graph::Direction::kOut;
  gv.edge_var = "l";
  gv.to_var = "m";
  gv.children.push_back(std::move(ee));
  auto ctx1 = MakeContext();
  auto unfused = Executor::Run(gv, &ctx1);
  ASSERT_TRUE(unfused.ok());

  plan::PhysExpand fused;
  fused.edge_label = Label("Likes", true);
  fused.dir = graph::Direction::kOut;
  fused.from_var = "p";
  fused.to_var = "m";
  fused.children.push_back(make_scan());
  auto ctx2 = MakeContext();
  auto fused_result = Executor::Run(fused, &ctx2);
  ASSERT_TRUE(fused_result.ok());

  // Same bag of (p, m) pairs.
  auto project = [](const storage::Table& t) {
    std::vector<std::string> rows;
    int p = t.schema().FindColumn("p");
    int m = t.schema().FindColumn("m");
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      rows.push_back(t.GetValue(r, p).ToString() + "|" +
                     t.GetValue(r, m).ToString());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(project(**unfused), project(**fused_result));
}

TEST_F(ExecTest, ExpandIntersectFindsCommonNeighbors) {
  // Bind (p1, p2) via Knows, then intersect their liked messages.
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  auto knows = std::make_unique<plan::PhysExpand>();
  knows->edge_label = Label("Knows", true);
  knows->dir = graph::Direction::kOut;
  knows->from_var = "p1";
  knows->to_var = "p2";
  knows->children.push_back(std::move(scan));

  plan::PhysExpandIntersect ei;
  ei.edge_labels = {Label("Likes", true), Label("Likes", true)};
  ei.dirs = {graph::Direction::kOut, graph::Direction::kOut};
  ei.from_vars = {"p1", "p2"};
  ei.edge_vars = {"", ""};
  ei.to_var = "m";
  ei.children.push_back(std::move(knows));
  auto ctx = MakeContext();
  auto result = Executor::Run(ei, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Triangles: (p1,p2,m1), (p2,p1,m1), (p2,p3,m2), (p3,p2,m2).
  EXPECT_EQ((*result)->num_rows(), 4u);
}

TEST_F(ExecTest, EdgeVerifyClosesCycle) {
  for (bool use_index : {true, false}) {
    // All (p1, p2) pairs via Likes-co-liking, then verify Knows(p1, p2).
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = Label("Person");
    scan->var = "p1";
    auto likes = std::make_unique<plan::PhysExpand>();
    likes->edge_label = Label("Likes", true);
    likes->dir = graph::Direction::kOut;
    likes->from_var = "p1";
    likes->to_var = "m";
    likes->children.push_back(std::move(scan));
    auto colikes = std::make_unique<plan::PhysExpand>();
    colikes->edge_label = Label("Likes", true);
    colikes->dir = graph::Direction::kIn;
    colikes->from_var = "m";
    colikes->to_var = "p2";
    colikes->children.push_back(std::move(likes));
    plan::PhysEdgeVerify verify;
    verify.edge_label = Label("Knows", true);
    verify.dir = graph::Direction::kOut;
    verify.src_var = "p1";
    verify.dst_var = "p2";
    verify.use_index = use_index;
    verify.children.push_back(std::move(colikes));
    auto ctx = MakeContext();
    auto result = Executor::Run(verify, &ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->num_rows(), 4u) << "use_index=" << use_index;
  }
}

TEST_F(ExecTest, PatternJoinOnSharedVars) {
  auto left_scan = std::make_unique<plan::PhysScanVertex>();
  left_scan->vertex_label = Label("Person");
  left_scan->var = "p1";
  auto left = std::make_unique<plan::PhysExpand>();
  left->edge_label = Label("Knows", true);
  left->dir = graph::Direction::kOut;
  left->from_var = "p1";
  left->to_var = "p2";
  left->children.push_back(std::move(left_scan));

  auto right_scan = std::make_unique<plan::PhysScanVertex>();
  right_scan->vertex_label = Label("Person");
  right_scan->var = "p2";
  auto right = std::make_unique<plan::PhysExpand>();
  right->edge_label = Label("Likes", true);
  right->dir = graph::Direction::kOut;
  right->from_var = "p2";
  right->to_var = "m";
  right->children.push_back(std::move(right_scan));

  plan::PhysPatternJoin join;
  join.common_vars = {"p2"};
  join.children.push_back(std::move(left));
  join.children.push_back(std::move(right));
  auto ctx = MakeContext();
  auto result = Executor::Run(join, &ctx);
  ASSERT_TRUE(result.ok());
  // knows(p1,p2) x likes(p2,m): k1->Bob(2 likes)=2, k2->Tom(1)=1,
  // k3->David(1)=1, k4->Bob(2)=2 => 6 rows.
  EXPECT_EQ((*result)->num_rows(), 6u);
  // Shared var appears once.
  int count = 0;
  for (size_t c = 0; c < (*result)->schema().num_columns(); ++c) {
    if ((*result)->schema().column(c).name == "p2") ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST_F(ExecTest, NotEqualFiltersHomomorphicRepeats) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  auto hop1 = std::make_unique<plan::PhysExpand>();
  hop1->edge_label = Label("Knows", true);
  hop1->dir = graph::Direction::kOut;
  hop1->from_var = "p1";
  hop1->to_var = "p2";
  hop1->children.push_back(std::move(scan));
  auto hop2 = std::make_unique<plan::PhysExpand>();
  hop2->edge_label = Label("Knows", true);
  hop2->dir = graph::Direction::kOut;
  hop2->from_var = "p2";
  hop2->to_var = "p3";
  hop2->children.push_back(std::move(hop1));
  plan::PhysNotEqual ne;
  ne.var_a = "p1";
  ne.var_b = "p3";
  ne.children.push_back(std::move(hop2));
  auto ctx = MakeContext();
  auto result = Executor::Run(ne, &ctx);
  ASSERT_TRUE(result.ok());
  // 2-hop walks: from each person; total walks = 8? minus returns.
  // k-edges: 1->2,2->1,2->3,3->2: walks: 1-2-1,1-2-3,2-1-2,2-3-2,3-2-1,
  // 3-2-3 => 6 walks; p1 != p3 keeps 1-2-3 and 3-2-1.
  EXPECT_EQ((*result)->num_rows(), 2u);
}

TEST_F(ExecTest, VertexFilterOnBoundVar) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p";
  plan::PhysVertexFilter vf;
  vf.var = "p";
  vf.is_edge = false;
  vf.label = Label("Person");
  vf.predicate = Expr::StartsWith(Expr::Column("name"), "B");
  vf.children.push_back(std::move(scan));
  auto ctx = MakeContext();
  auto result = Executor::Run(vf, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 1u);  // Bob
}

TEST_F(ExecTest, HashAggregateGroupsAndAggregates) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Likes";
  scan->alias = "l";
  plan::PhysHashAggregate agg;
  agg.group_by = {"l.pid"};
  agg.aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                    {plan::AggFunc::kMax, "l.date", "latest"}};
  agg.children.push_back(std::move(scan));
  auto ctx = MakeContext();
  auto result = Executor::Run(agg, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 3u);  // three people like things
  int cnt_col = (*result)->schema().FindColumn("cnt");
  int pid_col = (*result)->schema().FindColumn("l.pid");
  ASSERT_GE(cnt_col, 0);
  for (uint64_t r = 0; r < (*result)->num_rows(); ++r) {
    int64_t pid = (*result)->GetValue(r, pid_col).int_value();
    int64_t cnt = (*result)->GetValue(r, cnt_col).int_value();
    EXPECT_EQ(cnt, pid == 2 ? 2 : 1);
  }
}

TEST_F(ExecTest, OrderByLimitTopK) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Likes";
  scan->alias = "l";
  auto order = std::make_unique<plan::PhysOrderBy>();
  order->keys = {{"l.date", false}};
  order->children.push_back(std::move(scan));
  plan::PhysLimit limit;
  limit.limit = 2;
  limit.children.push_back(std::move(order));
  auto ctx = MakeContext();
  auto result = Executor::Run(limit, &ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 2u);
  int date_col = (*result)->schema().FindColumn("l.date");
  EXPECT_GE((*result)->GetValue(0, date_col).date_value(),
            (*result)->GetValue(1, date_col).date_value());
}

TEST_F(ExecTest, NaiveMatcherTriangleCount) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  auto ctx = MakeContext();
  auto result = exec::NaiveMatch(*pattern, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // (Tom,Bob,m1), (Bob,Tom,m1), (Bob,David,m2), (David,Bob,m2).
  EXPECT_EQ((*result)->num_rows(), 4u);
  EXPECT_EQ((*result)->num_columns(), 6u);  // 3 vertices + 3 edges
}

TEST_F(ExecTest, NaiveMatcherHonorsPredicates) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  ASSERT_TRUE(pattern
                  ->AddConstraint("p1",
                                  Expr::Eq("name", Value::String("Tom")))
                  .ok());
  auto ctx = MakeContext();
  auto result = exec::NaiveMatch(*pattern, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 1u);
}

TEST_F(ExecTest, NaiveMatcherDistinctPairs) {
  auto pattern = db_.ParsePattern(
      "(a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person)");
  ASSERT_TRUE(pattern.ok());
  pattern->AddDistinctPair(pattern->FindVertex("a"),
                           pattern->FindVertex("c"));
  auto ctx = MakeContext();
  auto result = exec::NaiveMatch(*pattern, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 2u);  // 1-2-3 and 3-2-1
}

TEST_F(ExecTest, RowBudgetTriggersOutOfMemory) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  plan::PhysExpand expand;
  expand.edge_label = Label("Knows", true);
  expand.dir = graph::Direction::kOut;
  expand.from_var = "p1";
  expand.to_var = "p2";
  expand.children.push_back(std::move(scan));
  ExecutionOptions options;
  options.max_total_rows = 3;  // the scan alone fits; the expand does not
  auto ctx = MakeContext(options);
  auto result = Executor::Run(expand, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
}

TEST_F(ExecTest, TimeoutTriggers) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  ExecutionOptions options;
  options.timeout_ms = 0.0;
  auto ctx = MakeContext(options);
  auto result = Executor::Run(scan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

// The materializing executor is the reference the pipeline engine is
// checked against, so it must share no state with it: entries in the
// pipeline engine's scan cache — here deliberately wrong filter bitmaps,
// stored under the exact (table, predicate) keys and table versions the
// plans would look up — must neither be read nor be added to.
TEST_F(ExecTest, ReferenceIgnoresPoisonedScanCache) {
  auto person = db_.catalog().GetTable("Person");
  auto message = db_.catalog().GetTable("Message");
  ASSERT_TRUE(person.ok() && message.ok());
  // A bitmap over `n` rows passing exactly `rows`.
  auto bitmap = [](uint64_t n, std::vector<uint64_t> rows) {
    auto bits = std::make_shared<std::vector<uint8_t>>(n, 0);
    for (uint64_t r : rows) (*bits)[r] = 1;
    return bits;
  };
  const uint64_t persons = (*person)->num_rows();
  exec::ScanCache cache;

  // Filtered table scan: the true answer is Bob (row 1).
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  scan.filter = Expr::Eq("name", Value::String("Bob"));
  cache.Put(exec::ScanCache::Key("Person", scan.filter),
            (*person)->version(), bitmap(persons, {0, 2}));

  // Filtered vertex scan: the true answer is Tom (row 0).
  plan::PhysScanVertex vscan;
  vscan.vertex_label = Label("Person");
  vscan.var = "p";
  vscan.filter = Expr::Eq("name", Value::String("Tom"));
  cache.Put(exec::ScanCache::Key((*person)->name(), vscan.filter),
            (*person)->version(), bitmap(persons, {1, 2}));

  // Expansion with a target-vertex filter: only message row 0 ("hello
  // graphs") passes, but the poisoned bitmap passes every message.
  auto from = std::make_unique<plan::PhysScanVertex>();
  from->vertex_label = Label("Person");
  from->var = "p";
  plan::PhysExpand expand;
  expand.edge_label = Label("Likes", true);
  expand.dir = graph::Direction::kOut;
  expand.from_var = "p";
  expand.to_var = "m";
  expand.vertex_filter = Expr::Eq("content", Value::String("hello graphs"));
  expand.children.push_back(std::move(from));
  cache.Put(exec::ScanCache::Key((*message)->name(), expand.vertex_filter),
            (*message)->version(),
            bitmap((*message)->num_rows(), {0, 1}));
  ASSERT_EQ(cache.entries(), 3u);
  const uint64_t lookups_before = cache.stats().Lookups();

  auto ctx = MakeContext();
  ctx.SetScanCache(&cache);

  auto scanned = Executor::Run(scan, &ctx);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ((*scanned)->num_rows(), 1u);
  EXPECT_EQ((*scanned)->GetValue(0, 1).string_value(), "Bob");

  auto vscanned = Executor::Run(vscan, &ctx);
  ASSERT_TRUE(vscanned.ok()) << vscanned.status().ToString();
  ASSERT_EQ((*vscanned)->num_rows(), 1u);
  EXPECT_EQ((*vscanned)->GetValue(0, 0).int_value(), 0);

  auto expanded = Executor::Run(expand, &ctx);
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  int m_col = (*expanded)->schema().FindColumn("m");
  ASSERT_GE(m_col, 0);
  EXPECT_EQ((*expanded)->num_rows(), 2u);  // Tom and Bob like message 10
  for (uint64_t r = 0; r < (*expanded)->num_rows(); ++r) {
    EXPECT_EQ((*expanded)->GetValue(r, static_cast<size_t>(m_col)).int_value(),
              0);
  }

  EXPECT_EQ(ctx.scan_cache_hits(), 0u);
  EXPECT_EQ(ctx.pending_cache_publications(), 0u);
  EXPECT_EQ(cache.stats().Lookups(), lookups_before);
}

}  // namespace
}  // namespace relgo
