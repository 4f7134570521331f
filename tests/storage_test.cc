#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/expression.h"
#include "storage/table.h"

namespace relgo {
namespace storage {
namespace {

Schema PersonSchema() {
  return Schema({{"id", LogicalType::kInt64},
                 {"name", LogicalType::kString},
                 {"age", LogicalType::kInt64},
                 {"score", LogicalType::kDouble}});
}

TablePtr MakePeople() {
  auto t = std::make_shared<Table>("people", PersonSchema());
  const char* names[] = {"Ada", "Bob", "Cid", "Dee", "Eve"};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(t->AppendRow({Value::Int(i), Value::String(names[i]),
                              Value::Int(20 + 5 * i),
                              Value::Double(0.5 * i)})
                    .ok());
  }
  return t;
}

TEST(ColumnTest, TypedAppendAndRead) {
  Column c(LogicalType::kInt64);
  c.AppendInt(7);
  c.AppendInt(-3);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.int_at(0), 7);
  EXPECT_EQ(c.GetValue(1).int_value(), -3);
}

TEST(ColumnTest, NullTracking) {
  Column c(LogicalType::kString);
  c.AppendString("x");
  c.AppendNull();
  EXPECT_TRUE(c.is_valid(0));
  EXPECT_FALSE(c.is_valid(1));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column c(LogicalType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value::Int(1)).ok());
  EXPECT_FALSE(c.AppendValue(Value::String("bad")).ok());
}

TEST(ColumnTest, DateAcceptsIntAndDate) {
  Column c(LogicalType::kDate);
  EXPECT_TRUE(c.AppendValue(Value::Date(10)).ok());
  EXPECT_TRUE(c.AppendValue(Value::Int(11)).ok());
  EXPECT_EQ(c.GetValue(0).date_value(), 10);
  EXPECT_EQ(c.GetValue(1).date_value(), 11);
}

TEST(ColumnTest, GatherReordersAndDuplicates) {
  Column c(LogicalType::kInt64);
  for (int i = 0; i < 4; ++i) c.AppendInt(i * 10);
  Column g = c.Gather({3, 1, 1, 0});
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g.int_at(0), 30);
  EXPECT_EQ(g.int_at(1), 10);
  EXPECT_EQ(g.int_at(2), 10);
  EXPECT_EQ(g.int_at(3), 0);
}

TEST(SchemaTest, LookupAndDuplicates) {
  Schema s = PersonSchema();
  EXPECT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(s.FindColumn("age"), 2);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  EXPECT_FALSE(s.AddColumn({"id", LogicalType::kInt64}).ok());
  EXPECT_TRUE(s.AddColumn({"extra", LogicalType::kBool}).ok());
}

TEST(TableTest, AppendRowArityChecked) {
  Table t("t", PersonSchema());
  EXPECT_FALSE(t.AppendRow({Value::Int(1)}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

// A row with one ill-typed value appends nothing: no column may keep
// the values checked before the bad one.
TEST(TableTest, FailedAppendRowLeavesEveryColumnUntouched) {
  Table t("pairs", Schema({ColumnDef{"a", LogicalType::kInt64},
                           ColumnDef{"b", LogicalType::kInt64}}));
  uint64_t version = t.version();
  EXPECT_FALSE(t.AppendRow({Value::Int(1), Value::String("x")}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.column(0).size(), 0u);
  EXPECT_EQ(t.column(1).size(), 0u);
  EXPECT_EQ(t.version(), version) << "a rejected row is not an append";

  ASSERT_TRUE(t.AppendRow({Value::Int(2), Value::Int(3)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column(0).size(), 1u);
  EXPECT_EQ(t.column(1).size(), 1u);
  EXPECT_EQ(t.GetValue(0, 0).int_value(), 2);
  EXPECT_EQ(t.GetValue(0, 1).int_value(), 3);
}

TEST(TableTest, IdentitySurvivesAppendsButNotRecreation) {
  Catalog cat;
  auto first = cat.CreateTable("a", PersonSchema());
  ASSERT_TRUE(first.ok());
  uint64_t identity = (*first)->identity();
  uint64_t version = (*first)->version();
  ASSERT_TRUE((*first)
                  ->AppendRow({Value::Int(1), Value::String("Ann"),
                               Value::Int(30), Value::Double(1.5)})
                  .ok());
  EXPECT_EQ((*first)->identity(), identity);
  EXPECT_NE((*first)->version(), version);

  ASSERT_TRUE(cat.DropTable("a").ok());
  auto second = cat.CreateTable("a", PersonSchema());
  ASSERT_TRUE(second.ok());
  EXPECT_NE((*second)->identity(), identity);
}

TEST(TableTest, KeyIndexLookups) {
  auto t = MakePeople();
  auto index = t->GetKeyIndex("id");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->at(3), 3u);
  EXPECT_EQ((*index)->count(99), 0u);
  // Non-int column refuses.
  EXPECT_FALSE(t->GetKeyIndex("name").ok());
  EXPECT_FALSE(t->GetKeyIndex("missing").ok());
}

TEST(TableTest, KeyIndexInvalidatedByAppend) {
  auto t = MakePeople();
  ASSERT_TRUE(t->GetKeyIndex("id").ok());
  ASSERT_TRUE(
      t->AppendRow({Value::Int(50), Value::String("Fay"), Value::Int(9),
                    Value::Double(0)})
          .ok());
  auto index = t->GetKeyIndex("id");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->at(50), 5u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("a", PersonSchema()).ok());
  EXPECT_TRUE(cat.HasTable("a"));
  EXPECT_FALSE(cat.CreateTable("a", PersonSchema()).ok());
  EXPECT_TRUE(cat.GetTable("a").ok());
  EXPECT_FALSE(cat.GetTable("b").ok());
  EXPECT_TRUE(cat.DropTable("a").ok());
  EXPECT_FALSE(cat.DropTable("a").ok());
  EXPECT_EQ(cat.ListTables().size(), 0u);
}

TEST(ExprTest, CompareAgainstConstant) {
  auto t = MakePeople();
  auto pred = Expr::Compare(CompareOp::kGt, Expr::Column("age"),
                            Expr::Constant(Value::Int(30)));
  ASSERT_TRUE(pred->Bind(t->schema()).ok());
  int hits = 0;
  for (uint64_t r = 0; r < t->num_rows(); ++r) {
    if (pred->EvaluateBool(*t, r)) ++hits;
  }
  EXPECT_EQ(hits, 2);  // ages 35, 40
}

TEST(ExprTest, AndOrNotShortCircuit) {
  auto t = MakePeople();
  auto young = Expr::Compare(CompareOp::kLt, Expr::Column("age"),
                             Expr::Constant(Value::Int(30)));
  auto named_eve = Expr::Eq("name", Value::String("Eve"));
  auto either = Expr::Or(young->Clone(), named_eve->Clone());
  auto both = Expr::And(young->Clone(), named_eve->Clone());
  auto neither = Expr::Not(either->Clone());
  ASSERT_TRUE(either->Bind(t->schema()).ok());
  ASSERT_TRUE(both->Bind(t->schema()).ok());
  ASSERT_TRUE(neither->Bind(t->schema()).ok());
  int either_hits = 0, both_hits = 0, neither_hits = 0;
  for (uint64_t r = 0; r < t->num_rows(); ++r) {
    either_hits += either->EvaluateBool(*t, r);
    both_hits += both->EvaluateBool(*t, r);
    neither_hits += neither->EvaluateBool(*t, r);
  }
  EXPECT_EQ(either_hits, 3);  // Ada, Bob young; Eve by name
  EXPECT_EQ(both_hits, 0);
  EXPECT_EQ(neither_hits, 2);
}

TEST(ExprTest, StringMatchers) {
  auto t = MakePeople();
  auto starts = Expr::StartsWith(Expr::Column("name"), "B");
  auto contains = Expr::Contains(Expr::Column("name"), "e");
  ASSERT_TRUE(starts->Bind(t->schema()).ok());
  ASSERT_TRUE(contains->Bind(t->schema()).ok());
  int s = 0, c = 0;
  for (uint64_t r = 0; r < t->num_rows(); ++r) {
    s += starts->EvaluateBool(*t, r);
    c += contains->EvaluateBool(*t, r);
  }
  EXPECT_EQ(s, 1);  // Bob
  EXPECT_EQ(c, 2);  // Dee, Eve
}

TEST(ExprTest, InList) {
  auto t = MakePeople();
  auto in = Expr::InList(Expr::Column("id"),
                         {Value::Int(0), Value::Int(4), Value::Int(9)});
  ASSERT_TRUE(in->Bind(t->schema()).ok());
  int hits = 0;
  for (uint64_t r = 0; r < t->num_rows(); ++r) {
    hits += in->EvaluateBool(*t, r);
  }
  EXPECT_EQ(hits, 2);
}

TEST(ExprTest, BindFailsOnUnknownColumn) {
  auto t = MakePeople();
  auto pred = Expr::Eq("ghost", Value::Int(1));
  EXPECT_FALSE(pred->Bind(t->schema()).ok());
  EXPECT_FALSE(pred->BindsTo(t->schema()));
  EXPECT_TRUE(Expr::Eq("id", Value::Int(1))->BindsTo(t->schema()));
}

TEST(ExprTest, SplitConjunctsFlattensNestedAnds) {
  auto e = Expr::And(Expr::And(Expr::Eq("a", Value::Int(1)),
                               Expr::Eq("b", Value::Int(2))),
                     Expr::Eq("c", Value::Int(3)));
  std::vector<ExprPtr> out;
  Expr::SplitConjuncts(e, &out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(ExprTest, CloneRenamedRewritesColumns) {
  auto e = Expr::ColumnsEq("p1.place_id", "place.id");
  auto renamed = e->CloneRenamed({{"p1.place_id", "place_id"}});
  std::vector<std::string> cols;
  renamed->CollectColumns(&cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "place_id");
  EXPECT_EQ(cols[1], "place.id");
}

TEST(ExprTest, ToStringReadable) {
  auto e = Expr::And(Expr::Eq("name", Value::String("Tom")),
                     Expr::Compare(CompareOp::kGe, Expr::Column("age"),
                                   Expr::Constant(Value::Int(18))));
  EXPECT_EQ(e->ToString(), "(name = 'Tom' AND age >= 18)");
}

TEST(ExprTest, NullComparisonsAreFalseAtFilter) {
  Table t("t", Schema({{"v", LogicalType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  auto pred = Expr::Eq("v", Value::Int(0));
  ASSERT_TRUE(pred->Bind(t.schema()).ok());
  EXPECT_FALSE(pred->EvaluateBool(t, 0));
  auto is_null = Expr::IsNull(Expr::Column("v"));
  ASSERT_TRUE(is_null->Bind(t.schema()).ok());
  EXPECT_TRUE(is_null->EvaluateBool(t, 0));
}

// Parameterized comparison sweep: every operator against every ordered pair.
struct CmpCase {
  CompareOp op;
  int64_t lhs, rhs;
  bool expect;
};

class CompareSweep : public ::testing::TestWithParam<CmpCase> {};

TEST_P(CompareSweep, EvaluatesCorrectly) {
  const CmpCase& c = GetParam();
  Table t("t", Schema({{"x", LogicalType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value::Int(c.lhs)}).ok());
  auto e = Expr::Compare(c.op, Expr::Column("x"),
                         Expr::Constant(Value::Int(c.rhs)));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_EQ(e->EvaluateBool(t, 0), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, CompareSweep,
    ::testing::Values(CmpCase{CompareOp::kEq, 5, 5, true},
                      CmpCase{CompareOp::kEq, 5, 6, false},
                      CmpCase{CompareOp::kNe, 5, 6, true},
                      CmpCase{CompareOp::kNe, 5, 5, false},
                      CmpCase{CompareOp::kLt, 5, 6, true},
                      CmpCase{CompareOp::kLt, 6, 5, false},
                      CmpCase{CompareOp::kLe, 5, 5, true},
                      CmpCase{CompareOp::kLe, 6, 5, false},
                      CmpCase{CompareOp::kGt, 6, 5, true},
                      CmpCase{CompareOp::kGt, 5, 5, false},
                      CmpCase{CompareOp::kGe, 5, 5, true},
                      CmpCase{CompareOp::kGe, 4, 5, false}));

}  // namespace
}  // namespace storage
}  // namespace relgo
