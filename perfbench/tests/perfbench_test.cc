// Tests of the benchmark's own building blocks: percentiles, the output
// check, seeded request streams and binding pools.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "perfbench.h"
#include "workload/ldbc.h"

namespace relgo {
namespace perfbench {
namespace {

storage::TablePtr MakeTable(
    const std::vector<std::pair<int64_t, std::string>>& rows) {
  auto t = std::make_shared<storage::Table>(
      "t", storage::Schema({{"id", LogicalType::kInt64},
                            {"name", LogicalType::kString}}));
  for (const auto& [id, name] : rows) {
    EXPECT_TRUE(t->AppendRow({Value::Int(id), Value::String(name)}).ok());
  }
  return t;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(NearestRank({5, 1, 3, 2, 4}, 0.5), 3);  // ceil(2.5) = 3rd
  EXPECT_EQ(NearestRank({5, 1, 3, 2, 4}, 0.9), 5);  // ceil(4.5) = 5th
  EXPECT_EQ(NearestRank({5, 1, 3, 2, 4}, 0.2), 1);  // ceil(1.0) = 1st
  EXPECT_EQ(NearestRank({5, 1, 3, 2, 4}, 0.0), 1);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(NearestRank(hundred, 0.99), 99);
  EXPECT_EQ(NearestRank(hundred, 0.90), 90);
  EXPECT_EQ(NearestRank(hundred, 1.0), 100);
}

TEST(DigestTest, OrderIndependent) {
  Digest a = DigestTable(*MakeTable({{1, "x"}, {2, "y"}, {3, "z"}}));
  Digest b = DigestTable(*MakeTable({{3, "z"}, {1, "x"}, {2, "y"}}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rows, 3u);
}

TEST(DigestTest, DistinguishesBags) {
  Digest base = DigestTable(*MakeTable({{1, "x"}, {1, "x"}, {2, "y"}}));
  EXPECT_NE(base, DigestTable(*MakeTable({{1, "x"}, {2, "y"}, {2, "y"}})));
  EXPECT_NE(base, DigestTable(*MakeTable({{1, "x"}, {2, "y"}})));
  EXPECT_NE(base, DigestTable(*MakeTable({{1, "x"}, {1, "x"}, {2, "w"}})));
  // Swapping values across columns changes the row.
  EXPECT_NE(DigestTable(*MakeTable({{1, "2"}})),
            DigestTable(*MakeTable({{2, "1"}})));
}

TEST(DigestTest, WrongDigestCountsAsFailure) {
  Digest right = DigestTable(*MakeTable({{1, "x"}}));
  Digest wrong = DigestTable(*MakeTable({{1, "y"}}));
  std::map<std::pair<int, int>, Digest> expected{{{0, 0}, right}};

  DigestCounts observed;
  observed[{0, 0}][right] = 5;
  EXPECT_EQ(CountMismatches(observed, expected), 0u);

  observed[{0, 0}][wrong] = 2;
  EXPECT_EQ(CountMismatches(observed, expected), 2u);

  // A pair without a reference digest cannot be checked: all its
  // requests count as failures.
  observed[{1, 0}][right] = 3;
  EXPECT_EQ(CountMismatches(observed, expected), 5u);
}

StreamSpec Spec(uint64_t seed) {
  StreamSpec spec;
  spec.seed = seed;
  spec.pool_sizes = {3, 1, 3, 2};
  spec.append_every = 4;
  spec.append_table_rows = {10, 20};
  return spec;
}

std::vector<Request> Draw(const StreamSpec& spec, int client, int n) {
  RequestStream stream(spec, client);
  std::vector<Request> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

bool Same(const std::vector<Request>& a, const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tmpl != b[i].tmpl || a[i].binding != b[i].binding ||
        a[i].append_table != b[i].append_table ||
        a[i].append_row != b[i].append_row) {
      return false;
    }
  }
  return true;
}

TEST(RequestStreamTest, SameSeedSameSequence) {
  StreamSpec a = Spec(42), b = Spec(42), c = Spec(43);
  EXPECT_TRUE(Same(Draw(a, 0, 200), Draw(b, 0, 200)));
  EXPECT_TRUE(Same(Draw(a, 3, 200), Draw(b, 3, 200)));
  EXPECT_FALSE(Same(Draw(a, 0, 200), Draw(c, 0, 200)));
  EXPECT_FALSE(Same(Draw(a, 0, 200), Draw(a, 1, 200)));
  EXPECT_EQ(SequenceHash(a, 4, 256), SequenceHash(b, 4, 256));
  EXPECT_NE(SequenceHash(a, 4, 256), SequenceHash(c, 4, 256));
}

TEST(RequestStreamTest, RoundsArePermutationsAndDrawsStayInRange) {
  StreamSpec spec = Spec(7);
  RequestStream stream(spec, 0);
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(stream.AtRoundBoundary());
    std::set<int> seen;
    for (size_t i = 0; i < spec.pool_sizes.size(); ++i) {
      Request r = stream.Next();
      seen.insert(r.tmpl);
      EXPECT_GE(r.binding, 0);
      EXPECT_LT(r.binding, spec.pool_sizes[r.tmpl]);
      const uint64_t issued = round * spec.pool_sizes.size() + i + 1;
      if (issued % spec.append_every == 0) {
        ASSERT_GE(r.append_table, 0);
        EXPECT_LT(r.append_row, spec.append_table_rows[r.append_table]);
      } else {
        EXPECT_EQ(r.append_table, -1);
      }
    }
    EXPECT_EQ(seen.size(), spec.pool_sizes.size());
  }
}

TEST(BindingPoolTest, DefaultFirstAndValuesFromTheSlotColumn) {
  Database db;
  workload::LdbcOptions options;
  options.scale_factor = 0.05;
  ASSERT_TRUE(workload::GenerateLdbc(&db, options).ok());
  auto queries = workload::LdbcInteractiveQueries(db);
  auto ic9 = std::find_if(queries.begin(), queries.end(), [](const auto& q) {
    return q.query.name == "IC9-1";
  });
  ASSERT_NE(ic9, queries.end());
  optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(ic9->query);
  ASSERT_EQ(t.defaults.size(), 2u);  // p.firstName = ?, po.creationDate <= ?

  // Slot order follows the template's expression order; find each slot.
  const size_t name_slot =
      t.defaults[0].type() == LogicalType::kString ? 0 : 1;
  const size_t date_slot = 1 - name_slot;
  std::vector<SlotColumn> slots = ResolveSlots(db, t);
  EXPECT_EQ(slots[name_slot].table, "Person");
  EXPECT_EQ(slots[name_slot].column, "firstName");
  EXPECT_EQ(slots[name_slot].op, storage::CompareOp::kEq);
  EXPECT_EQ(slots[date_slot].table, "Post");
  EXPECT_EQ(slots[date_slot].column, "creationDate");
  EXPECT_EQ(slots[date_slot].op, storage::CompareOp::kLe);

  Rng rng_a(5), rng_b(5);
  auto pool = DrawBindingPool(db, t, 3, &rng_a);
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0][0], t.defaults[0]);
  EXPECT_EQ(pool[0][1], t.defaults[1]);
  auto person = *db.catalog().GetTable("Person");
  const int first_name = person->schema().FindColumn("firstName");
  for (size_t k = 1; k < pool.size(); ++k) {
    bool found = false;
    for (uint64_t r = 0; r < person->num_rows() && !found; ++r) {
      found = person->GetValue(r, first_name) == pool[k][name_slot];
    }
    EXPECT_TRUE(found) << pool[k][name_slot].ToString();
    EXPECT_TRUE(optimizer::BindTemplate(t, pool[k]).ok());
  }
  auto again = DrawBindingPool(db, t, 3, &rng_b);
  for (size_t k = 0; k < pool.size(); ++k) {
    for (size_t s = 0; s < pool[k].size(); ++s) {
      EXPECT_EQ(pool[k][s], again[k][s]);
    }
  }
}

}  // namespace
}  // namespace perfbench
}  // namespace relgo
