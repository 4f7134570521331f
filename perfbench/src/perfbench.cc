#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace relgo {
namespace perfbench {

namespace {

using storage::CompareOp;
using storage::Expr;
using storage::ExprPtr;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

CompareOp Flip(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

/// Resolves a WHERE-clause column ("var.column" as named in the COLUMNS
/// clause) to its base table and column.
bool ResolveColumn(const Database& db, const plan::SpjmQuery& q,
                   const std::string& name, SlotColumn* out) {
  const pattern::PatternGraph& p = q.pattern;
  for (const plan::GraphProjection& gp : q.graph_projections) {
    if (gp.output_name != name) continue;
    const int v = p.FindVertex(gp.var);
    const int e = p.FindEdge(gp.var);
    if (v >= 0) {
      out->table = db.mapping().vertex_mapping(p.vertex(v).label).table;
    } else if (e >= 0) {
      out->table = db.mapping().edge_mapping(p.edge(e).label).table;
    } else {
      return false;
    }
    out->column = gp.column;
    return true;
  }
  return false;
}

/// Records, for every `column <op> $slot` comparison under `e`, the
/// column and operator of the slot.
void CollectSlots(const Database& db, const plan::SpjmQuery& q,
                  const ExprPtr& e, std::vector<SlotColumn>* out) {
  if (!e) return;
  if (e->kind() == Expr::Kind::kCompare) {
    const ExprPtr& l = e->children()[0];
    const ExprPtr& r = e->children()[1];
    const Expr* col = nullptr;
    const Expr* param = nullptr;
    CompareOp op = e->compare_op();
    if (l->kind() == Expr::Kind::kColumnRef &&
        r->kind() == Expr::Kind::kConstant && r->param_slot() >= 0) {
      col = l.get();
      param = r.get();
    } else if (r->kind() == Expr::Kind::kColumnRef &&
               l->kind() == Expr::Kind::kConstant && l->param_slot() >= 0) {
      col = r.get();
      param = l.get();
      op = Flip(op);
    }
    if (col != nullptr &&
        param->param_slot() < static_cast<int>(out->size())) {
      SlotColumn& s = (*out)[param->param_slot()];
      if (ResolveColumn(db, q, col->column_name(), &s)) s.op = op;
    }
  }
  for (const ExprPtr& child : e->children()) CollectSlots(db, q, child, out);
}

/// Values of `slot`'s column of similar selectivity to `def` (see
/// DrawBindingPool), excluding `def` itself.
std::vector<Value> Candidates(const Database& db, const SlotColumn& slot,
                              const Value& def) {
  constexpr size_t kNearestByFrequency = 4;
  if (slot.table.empty()) return {};
  auto table = db.catalog().GetTable(slot.table);
  if (!table.ok()) return {};
  int col = (*table)->schema().FindColumn(slot.column);
  if (col < 0) return {};
  std::vector<Value> values;
  values.reserve((*table)->num_rows());
  for (uint64_t r = 0; r < (*table)->num_rows(); ++r) {
    Value v = (*table)->GetValue(r, col);
    if (v.type() == def.type()) values.push_back(std::move(v));
  }
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());

  std::vector<Value> out;
  if (slot.op == CompareOp::kEq || slot.op == CompareOp::kNe) {
    auto range = std::equal_range(values.begin(), values.end(), def);
    const int64_t def_count = range.second - range.first;
    std::vector<std::pair<int64_t, Value>> by_distance;
    for (auto it = values.begin(); it != values.end();) {
      auto next = std::upper_bound(it, values.end(), *it);
      if (!(*it == def)) {
        by_distance.emplace_back(std::llabs((next - it) - def_count), *it);
      }
      it = next;
    }
    std::stable_sort(by_distance.begin(), by_distance.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (size_t i = 0; i < by_distance.size() && i < kNearestByFrequency;
         ++i) {
      out.push_back(by_distance[i].second);
    }
  } else {
    const int64_t n = static_cast<int64_t>(values.size());
    const int64_t rank =
        std::lower_bound(values.begin(), values.end(), def) - values.begin();
    const int64_t window = std::max<int64_t>(1, n / 100);
    const int64_t lo = std::max<int64_t>(0, rank - window);
    const int64_t hi = std::min<int64_t>(n, rank + window);
    for (int64_t i = lo; i < hi; ++i) {
      if (values[i] == def || (!out.empty() && out.back() == values[i])) {
        continue;
      }
      out.push_back(values[i]);
    }
  }
  return out;
}

/// Sum of rows_out over every node of `plan` in `profile`.
uint64_t IntermediateRows(const plan::PhysicalOp& plan,
                          const exec::QueryProfile& profile) {
  const exec::OperatorProfile* p = profile.Find(&plan);
  uint64_t rows = p == nullptr ? 0 : p->rows_out;
  for (const auto& child : plan.children) {
    rows += IntermediateRows(*child, profile);
  }
  return rows;
}

}  // namespace

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double NearestRank(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return obs::PercentileOfSorted(samples, q);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

Digest DigestTable(const storage::Table& table) {
  Digest d;
  const size_t cols = table.num_columns();
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    uint64_t h = kFnvBasis;
    for (size_t c = 0; c < cols; ++c) {
      Value v = table.GetValue(r, c);
      h = Fnv(h, (static_cast<uint64_t>(v.type()) << 32) | c);
      h = Fnv(h, v.Hash());
    }
    ++d.rows;
    d.sum += Mix(h);
    d.xor_all ^= Mix(h ^ 0x5bd1e995ULL);
  }
  return d;
}

uint64_t CountMismatches(
    const DigestCounts& observed,
    const std::map<std::pair<int, int>, Digest>& expected) {
  uint64_t mismatches = 0;
  for (const auto& [key, digests] : observed) {
    auto want = expected.find(key);
    for (const auto& [digest, count] : digests) {
      if (want == expected.end() || digest != want->second) {
        mismatches += count;
      }
    }
  }
  return mismatches;
}

exec::ExecutionOptions ReferenceOptions() {
  exec::ExecutionOptions options;
  options.engine = exec::EngineKind::kMaterialize;
  options.plan_cache = false;
  options.scan_cache = false;
  options.metrics = false;
  return options;
}

// ---------------------------------------------------------------------------
// Templates and seeded bindings
// ---------------------------------------------------------------------------

std::vector<SlotColumn> ResolveSlots(const Database& db,
                                     const optimizer::ParameterizedQuery& t) {
  std::vector<SlotColumn> slots(t.defaults.size());
  CollectSlots(db, t.query, t.query.where, &slots);
  return slots;
}

std::vector<std::vector<Value>> DrawBindingPool(
    const Database& db, const optimizer::ParameterizedQuery& t, int size,
    Rng* rng) {
  std::vector<std::vector<Value>> pool{t.defaults};
  if (t.defaults.empty()) return pool;
  std::vector<SlotColumn> slots = ResolveSlots(db, t);
  std::vector<std::vector<Value>> candidates;
  for (size_t s = 0; s < slots.size(); ++s) {
    candidates.push_back(Candidates(db, slots[s], t.defaults[s]));
  }
  for (int k = 1; k < size; ++k) {
    std::vector<Value> binding = t.defaults;
    for (size_t s = 0; s < slots.size(); ++s) {
      const auto& c = candidates[s];
      if (c.empty()) continue;
      binding[s] = c[rng->Uniform(0, static_cast<int64_t>(c.size()) - 1)];
    }
    pool.push_back(std::move(binding));
  }
  return pool;
}

std::vector<std::vector<Value>> CurateBindingPool(
    const Database& db, const optimizer::ParameterizedQuery& t, int size,
    Rng* rng) {
  constexpr int kCandidatesPerEntry = 4;
  std::vector<std::vector<Value>> drawn =
      DrawBindingPool(db, t, 1 + kCandidatesPerEntry * (size - 1), rng);
  if (drawn.size() <= 1) return drawn;

  // log(1 + intermediate rows), or -1 when the binding does not run.
  auto log_rows = [&](const std::vector<Value>& binding) -> double {
    auto bound = optimizer::BindTemplate(t, binding);
    if (!bound.ok()) return -1.0;
    auto run = db.RunProfiled(*bound, optimizer::OptimizerMode::kRelGo,
                              ReferenceOptions());
    if (!run.ok()) return -1.0;
    return std::log1p(
        static_cast<double>(IntermediateRows(*run->plan, run->profile)));
  };
  const double target = log_rows(drawn[0]);
  std::vector<std::pair<double, size_t>> by_distance;
  for (size_t i = 1; i < drawn.size(); ++i) {
    const double cost = log_rows(drawn[i]);
    if (cost >= 0.0) by_distance.emplace_back(std::fabs(cost - target), i);
  }
  std::stable_sort(by_distance.begin(), by_distance.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::vector<Value>> pool{drawn[0]};
  for (size_t i = 0; i + 1 < static_cast<size_t>(size) &&
                     i < by_distance.size();
       ++i) {
    pool.push_back(drawn[by_distance[i].second]);
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Request sequence
// ---------------------------------------------------------------------------

RequestStream::RequestStream(const StreamSpec& spec, int client)
    : spec_(spec),
      rng_(Mix(spec.seed ^ Mix(static_cast<uint64_t>(client) + 1))),
      order_(spec.pool_sizes.size()),
      pos_(order_.size()) {}

Request RequestStream::Next() {
  if (pos_ == order_.size()) {
    std::iota(order_.begin(), order_.end(), 0);
    for (int64_t i = static_cast<int64_t>(order_.size()) - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng_.Uniform(0, i)]);
    }
    pos_ = 0;
  }
  Request r;
  r.tmpl = order_[pos_++];
  const int pool = spec_.pool_sizes[r.tmpl];
  r.binding = pool > 1 ? static_cast<int>(rng_.Uniform(0, pool - 1)) : 0;
  ++issued_;
  if (spec_.append_every > 0 && issued_ % spec_.append_every == 0) {
    const int tables = static_cast<int>(spec_.append_table_rows.size());
    r.append_table = static_cast<int>(rng_.Uniform(0, tables - 1));
    r.append_row = static_cast<uint64_t>(rng_.Uniform(
        0, static_cast<int64_t>(spec_.append_table_rows[r.append_table]) -
               1));
  }
  return r;
}

std::string SequenceHash(const StreamSpec& spec, int clients,
                         int per_client) {
  uint64_t h = kFnvBasis;
  for (int c = 0; c < clients; ++c) {
    RequestStream stream(spec, c);
    for (int i = 0; i < per_client; ++i) {
      Request r = stream.Next();
      h = Fnv(h, static_cast<uint64_t>(c));
      h = Fnv(h, static_cast<uint64_t>(r.tmpl));
      h = Fnv(h, static_cast<uint64_t>(r.binding));
      h = Fnv(h, static_cast<uint64_t>(r.append_table));
      h = Fnv(h, r.append_row);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

size_t SpanRecorder::Begin(const char* name, uint64_t request,
                           int64_t parent) {
  if (spans_.size() >= kMaxSpans) return kDropped;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ms = obs::TraceNowMs();
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t span,
                       std::vector<std::pair<const char*, double>> args) {
  if (span == kDropped) return;
  spans_[span].end_ms = obs::TraceNowMs();
  spans_[span].args = std::move(args);
}

Status WriteChromeTrace(const std::vector<SpanRecorder>& recorders,
                        const std::string& path) {
  // Span ids are unique across clients: client in the high 32 bits, the
  // 1-based index in the low ones (0 = no parent).
  auto span_id = [](int client, int64_t index) {
    return index < 0 ? std::string("0")
                     : std::to_string((static_cast<uint64_t>(client) << 32) |
                                      static_cast<uint64_t>(index + 1));
  };
  size_t events = 0;
  for (const SpanRecorder& rec : recorders) events += rec.spans().size() + 1;
  obs::TraceSink sink(events);
  for (const SpanRecorder& rec : recorders) {
    const uint64_t tid = static_cast<uint64_t>(rec.client());
    sink.Record({"thread_name", "perfbench", 'M', tid, 0.0, 0.0,
                 {{"name", "client " + std::to_string(rec.client())}}});
    for (size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& s = rec.spans()[i];
      obs::TraceEvent ev{s.name, "perfbench", 'X', tid, s.start_ms,
                         s.end_ms - s.start_ms, {}};
      ev.args.emplace_back("id",
                           span_id(rec.client(), static_cast<int64_t>(i)));
      ev.args.emplace_back("parent", span_id(rec.client(), s.parent));
      ev.args.emplace_back("request", std::to_string(s.request));
      for (const auto& [key, value] : s.args) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        ev.args.emplace_back(key, buf);
      }
      sink.Record(std::move(ev));
    }
  }
  return sink.WriteFile(path);
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.plan_hits = plan_hits - o.plan_hits;
  d.plan_misses = plan_misses - o.plan_misses;
  d.plan_invalidations = plan_invalidations - o.plan_invalidations;
  d.scan_hits = scan_hits - o.scan_hits;
  d.scan_misses = scan_misses - o.scan_misses;
  d.pool_jobs = pool_jobs - o.pool_jobs;
  d.pool_inline_jobs = pool_inline_jobs - o.pool_inline_jobs;
  d.pool_tasks = pool_tasks - o.pool_tasks;
  d.pool_wait_sum_ms = pool_wait_sum_ms - o.pool_wait_sum_ms;
  return d;
}

std::vector<std::pair<const char*, double>> Counters::Args() const {
  return {{"plan_cache_hits", plan_hits},
          {"plan_cache_misses", plan_misses},
          {"plan_cache_invalidations", plan_invalidations},
          {"scan_cache_hits", scan_hits},
          {"scan_cache_misses", scan_misses},
          {"pool_jobs", pool_jobs},
          {"pool_inline_jobs", pool_inline_jobs},
          {"pool_tasks", pool_tasks},
          {"pool_job_wait_ms", pool_wait_sum_ms}};
}

CounterReader::CounterReader(const Database& db)
    : db_(db),
      jobs_(&db.metrics().GetCounter("relgo_pool_jobs_total")),
      inline_jobs_(&db.metrics().GetCounter("relgo_pool_inline_jobs_total")),
      tasks_(&db.metrics().GetCounter("relgo_pool_tasks_total")),
      job_wait_(&db.metrics().GetHistogram("relgo_pool_job_wait_ms")) {}

Counters CounterReader::Read() const {
  Counters c;
  optimizer::PlanCache::Stats plan = db_.plan_cache().stats();
  exec::ScanCache::Stats scan = db_.scan_cache().stats();
  obs::HistogramSnapshot wait = job_wait_->Snapshot();
  c.plan_hits = static_cast<double>(plan.hits);
  c.plan_misses = static_cast<double>(plan.misses);
  c.plan_invalidations = static_cast<double>(plan.invalidations);
  c.scan_hits = static_cast<double>(scan.hits);
  c.scan_misses = static_cast<double>(scan.misses);
  c.pool_jobs = static_cast<double>(jobs_->Value());
  c.pool_inline_jobs = static_cast<double>(inline_jobs_->Value());
  c.pool_tasks = static_cast<double>(tasks_->Value());
  c.pool_wait_sum_ms = wait.sum_ms;
  return c;
}

}  // namespace perfbench
}  // namespace relgo
