// The repo benchmark: generates one workload from a seed, drives the relgo
// library from a single process, checks every result against the
// materializing reference engine, and prints its metrics. See
// perfbench/README.md for the workloads and the metric -> layer table.
//
//   relgo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "perfbench.h"
#include "workload/imdb.h"
#include "workload/ldbc.h"

namespace relgo {
namespace perfbench {
namespace {

constexpr double kScale = 0.4;
constexpr int kSetupReps = 9;
constexpr double kQueryTimeoutMs = 30'000.0;
constexpr int kHashedRequestsPerClient = 1024;
constexpr int kLayerPassReps = 3;
constexpr int kAppendProbeRows = 64;
constexpr auto kMode = optimizer::OptimizerMode::kRelGo;

struct WorkloadSpec {
  const char* name;
  bool imdb;
  /// Template names in mix order; empty = every JOB template.
  std::vector<std::string> templates;
  bool client_per_core;  ///< nproc clients instead of one
  /// Bindings per template (1 = the default only).
  int pool_size;
  int append_every;  ///< append one row after every n-th query; 0 = never
  std::vector<std::string> append_tables;
};

/// Why each workload exists, and what each should stress: README.md.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Default bindings only: the fan-out of a 3-hop expansion differs
      // several-fold between names of equal frequency, and peak memory
      // with it.
      {"ldbc_fanout",
       false,
       {"IC1-2", "IC1-3", "IC3-2", "IC5-2", "IC6-2", "IC9-2", "QC1", "QC2",
        "QC3"},
       false,
       1,
       0,
       {}},
      {"ldbc_serving",
       false,
       {"IC1-1", "IC2", "IC3-1", "IC4", "IC5-1", "IC6-1", "IC7", "IC8",
        "IC9-1", "IC11-1", "IC11-2", "IC12"},
       true,
       8,
       0,
       {}},
      {"job_ingest",
       true,
       {},
       false,
       8,
       4,
       {"keyword", "company_name", "char_name", "name"}},
  };
  return specs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Worker count the way `nproc` reports it (the process's CPU affinity).
int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Generates the workload's dataset at the generator's compiled-in seed
/// (the datasets the figure benches use). The dataset is deliberately not
/// drawn from --seed: the fan-out of a 3-hop expansion, and with it the
/// peak memory of ldbc_fanout, differs by a third between dataset seeds.
Status Generate(const WorkloadSpec& w, Database* db) {
  if (w.imdb) {
    workload::ImdbOptions o;
    o.scale_factor = kScale;
    return workload::GenerateImdb(db, o);
  }
  workload::LdbcOptions o;
  o.scale_factor = kScale;
  return workload::GenerateLdbc(db, o);
}

/// A table the benchmark appends to: rows are copies of existing rows
/// under a fresh key, so they never match an edge.
struct AppendTarget {
  storage::TablePtr table;
  size_t key_column = 0;
  int64_t next_key = 0;
  uint64_t base_rows = 0;
};

Result<AppendTarget> MakeAppendTarget(const Database& db,
                                      const std::string& name) {
  AppendTarget a;
  RELGO_ASSIGN_OR_RETURN(a.table, db.catalog().GetTable(name));
  int label = db.mapping().FindVertexLabel(name);
  if (label < 0) return Status::InvalidArgument("not a vertex table: " + name);
  RELGO_ASSIGN_OR_RETURN(
      a.key_column, a.table->schema().GetColumnIndex(
                        db.mapping().vertex_mapping(label).key_column));
  a.base_rows = a.table->num_rows();
  for (uint64_t r = 0; r < a.base_rows; ++r) {
    a.next_key = std::max(
        a.next_key, a.table->GetValue(r, a.key_column).int_value() + 1);
  }
  return a;
}

Status AppendCopy(AppendTarget* a, uint64_t row) {
  std::vector<Value> values;
  for (size_t c = 0; c < a->table->num_columns(); ++c) {
    values.push_back(a->table->GetValue(row, c));
  }
  values[a->key_column] = Value::Int(a->next_key++);
  return a->table->AppendRow(values);
}

/// Everything one run works on.
struct Bench {
  const Database* db = nullptr;
  std::vector<Template> templates;
  StreamSpec stream;
  std::vector<AppendTarget> appends;
  exec::ExecutionOptions options;
  int clients = 1;
  double seconds = 0.0;
};

/// What one client (or a whole phase, once merged) observed.
struct Tally {
  std::vector<double> latency_ms;  ///< bind + Run, successful queries
  /// Latency sum and count per (template, binding), for the summary.
  std::map<std::pair<int, int>, std::pair<double, uint64_t>> by_binding;
  DigestCounts digests;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< non-OK status (mismatches are counted later)
  uint64_t appends = 0;
  uint64_t append_failed = 0;
  double bind_ms = 0.0, run_ms = 0.0, plan_ms = 0.0, exec_ms = 0.0;
  double append_ms = 0.0;
  std::string first_error;

  void Merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    for (const auto& [key, counts] : o.digests) {
      for (const auto& [d, n] : counts) digests[key][d] += n;
    }
    for (const auto& [key, sum] : o.by_binding) {
      by_binding[key].first += sum.first;
      by_binding[key].second += sum.second;
    }
    attempted += o.attempted;
    failed += o.failed;
    appends += o.appends;
    append_failed += o.append_failed;
    bind_ms += o.bind_ms;
    run_ms += o.run_ms;
    plan_ms += o.plan_ms;
    exec_ms += o.exec_ms;
    append_ms += o.append_ms;
    if (first_error.empty()) first_error = o.first_error;
  }
  void Fail(const Status& st) {
    ++failed;
    if (first_error.empty()) first_error = st.ToString();
  }
  uint64_t ok() const { return latency_ms.size(); }
};

struct Phase {
  Tally tally;
  double wall_s = 0.0;
  Counters delta;
  std::vector<SpanRecorder> spans;

  double qps() const { return static_cast<double>(tally.ok()) / wall_s; }
};

/// One client's closed loop: issue the next request, wait for the reply,
/// repeat — until the deadline has passed and a round is complete, so
/// every template runs equally often. `rec` is null in untraced phases.
void ClientLoop(Bench* b, int client, const CounterReader& counters,
                const Timer& clock, SpanRecorder* rec, Tally* out) {
  RequestStream stream(b->stream, client);
  uint64_t n = 0;
  while (!(stream.AtRoundBoundary() && clock.ElapsedSeconds() >= b->seconds)) {
    const Request r = stream.Next();
    const uint64_t id = (static_cast<uint64_t>(client) << 40) | ++n;
    const Template& t = b->templates[r.tmpl];
    const size_t root = rec ? rec->Begin("request", id) : 0;
    ++out->attempted;

    Timer latency;
    const size_t bind_span = rec ? rec->Begin("bind", id, root) : 0;
    auto bound = optimizer::BindTemplate(t.param, t.pool[r.binding]);
    const double bind_ms = latency.ElapsedMillis();
    if (rec) rec->End(bind_span);
    if (!bound.ok()) {
      out->Fail(bound.status());
    } else {
      const Counters before = rec ? counters.Read() : Counters{};
      const size_t run_span = rec ? rec->Begin("run", id, root) : 0;
      Timer run_timer;
      auto run = b->db->Run(*bound, kMode, b->options);
      const double run_ms = run_timer.ElapsedMillis();
      const double latency_ms = latency.ElapsedMillis();
      if (rec) {
        auto args = (counters.Read() - before).Args();
        if (run.ok()) {
          args.emplace_back("optimization_ms", run->optimization_ms);
          args.emplace_back("execution_ms", run->execution_ms);
        }
        rec->End(run_span, std::move(args));
      }
      if (!run.ok()) {
        out->Fail(run.status());
      } else {
        out->latency_ms.push_back(latency_ms);
        auto& sum = out->by_binding[{r.tmpl, r.binding}];
        sum.first += latency_ms;
        ++sum.second;
        out->digests[{r.tmpl, r.binding}][DigestTable(*run->table)]++;
        out->bind_ms += bind_ms;
        out->run_ms += run_ms;
        out->plan_ms += run->optimization_ms;
        out->exec_ms += run->execution_ms;
      }
    }

    if (r.append_table >= 0) {
      const size_t span = rec ? rec->Begin("append", id, root) : 0;
      Timer append_timer;
      Status st = AppendCopy(&b->appends[r.append_table], r.append_row);
      out->append_ms += append_timer.ElapsedMillis();
      if (rec) rec->End(span);
      ++out->appends;
      if (!st.ok()) {
        ++out->append_failed;
        if (out->first_error.empty()) out->first_error = st.ToString();
      }
    }
    if (rec) rec->End(root);
  }
}

Phase RunPhase(Bench* b, bool traced) {
  Phase phase;
  std::vector<Tally> tallies(b->clients);
  for (int c = 0; c < b->clients; ++c) phase.spans.emplace_back(c);
  CounterReader counters(*b->db);

  // The phase span lives on client 0's track; counter deltas are read at
  // its boundaries.
  const size_t phase_span =
      traced ? phase.spans[0].Begin("timed_phase", 0) : 0;
  const Counters before = counters.Read();
  Timer clock;
  std::vector<std::thread> threads;
  for (int c = 0; c < b->clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(b, c, counters, clock, traced ? &phase.spans[c] : nullptr,
                 &tallies[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = clock.ElapsedSeconds();
  phase.delta = counters.Read() - before;
  if (traced) phase.spans[0].End(phase_span, phase.delta.Args());
  for (const Tally& t : tallies) phase.tally.Merge(t);
  return phase;
}

/// Per-template cold passes of the traced run: Optimize, Execute on the
/// optimized plan, and one RunProfiled for the pipeline shape.
struct LayerPasses {
  std::vector<double> optimize_ms, execute_ms, build_ms, sort_ms, qerror;
  exec::PipelineTrace heaviest;
  std::string heaviest_template;
  Tally tally;  ///< results of the passes (checked like timed ones)
};

LayerPasses RunLayerPasses(const Bench& b) {
  LayerPasses out;
  for (size_t ti = 0; ti < b.templates.size(); ++ti) {
    const Template& t = b.templates[ti];
    auto bound = optimizer::BindTemplate(t.param, t.pool[0]);
    if (!bound.ok()) {
      out.tally.Fail(bound.status());
      continue;
    }
    std::vector<double> opt_ms, exec_ms;
    for (int rep = 0; rep < kLayerPassReps; ++rep) {
      Timer timer;
      auto optimized = b.db->Optimize(*bound, kMode);
      opt_ms.push_back(timer.ElapsedMillis());
      ++out.tally.attempted;
      if (!optimized.ok()) {
        out.tally.Fail(optimized.status());
        continue;
      }
      timer.Restart();
      auto result = b.db->Execute(*optimized->plan, b.options);
      const double ms = timer.ElapsedMillis();
      if (!result.ok()) {
        out.tally.Fail(result.status());
        continue;
      }
      exec_ms.push_back(ms);
      out.tally.digests[{static_cast<int>(ti), 0}][DigestTable(**result)]++;
    }
    out.optimize_ms.push_back(NearestRank(opt_ms, 0.5));
    if (!exec_ms.empty()) out.execute_ms.push_back(NearestRank(exec_ms, 0.5));

    ++out.tally.attempted;
    auto profiled = b.db->RunProfiled(*bound, kMode, b.options);
    if (!profiled.ok()) {
      out.tally.Fail(profiled.status());
      continue;
    }
    out.tally.digests[{static_cast<int>(ti), 0}]
                     [DigestTable(*profiled->table)]++;
    out.build_ms.push_back(profiled->profile.build_ms());
    out.sort_ms.push_back(profiled->profile.sort_ms());
    exec::QErrorSummary q =
        exec::SummarizeQError(*profiled->plan, profiled->profile);
    if (q.ops > 0) out.qerror.push_back(q.geomean);
    for (const exec::PipelineTrace& p : profiled->profile.pipelines()) {
      if (p.wall_ms > out.heaviest.wall_ms) {
        out.heaviest.wall_ms = p.wall_ms;
        out.heaviest.morsels = p.morsels;
        out.heaviest.threads = p.threads;
        out.heaviest_template = t.name();
      }
    }
  }
  return out;
}

/// Reference digests of every (template, binding) pair.
std::map<std::pair<int, int>, Digest> ReferenceDigests(const Bench& b) {
  const exec::ExecutionOptions ref = ReferenceOptions();
  std::map<std::pair<int, int>, Digest> out;
  for (size_t ti = 0; ti < b.templates.size(); ++ti) {
    const Template& t = b.templates[ti];
    for (size_t bi = 0; bi < t.pool.size(); ++bi) {
      auto bound = optimizer::BindTemplate(t.param, t.pool[bi]);
      if (!bound.ok()) continue;
      auto run = b.db->Run(*bound, kMode, ref);
      if (!run.ok()) {
        std::fprintf(stderr, "reference %s binding %zu failed: %s\n",
                     t.name().c_str(), bi, run.status().ToString().c_str());
        continue;
      }
      out[{static_cast<int>(ti), static_cast<int>(bi)}] =
          DigestTable(*run->table);
    }
  }
  return out;
}

double Mean(double sum, uint64_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}
double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
double Mean(const std::vector<double>& v) { return Mean(Sum(v), v.size()); }
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: relgo_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // ---- Set-up (the `workload` layer), repeated; the median is reported.
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    Timer timer;
    auto fresh = std::make_unique<Database>();
    Status st = Generate(*spec, fresh.get());
    setup_s.push_back(timer.ElapsedSeconds());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    db = std::move(fresh);
  }
  const uint64_t total_rows = db->catalog().TotalRows();
  const size_t index_bytes = db->index().MemoryBytes();

  // ---- Templates, binding pools, request streams.
  Bench b;
  b.db = db.get();
  // A traced run splits its time between an untraced and a traced phase
  // (their qps ratio is trace.overhead_ratio).
  b.seconds = args.trace ? args.seconds / 2 : args.seconds;
  b.clients = spec->client_per_core ? Nproc() : 1;
  b.options.engine = exec::EngineKind::kPipeline;
  b.options.num_threads = Nproc();
  b.options.timeout_ms = kQueryTimeoutMs;
  {
    std::vector<workload::WorkloadQuery> all;
    if (spec->imdb) {
      all = workload::JobQueries(*db);
    } else {
      all = workload::LdbcInteractiveQueries(*db);
      for (auto& q : workload::LdbcCyclicQueries(*db)) {
        all.push_back(std::move(q));
      }
    }
    std::vector<std::string> names = spec->templates;
    if (names.empty()) {
      for (const auto& q : all) names.push_back(q.query.name);
    }
    Rng pool_rng(args.seed * 0x9e3779b97f4a7c15ULL + 7);
    for (const std::string& name : names) {
      auto it = std::find_if(all.begin(), all.end(), [&](const auto& q) {
        return q.query.name == name;
      });
      if (it == all.end()) {
        std::fprintf(stderr, "unknown template %s\n", name.c_str());
        return 1;
      }
      Template t;
      t.param = optimizer::ParameterizeQuery(it->query);
      t.pool = CurateBindingPool(*db, t.param, spec->pool_size, &pool_rng);
      b.stream.pool_sizes.push_back(static_cast<int>(t.pool.size()));
      b.templates.push_back(std::move(t));
    }
  }
  b.stream.seed = args.seed;
  b.stream.append_every = spec->append_every;
  for (const std::string& name : spec->append_tables) {
    auto target = MakeAppendTarget(*db, name);
    if (!target.ok()) {
      std::fprintf(stderr, "append target: %s\n",
                   target.status().ToString().c_str());
      return 1;
    }
    b.stream.append_table_rows.push_back(target->base_rows);
    b.appends.push_back(std::move(*target));
  }
  std::printf("workload=%s seed=%llu clients=%d threads=%d templates=%zu "
              "request_sequence_hash=%s\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              b.clients, b.options.num_threads, b.templates.size(),
              SequenceHash(b.stream, b.clients, kHashedRequestsPerClient)
                  .c_str());

  // ---- Warm-up: every (template, binding) once, checked but not timed,
  // so that the caches hold every plan and selection before timing.
  Tally checked;
  for (size_t ti = 0; ti < b.templates.size(); ++ti) {
    const Template& t = b.templates[ti];
    for (size_t bi = 0; bi < t.pool.size(); ++bi) {
      ++checked.attempted;
      auto bound = optimizer::BindTemplate(t.param, t.pool[bi]);
      auto run = bound.ok() ? db->Run(*bound, kMode, b.options)
                            : Result<QueryRunResult>(bound.status());
      if (!run.ok()) {
        checked.Fail(run.status());
        continue;
      }
      checked.digests[{static_cast<int>(ti), static_cast<int>(bi)}]
                     [DigestTable(*run->table)]++;
    }
  }

  // ---- Timed phases. Peak RSS is read before the reference pass, whose
  // materializing engine would otherwise own the peak.
  Phase plain = RunPhase(&b, false);
  const double peak_rss_mb = PeakRssMb();
  Phase traced;
  LayerPasses passes;
  if (args.trace) {
    traced = RunPhase(&b, true);
    passes = RunLayerPasses(b);
  }

  // ---- Output check against the reference engine.
  checked.Merge(plain.tally);
  checked.Merge(traced.tally);
  checked.Merge(passes.tally);
  const uint64_t mismatches =
      CountMismatches(checked.digests, ReferenceDigests(b));
  const uint64_t failed = checked.failed + mismatches + checked.append_failed;
  const bool correct = failed == 0 && plain.tally.ok() > 0;
  if (!checked.first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", checked.first_error.c_str());
  }

  const std::vector<double>& lat = plain.tally.latency_ms;
  std::printf("checked=%llu failed=%llu (mismatches=%llu) appends=%llu "
              "error_rate=%.6g\n",
              static_cast<unsigned long long>(checked.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(checked.appends),
              Ratio(static_cast<double>(failed),
                    static_cast<double>(checked.attempted)));
  std::printf("untraced: qps=%.2f wall_s=%.3f latency_ms p50=%.3f p90=%.3f "
              "p99=%.3f (n=%zu)\n",
              plain.qps(), plain.wall_s, NearestRank(lat, 0.5),
              NearestRank(lat, 0.9), NearestRank(lat, 0.99), lat.size());

  for (size_t ti = 0; ti < b.templates.size(); ++ti) {
    std::printf("  %-7s mean ms per binding:", b.templates[ti].name().c_str());
    for (size_t bi = 0; bi < b.templates[ti].pool.size(); ++bi) {
      auto it = plain.tally.by_binding.find(
          {static_cast<int>(ti), static_cast<int>(bi)});
      if (it == plain.tally.by_binding.end()) {
        std::printf(" -");
      } else {
        std::printf(" %.3f", Mean(it->second.first, it->second.second));
      }
    }
    std::printf("\n");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", NearestRank(setup_s, 0.5), "s"},
        {"qps", plain.qps(), "1/s"},
        {"latency_p50_ms", NearestRank(lat, 0.5), "ms"},
        {"latency_p90_ms", NearestRank(lat, 0.9), "ms"},
        {"latency_p99_ms", NearestRank(lat, 0.99), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // The LDBC workloads never write; their append cost comes from a probe
    // after every measurement and check above.
    Tally& t = traced.tally;
    double append_ms = t.append_ms;
    uint64_t appends = t.appends;
    if (spec->append_tables.empty()) {
      auto probe = MakeAppendTarget(*db, "TagClass");
      for (int i = 0; probe.ok() && i < kAppendProbeRows; ++i) {
        Timer timer;
        Status st = AppendCopy(&*probe, i % probe->base_rows);
        append_ms += timer.ElapsedMillis();
        appends += st.ok() ? 1 : 0;
      }
    }
    const Counters& d = traced.delta;
    const double run_ms = Mean(t.run_ms, t.ok());
    metrics = {
        {"optimizer.optimize_ms", Mean(passes.optimize_ms), "ms"},
        {"optimizer.plan_cache_hit_rate",
         Ratio(d.plan_hits, d.plan_hits + d.plan_misses), "ratio"},
        {"optimizer.plan_cache_invalidations", d.plan_invalidations, "count"},
        {"optimizer.bind_ms", Mean(t.bind_ms, t.ok()), "ms"},
        {"optimizer.qerror_geomean", GeoMean(passes.qerror), "ratio"},
        {"core.run_ms", run_ms, "ms"},
        {"core.plan_ms", Mean(t.plan_ms, t.ok()), "ms"},
        {"core.exec_ms", Mean(t.exec_ms, t.ok()), "ms"},
        {"core.overhead_ms", Mean(t.run_ms - t.plan_ms - t.exec_ms, t.ok()),
         "ms"},
        {"exec.execute_ms", Mean(passes.execute_ms), "ms"},
        {"exec.dominant_pipeline_ms", passes.heaviest.wall_ms, "ms"},
        {"exec.dominant_pipeline_morsels",
         static_cast<double>(passes.heaviest.morsels), "count"},
        {"exec.dominant_pipeline_workers",
         static_cast<double>(passes.heaviest.threads), "count"},
        {"exec.build_share",
         Ratio(Sum(passes.build_ms), Sum(passes.execute_ms)), "ratio"},
        {"exec.sort_share", Ratio(Sum(passes.sort_ms), Sum(passes.execute_ms)),
         "ratio"},
        {"exec.scan_cache_hit_rate",
         Ratio(d.scan_hits, d.scan_hits + d.scan_misses), "ratio"},
        {"exec.pool_tasks", Mean(d.pool_tasks, t.ok()), "count"},
        {"exec.pool_inline_job_share",
         Ratio(d.pool_inline_jobs, d.pool_inline_jobs + d.pool_jobs), "ratio"},
        {"exec.pool_wait_share", Ratio(d.pool_wait_sum_ms, t.exec_ms),
         "ratio"},
        {"storage.append_ms", Mean(append_ms, appends), "ms"},
        {"storage.total_rows", static_cast<double>(total_rows), "count"},
        {"graph.index_bytes", static_cast<double>(index_bytes), "bytes"},
        {"trace.overhead_ratio", Ratio(traced.qps(), plain.qps()), "ratio"},
    };
    std::printf("traced: qps=%.2f dominant pipeline in %s\n", traced.qps(),
                passes.heaviest_template.c_str());
    const std::string path = args.out_dir + "/trace_" + spec->name + "_seed" +
                             std::to_string(args.seed) + ".json";
    Status written = WriteChromeTrace(traced.spans, path);
    if (written.ok()) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    }
  }
  std::fflush(stdout);
  PrintResult(correct, checked.attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace relgo

int main(int argc, char** argv) { return relgo::perfbench::Main(argc, argv); }
