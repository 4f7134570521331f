#ifndef RELGO_BENCH_BENCH_UTIL_H_
#define RELGO_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "workload/harness.h"
#include "workload/imdb.h"
#include "workload/ldbc.h"

namespace relgo {
namespace bench {

/// Shared CLI convention for the figure benches:
///   --scale <f>    dataset scale factor (default per bench)
///   --reps <n>     timed repetitions per query (default 2)
///   --threads <n>  pipeline-engine worker threads (default 4)
struct BenchArgs {
  double scale = 1.0;
  int reps = 2;
  int threads = 4;
};

inline BenchArgs ParseArgs(int argc, char** argv, double default_scale) {
  BenchArgs args;
  args.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--scale" && i + 1 < argc) {
      args.scale = std::atof(argv[++i]);
    } else if (a == "--reps" && i + 1 < argc) {
      args.reps = std::atoi(argv[++i]);
    } else if (a == "--threads" && i + 1 < argc) {
      args.threads = std::atoi(argv[++i]);
    }
  }
  if (args.threads <= 0) {
    // 0 (or garbage) means hardware concurrency, like
    // ExecutionOptions::num_threads; resolve it here so tables and JSON
    // records show the actual worker count.
    exec::ExecutionOptions probe;
    probe.num_threads = args.threads;
    args.threads = exec::ResolveNumThreads(probe);
  }
  return args;
}

/// Human-readable engine tag used in tables and in the JSON records.
inline const char* EngineLabel(exec::EngineKind engine) {
  return engine == exec::EngineKind::kPipeline ? "pipeline" : "materialize";
}

/// ExecutionOptions for one engine configuration on top of the bench-wide
/// limits (see BenchExecOptions below).
inline exec::ExecutionOptions EngineOptions(exec::ExecutionOptions base,
                                            exec::EngineKind engine,
                                            int threads) {
  base.engine = engine;
  base.num_threads = threads;
  return base;
}

/// One measurement tagged with engine + thread count, serialized into
/// BENCH_pipeline.json so the perf trajectory across PRs is recorded
/// machine-readably.
struct BenchRecord {
  std::string bench;     ///< e.g. "fig7_e2e"
  std::string workload;  ///< "ldbc" / "imdb"
  double scale = 0.0;
  std::string query;
  std::string mode;    ///< optimizer mode name
  std::string engine;  ///< "materialize" / "pipeline"
  int threads = 1;
  double optimization_ms = 0.0;
  double execution_ms = 0.0;
  uint64_t rows = 0;
  std::string status;  ///< "ok" / "OOM" / "OT" / "ERR"
  /// Estimator accuracy of the plan (geomean / max per-operator Q-error
  /// from the profiled warm-up); 0 when not measured.
  double qerror = 0.0;
  double qerror_max = 0.0;
  /// Breaker serial sections of the profiled warm-up (pipeline engine):
  /// hash-join build and sort/top-k finish wall time. Tracks how much of a
  /// query the breakers still serialize across PRs.
  double build_ms = 0.0;
  double sort_ms = 0.0;
  /// Adaptive-statistics loop (Harness::RunAdaptive records): Q-error
  /// geomean / worst-operator Q-error after `feedback_rounds` warm-up ->
  /// feedback -> re-plan rounds; all 0 on non-adaptive records. Compare
  /// qerror_after against qerror (always the first run) to read the
  /// feedback gain.
  double qerror_after = 0.0;
  double qerror_max_after = 0.0;
  int feedback_rounds = 0;
  /// Concurrent-serving fields (fig13 records; defaults on the rest):
  /// client threads replaying the mix, completed queries per second, and
  /// cross-query scan-cache activity during the run. Per-query records
  /// reuse scan_cache_hits for the profiled warm-up's replayed scans.
  int clients = 0;
  double qps = 0.0;
  uint64_t scan_cache_hits = 0;
  double cache_hit_rate = 0.0;
  /// Per-query latency tail of the storm (fig13 records; 0 on the rest):
  /// exact nearest-rank percentiles over every completed query's
  /// end-to-end milliseconds — the serving metric QPS alone hides.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Lifecycle shed-load breakdown of a storm's failed queries (fig13
  /// chaos/admission records; 0 on the rest): cancelled mid-flight,
  /// rejected by admission control, timed out.
  uint64_t queries_cancelled = 0;
  uint64_t queries_rejected = 0;
  uint64_t queries_timeout = 0;
  /// Cross-query plan-cache activity (fig13 storm and hot-template
  /// records; 0 on the rest — the per-query figure benches run with
  /// BenchExecOptions' plan_cache off). On hot-template records,
  /// optimization_ms holds the warm mean and execution_ms the warm mean
  /// execution time, so a warm record with hits ~100% shows
  /// optimization_ms collapsing toward 0.
  uint64_t plan_cache_hits = 0;
  double plan_cache_hit_rate = 0.0;
};

/// Process-wide collector; call Write() once at the end of main(). Every
/// record is stamped with a per-process run id (unix time at startup) so
/// accumulated files from repeated runs can be ordered and deduplicated.
class BenchJson {
 public:
  static BenchJson& Global() {
    static BenchJson instance;
    return instance;
  }

  void Add(BenchRecord record) { records_.push_back(std::move(record)); }

  /// Tags and records a harness grid run under one engine configuration.
  void AddGrid(const std::string& bench, const std::string& workload,
               double scale, const std::vector<workload::RunMeasurement>& runs,
               exec::EngineKind engine, int threads) {
    for (const auto& r : runs) {
      BenchRecord rec;
      rec.bench = bench;
      rec.workload = workload;
      rec.scale = scale;
      rec.query = r.query;
      rec.mode = r.mode;
      rec.engine = EngineLabel(engine);
      rec.threads = engine == exec::EngineKind::kPipeline ? threads : 1;
      rec.optimization_ms = r.optimization_ms;
      rec.execution_ms = r.execution_ms;
      rec.rows = r.result_rows;
      rec.status = r.out_of_memory ? "OOM"
                   : r.timed_out   ? "OT"
                   : r.failed      ? "ERR"
                                   : "ok";
      rec.qerror = r.qerror_geomean;
      rec.qerror_max = r.qerror_max;
      rec.build_ms = r.build_ms;
      rec.sort_ms = r.sort_ms;
      rec.qerror_after = r.qerror_geomean_after;
      rec.qerror_max_after = r.qerror_max_after;
      rec.feedback_rounds = r.feedback_rounds;
      rec.scan_cache_hits = r.scan_cache_hits;
      Add(std::move(rec));
    }
  }

  /// Tags and records one multi-client throughput measurement
  /// (Harness::RunConcurrent) under one engine configuration.
  void AddConcurrent(const std::string& bench, const std::string& workload,
                     double scale,
                     const relgo::workload::ConcurrentMeasurement& m,
                     exec::EngineKind engine, int threads) {
    BenchRecord rec;
    rec.bench = bench;
    rec.workload = workload;
    rec.scale = scale;
    rec.query = "mix";
    rec.mode = m.mode;
    rec.engine = EngineLabel(engine);
    rec.threads = engine == exec::EngineKind::kPipeline ? threads : 1;
    rec.execution_ms = m.wall_ms;
    rec.rows = m.queries_ok;
    rec.status = m.queries_failed == 0 ? "ok" : "ERR";
    rec.clients = m.clients;
    rec.qps = m.qps;
    rec.scan_cache_hits = m.scan_cache_hits;
    rec.cache_hit_rate = m.cache_hit_rate;
    rec.latency_p50_ms = m.latency_p50_ms;
    rec.latency_p95_ms = m.latency_p95_ms;
    rec.latency_p99_ms = m.latency_p99_ms;
    rec.queries_cancelled = m.queries_cancelled;
    rec.queries_rejected = m.queries_rejected;
    rec.queries_timeout = m.queries_timeout;
    rec.plan_cache_hits = m.plan_cache_hits;
    rec.plan_cache_hit_rate = m.plan_cache_hit_rate;
    // A storm whose only failures are deliberately shed load (cancelled /
    // rejected / timed out) is a healthy serving-tier record, not an ERR.
    if (m.queries_failed > 0 &&
        m.queries_cancelled + m.queries_rejected + m.queries_timeout ==
            m.queries_failed) {
      rec.status = "shed";
    }
    Add(std::move(rec));
  }

  /// Tags and records one hot-template sweep (Harness::RunHotTemplates)
  /// under one engine configuration. `phase` is "cold" or "warm": the
  /// cold record carries the cold mean optimization time, the warm record
  /// the warm means plus the sweep's plan-cache hit counters.
  void AddHotTemplates(const std::string& bench, const std::string& workload,
                       double scale,
                       const relgo::workload::HotTemplateMeasurement& m,
                       exec::EngineKind engine, int threads,
                       const std::string& phase) {
    BenchRecord rec;
    rec.bench = bench;
    rec.workload = workload;
    rec.scale = scale;
    rec.query = "hot_templates_" + phase;
    rec.mode = m.mode;
    rec.engine = EngineLabel(engine);
    rec.threads = engine == exec::EngineKind::kPipeline ? threads : 1;
    rec.rows = m.queries_ok;
    rec.status = m.queries_failed == 0 ? "ok" : "ERR";
    rec.qps = m.qps;
    if (phase == "cold") {
      rec.optimization_ms = m.cold_optimization_ms;
    } else {
      rec.optimization_ms = m.warm_optimization_ms;
      rec.execution_ms = m.warm_execution_ms;
      rec.plan_cache_hits = m.plan_cache_hits;
      rec.plan_cache_hit_rate = m.plan_cache_hit_rate;
    }
    Add(std::move(rec));
  }

  /// Writes all records as a JSON array to `path`. If the file already
  /// holds an array written by a previous bench binary, the new records are
  /// appended to it — running the whole figure suite accumulates one
  /// trajectory file instead of each binary clobbering the last.
  void Write(const std::string& path = "BENCH_pipeline.json") const {
    std::string existing;
    if (std::FILE* in = std::fopen(path.c_str(), "r")) {
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
        existing.append(buf, n);
      }
      std::fclose(in);
      // Strip trailing whitespace and the closing ']' of our own format;
      // anything unrecognized is treated as absent (overwritten).
      while (!existing.empty() &&
             (existing.back() == '\n' || existing.back() == ' ')) {
        existing.pop_back();
      }
      if (existing.empty() || existing.front() != '[' ||
          existing.back() != ']') {
        existing.clear();
      } else {
        existing.pop_back();  // drop ']'
        while (!existing.empty() && existing.back() == '\n') {
          existing.pop_back();
        }
      }
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    bool has_prior = existing.find('{') != std::string::npos;
    if (existing.empty()) {
      std::fprintf(f, "[\n");
    } else {
      std::fprintf(f, "%s%s\n", existing.c_str(),
                   has_prior && !records_.empty() ? "," : "");
    }
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(
          f,
          "  {\"run_ts\": %lld, \"bench\": \"%s\", \"workload\": \"%s\", "
          "\"scale\": %.3f, \"query\": \"%s\", \"mode\": \"%s\", "
          "\"engine\": \"%s\", \"threads\": %d, \"optimization_ms\": %.3f, "
          "\"execution_ms\": %.3f, \"rows\": %llu, \"status\": \"%s\", "
          "\"qerror\": %.3f, \"qerror_max\": %.3f, \"build_ms\": %.3f, "
          "\"sort_ms\": %.3f, \"qerror_after\": %.3f, "
          "\"qerror_max_after\": %.3f, \"feedback_rounds\": %d, "
          "\"clients\": %d, \"qps\": %.3f, \"scan_cache_hits\": %llu, "
          "\"cache_hit_rate\": %.4f, \"latency_p50_ms\": %.3f, "
          "\"latency_p95_ms\": %.3f, \"latency_p99_ms\": %.3f, "
          "\"queries_cancelled\": %llu, \"queries_rejected\": %llu, "
          "\"queries_timeout\": %llu, \"plan_cache_hits\": %llu, "
          "\"plan_cache_hit_rate\": %.4f}%s\n",
          static_cast<long long>(run_ts_), r.bench.c_str(),
          r.workload.c_str(), r.scale, r.query.c_str(), r.mode.c_str(),
          r.engine.c_str(), r.threads, r.optimization_ms, r.execution_ms,
          static_cast<unsigned long long>(r.rows), r.status.c_str(),
          r.qerror, r.qerror_max, r.build_ms, r.sort_ms, r.qerror_after,
          r.qerror_max_after, r.feedback_rounds, r.clients, r.qps,
          static_cast<unsigned long long>(r.scan_cache_hits),
          r.cache_hit_rate, r.latency_p50_ms, r.latency_p95_ms,
          r.latency_p99_ms,
          static_cast<unsigned long long>(r.queries_cancelled),
          static_cast<unsigned long long>(r.queries_rejected),
          static_cast<unsigned long long>(r.queries_timeout),
          static_cast<unsigned long long>(r.plan_cache_hits),
          r.plan_cache_hit_rate, i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu records to %s\n", records_.size(), path.c_str());
  }

 private:
  BenchJson() : run_ts_(std::time(nullptr)) {}

  std::time_t run_ts_;
  std::vector<BenchRecord> records_;
};

/// Geometric-mean execution speedup of `b` over `a` for runs matched by
/// (query, mode); used to report pipeline-vs-materialize engine gains.
inline double EngineSpeedup(const std::vector<workload::RunMeasurement>& a,
                            const std::vector<workload::RunMeasurement>& b) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& ra : a) {
    for (const auto& rb : b) {
      if (ra.query != rb.query || ra.mode != rb.mode) continue;
      if (ra.failed || ra.timed_out || ra.out_of_memory) continue;
      if (rb.failed || rb.timed_out || rb.out_of_memory) continue;
      log_sum += std::log(std::max(ra.execution_ms, 1e-3) /
                          std::max(rb.execution_ms, 1e-3));
      ++n;
    }
  }
  return n == 0 ? 1.0 : std::exp(log_sum / n);
}

inline void Banner(const char* figure, const char* what) {
  std::printf("===========================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("===========================================================\n");
}

inline Database* MakeLdbc(double scale) {
  auto* db = new Database();
  workload::LdbcOptions options;
  options.scale_factor = scale;
  Status st = workload::GenerateLdbc(db, options);
  if (!st.ok()) {
    std::fprintf(stderr, "LDBC generation failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  std::printf("LDBC-like dataset, scale %.2f: %llu tuples total\n", scale,
              static_cast<unsigned long long>(db->catalog().TotalRows()));
  return db;
}

inline Database* MakeImdb(double scale) {
  auto* db = new Database();
  workload::ImdbOptions options;
  options.scale_factor = scale;
  Status st = workload::GenerateImdb(db, options);
  if (!st.ok()) {
    std::fprintf(stderr, "IMDB generation failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  std::printf("IMDB-like dataset, scale %.2f: %llu tuples total\n", scale,
              static_cast<unsigned long long>(db->catalog().TotalRows()));
  return db;
}

/// Bench-wide execution limits: a 30s per-query timeout (the paper used 10
/// minutes at server scale; timeouts are reported as OT) and the default
/// row budget. The cross-query scan cache and the plan cache are OFF here
/// so every figure bench's execution_ms / optimization_ms keeps measuring
/// real filter evaluation and real optimization — the accumulated
/// BENCH_pipeline.json trajectory stays comparable across PRs, and cache
/// amortization is measured by the one bench built for it
/// (bench_fig13_concurrency, which opts back in). The engine is pinned to
/// the materializing reference: every bench's un-tagged harness leg is
/// recorded as "materialize", and pipeline legs go through EngineOptions.
inline exec::ExecutionOptions BenchExecOptions() {
  exec::ExecutionOptions options;
  options.engine = exec::EngineKind::kMaterialize;
  options.timeout_ms = 30'000.0;
  options.scan_cache = false;
  options.plan_cache = false;
  return options;
}

}  // namespace bench
}  // namespace relgo

#endif  // RELGO_BENCH_BENCH_UTIL_H_
