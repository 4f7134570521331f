#ifndef RELGO_PERFBENCH_PERFBENCH_H_
#define RELGO_PERFBENCH_PERFBENCH_H_

// Building blocks of the repo benchmark (perfbench/README.md): the output
// check, seeded template bindings and request sequences, the span
// recorder, and the counter reader. main.cc wires them into workloads.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "optimizer/plan_cache.h"
#include "storage/table.h"

namespace relgo {
namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples: the
/// ceil(q * n)-th smallest value; 0 when empty.
double NearestRank(std::vector<double> samples, double q);

/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

/// Order-independent fingerprint of a result bag: row count plus the sum
/// and the xor of one 64-bit hash per row. Two tables holding the same
/// rows in any order have equal digests.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xor_all = 0;

  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum && xor_all == o.xor_all;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
  bool operator<(const Digest& o) const {
    if (rows != o.rows) return rows < o.rows;
    if (sum != o.sum) return sum < o.sum;
    return xor_all < o.xor_all;
  }
};

Digest DigestTable(const storage::Table& table);

/// Observed result digests per (template, binding) -> digest -> count.
using DigestCounts =
    std::map<std::pair<int, int>, std::map<Digest, uint64_t>>;

/// Requests whose digest differs from the reference digest of their
/// (template, binding); every request of a pair without a reference
/// counts as a mismatch.
uint64_t CountMismatches(const DigestCounts& observed,
                         const std::map<std::pair<int, int>, Digest>& expected);

/// Options of the reference engine: materializing, both caches off, no
/// metrics, so that checking leaves no trace in what is measured.
exec::ExecutionOptions ReferenceOptions();

// ---------------------------------------------------------------------------
// Templates and seeded bindings
// ---------------------------------------------------------------------------

/// A query template plus its binding pool. pool[0] is the compiled-in
/// default binding; the other entries take each slot's value from the
/// column that slot compares against.
struct Template {
  optimizer::ParameterizedQuery param;
  std::vector<std::vector<Value>> pool;

  const std::string& name() const { return param.query.name; }
};

/// The base-table column a parameter slot compares against.
struct SlotColumn {
  std::string table;  ///< empty when the slot could not be resolved
  std::string column;
  storage::CompareOp op = storage::CompareOp::kEq;
};

/// Resolves every WHERE-clause slot of `t` to its column through the
/// COLUMNS clause and the RGMapping. The workloads' templates put every
/// constant in WHERE; any other slot stays unresolved and keeps its default.
std::vector<SlotColumn> ResolveSlots(const Database& db,
                                     const optimizer::ParameterizedQuery& t);

/// Builds a pool of `size` bindings. Entry 0 is the default binding; every
/// other entry draws each slot from values of similar selectivity to the
/// default (LDBC-style parameter curation): for equality slots the values
/// whose frequency is closest to the default's, for range slots the values
/// ranked within 1% of the column around the default.
std::vector<std::vector<Value>> DrawBindingPool(
    const Database& db, const optimizer::ParameterizedQuery& t, int size,
    Rng* rng);

/// LDBC-style parameter curation on top of DrawBindingPool: draws four
/// candidates per pool entry and keeps the `size - 1` whose intermediate
/// tuple count (rows_out summed over the plan in one profiled run on the
/// materializing engine, which is deterministic) is closest to the default
/// binding's, so that every binding of a template costs about the same.
std::vector<std::vector<Value>> CurateBindingPool(
    const Database& db, const optimizer::ParameterizedQuery& t, int size,
    Rng* rng);

// ---------------------------------------------------------------------------
// Request sequence
// ---------------------------------------------------------------------------

/// One client request: a (template, binding) pair, optionally followed by
/// an append of a copy of `append_row` of table `append_table` (-1: none).
struct Request {
  int tmpl = 0;
  int binding = 0;
  int append_table = -1;
  uint64_t append_row = 0;
};

/// Shape of a workload's request stream.
struct StreamSpec {
  uint64_t seed = 0;
  std::vector<int> pool_sizes;  ///< binding-pool size per template
  int append_every = 0;         ///< append after every n-th query; 0 = never
  std::vector<uint64_t> append_table_rows;  ///< source rows per append table
};

/// The deterministic request stream of one client: a sequence of rounds,
/// each a seeded permutation of every template (so every template runs
/// equally often), with each request's binding drawn from its pool. Equal
/// (spec, client) give equal streams.
class RequestStream {
 public:
  RequestStream(const StreamSpec& spec, int client);

  Request Next();
  /// True when the next request starts a new round.
  bool AtRoundBoundary() const { return pos_ == order_.size(); }

 private:
  const StreamSpec& spec_;
  Rng rng_;
  std::vector<int> order_;
  size_t pos_;
  uint64_t issued_ = 0;
};

/// FNV-1a hash (hex) of the first `per_client` requests of each client's
/// stream: equal seeds print equal hashes.
std::string SequenceHash(const StreamSpec& spec, int clients,
                         int per_client);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded span. `parent` is the index of the enclosing span in the
/// same recorder, or -1.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::vector<std::pair<const char*, double>> args;
};

/// In-memory span buffer of one client thread (not thread-safe: each
/// client owns one). Timestamps are obs::TraceNowMs() readings, the clock
/// the library's own trace sink uses. Like obs::TraceSink it is bounded:
/// past kMaxSpans, Begin drops the span and returns kDropped.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 16384;
  static constexpr size_t kDropped = static_cast<size_t>(-1);

  explicit SpanRecorder(int client) : client_(client) {}

  size_t Begin(const char* name, uint64_t request, int64_t parent = -1);
  /// Closes `span`; a no-op for kDropped.
  void End(size_t span,
           std::vector<std::pair<const char*, double>> args = {});

  int client() const { return client_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int client_;
  std::vector<Span> spans_;
};

/// Writes every span as Chrome trace-event JSON through obs::TraceSink:
/// one `ph:"X"` event per span on track `tid` = client, with span id,
/// parent id, request id and counter deltas as args.
Status WriteChromeTrace(const std::vector<SpanRecorder>& recorders,
                        const std::string& path);

// ---------------------------------------------------------------------------
// Counters the program exposes
// ---------------------------------------------------------------------------

/// Plan-cache, scan-cache and worker-pool counters read at one instant.
struct Counters {
  double plan_hits = 0, plan_misses = 0, plan_invalidations = 0;
  double scan_hits = 0, scan_misses = 0;
  double pool_jobs = 0, pool_inline_jobs = 0, pool_tasks = 0;
  double pool_wait_sum_ms = 0;

  Counters operator-(const Counters& o) const;
  /// (name, value) pairs for span args.
  std::vector<std::pair<const char*, double>> Args() const;
};

/// Reads Counters off a Database; the registry handles are resolved once.
class CounterReader {
 public:
  explicit CounterReader(const Database& db);
  Counters Read() const;

 private:
  const Database& db_;
  const obs::Counter* jobs_;
  const obs::Counter* inline_jobs_;
  const obs::Counter* tasks_;
  const obs::Histogram* job_wait_;
};

}  // namespace perfbench
}  // namespace relgo

#endif  // RELGO_PERFBENCH_PERFBENCH_H_
