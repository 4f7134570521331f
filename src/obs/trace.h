#ifndef RELGO_OBS_TRACE_H_
#define RELGO_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace relgo {
namespace obs {

/// Milliseconds since the process trace epoch — a steady_clock anchor
/// fixed on first use. Every span timestamp in the repo derives from this
/// (the same clock family as common::Timer): hot paths never read
/// system_clock; wall-clock context is stamped exactly once, at dump time
/// (TraceSink::DumpJson metadata).
double TraceNowMs();

/// One completed span (or metadata record) in Chrome trace-event terms:
/// rendered as a `ph:"X"` complete event on track `tid` (the query id),
/// with `ts`/`dur` carried here in milliseconds relative to the process
/// trace epoch.
struct TraceEvent {
  std::string name;  ///< "parse", "optimize", "pipeline_run", ...
  std::string cat;   ///< "query" or "pipeline"
  char phase = 'X';  ///< 'X' complete span; 'M' metadata (thread_name)
  uint64_t tid = 0;  ///< query id — one track per query
  double ts_ms = 0.0;
  double dur_ms = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Per-query span collector, stack-owned by Database::Run/RunProfiled for
/// the duration of one traced query and absorbed into the TraceSink at
/// the end. The execution context carries a pointer to it (null when
/// tracing is off — the same zero-cost-when-off discipline as the
/// profiler's QueryProfile*), so the engine records pipeline spans with
/// no branches beyond one null check.
///
/// Thread-safety: spans are recorded by the query's submitting thread
/// (pipelines run one at a time per query; morsel workers never record),
/// but Record is mutex-guarded anyway so future parallel-pipeline work
/// cannot silently race it.
class TraceRecorder {
 public:
  explicit TraceRecorder(uint64_t query_id) : query_id_(query_id) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  uint64_t query_id() const { return query_id_; }

  /// Records a span that started at `start_ms` (a TraceNowMs() reading)
  /// and ends now.
  void Record(const char* name, const char* cat, double start_ms,
              std::vector<std::pair<std::string, std::string>> args = {});

  /// Moves the collected events out (the recorder is then empty).
  std::vector<TraceEvent> Take();

 private:
  const uint64_t query_id_;
  std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Process-wide bounded span buffer, owned by Database: completed query
/// recorders are absorbed here, and DumpJson/WriteFile export everything
/// as Chrome trace-event JSON loadable by chrome://tracing (or Perfetto).
/// When the buffer is full the oldest events are dropped — tracing is a
/// flight recorder, not an unbounded log.
class TraceSink {
 public:
  static constexpr size_t kDefaultMaxEvents = 1 << 16;

  explicit TraceSink(size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// The tracing switch (Database::SetTracing): while on, every Database
  /// query is traced and ParsePattern records parse spans.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Fresh query id (> 0) for a traced query's track.
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Appends one event directly (parse spans, metadata).
  void Record(TraceEvent event);

  /// Moves a finished query's spans in, prepending a `thread_name`
  /// metadata record so the query's track is labeled `label` in the
  /// trace viewer.
  void Absorb(TraceRecorder* recorder, const std::string& label);

  /// Chrome trace-event JSON: {"traceEvents": [...], ...}. `ts`/`dur`
  /// are exported in microseconds (the trace-event unit) relative to the
  /// process trace epoch; the wall-clock export moment is stamped once
  /// into `otherData.exported_unix_ms`.
  std::string DumpJson() const;

  Status WriteFile(const std::string& path) const;

  size_t size() const;
  void Clear();

 private:
  const size_t max_events_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
};

}  // namespace obs
}  // namespace relgo

#endif  // RELGO_OBS_TRACE_H_
