#ifndef RELGO_EXEC_PIPELINE_SCHEDULER_H_
#define RELGO_EXEC_PIPELINE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace relgo {
namespace exec {
namespace pipeline {

/// Registry hooks of the shared pool (wired once by Database before any
/// query runs; all-null for standalone pools, which then record nothing).
/// Granularity is per job, never per task: counters are bumped with the
/// job's totals when it drains, so the task hot loop stays untouched.
struct SchedulerMetrics {
  obs::Counter* jobs = nullptr;         ///< jobs offered to the pool
  obs::Counter* inline_jobs = nullptr;  ///< jobs never offered to the pool
  /// Tasks executed (both paths): source morsels plus the chunks spawned
  /// while the job ran.
  obs::Counter* tasks = nullptr;
  obs::Gauge* queue_depth = nullptr;    ///< active jobs after offer/drain
  obs::Gauge* pool_threads = nullptr;   ///< pool threads spawned so far
  obs::Histogram* job_run_ms = nullptr;  ///< pool-path Run() wall time
  /// Straggler wait: time the submitting thread spent blocked after its
  /// own work loop ran dry, waiting for pool workers to finish (or spawn)
  /// the job's last tasks.
  obs::Histogram* job_wait_ms = nullptr;
};

/// Admission control for the shared pool: a cap on concurrently admitted
/// *queries* (not jobs — one query runs many pipeline jobs) plus a bounded
/// wait queue for the overflow. Zero cap disables admission entirely:
/// AdmitQuery then always succeeds immediately, which is the default so
/// standalone pools and existing callers are unaffected.
struct AdmissionOptions {
  /// Queries allowed to execute concurrently; 0 = unlimited (disabled).
  int max_concurrent_queries = 0;
  /// Queries allowed to wait for a slot beyond the cap; arrivals past
  /// this are rejected immediately with ResourceExhausted.
  int max_queued = 4;
  /// Longest a queued query waits for a slot before ResourceExhausted.
  /// The effective deadline is min(max_wait_ms, the query's remaining
  /// timeout budget) — a query must never burn its whole timeout queueing.
  uint64_t max_wait_ms = 100;
};

/// A morsel-driven worker pool (Leis et al., "Morsel-Driven Parallelism").
///
/// One scheduler is a *process-wide* pool shared by every concurrent query
/// of a Database (Leis et al. Sec 3 call for exactly one pool per process,
/// not one per query). Each Run()/RunTasks() call is one job — one
/// pipeline's tasks — whose error/abort state lives in a per-job handle on
/// the caller's stack, so any number of threads may submit jobs
/// concurrently and their tasks interleave on the same workers. Pool
/// threads are spawned lazily up to the largest max_workers ever
/// requested; cheap queries whose pipelines fit in a couple of tasks never
/// pay for thread creation.
///
/// A job's task count may grow while it runs: a task may Spawn() more
/// tasks of its own job (the pipeline engine re-morselizes an oversized
/// operator output this way). Tasks are claimed from the job's atomic
/// counter, so fast workers naturally steal the remaining work of slow
/// ones. The submitting thread participates as the job's slot 0 and only
/// works on its own job (its stack owns the pipeline's sink state); pool
/// threads pick any claimable job, rotating across active jobs so
/// concurrent queries share the pool instead of convoying behind the
/// first one.
///
/// Every job starts on the submitting thread. It is offered to the pool
/// once its unclaimed tasks reach 2 * max_workers — at submission, or at
/// the Spawn() that crosses the cutoff. Tiny pipelines (probe feeds of
/// selective joins, 1-hop lookups) never reach it, so parallelizing them
/// never buys wakeup/context-switch churn.
///
/// Errors: the first non-OK status a worker returns is recorded in the
/// job handle and the job's remaining tasks are abandoned (each worker
/// re-checks the job's failure flag before claiming the next task). This
/// is how row-budget (kOutOfMemory) and timeout (kTimeout) aborts
/// propagate out of a parallel pipeline — without touching any other
/// in-flight job.
class TaskScheduler {
 private:
  struct Job;

 public:
  /// fn(slot, morsel_index); slot in [0, max_workers) is the job-local
  /// worker id (slot 0 = the submitting thread), NOT a pool thread index —
  /// per-job state (sink partials, profile slots) indexes by it.
  using MorselFn = std::function<Status(int, uint64_t)>;

  /// The handle through which a running task adds tasks to its own job.
  class Spawner {
   public:
    /// Adds `n` tasks to the job. Call only from inside one of the job's
    /// tasks, once the work they stand for can be claimed.
    void Spawn(uint64_t n) const { scheduler_->AddTasks(job_, n); }

   private:
    friend class TaskScheduler;
    Spawner(TaskScheduler* scheduler, Job* job)
        : scheduler_(scheduler), job_(job) {}
    TaskScheduler* scheduler_;
    Job* job_;
  };

  /// fn(slot, spawner): runs one task of a job whose task count can grow.
  /// Tasks carry no index; fn claims its unit of work itself (the
  /// pipeline engine pops a pending chunk or claims the next source
  /// morsel), so every task must find exactly one unit.
  using TaskFn = std::function<Status(int, const Spawner&)>;

  TaskScheduler() = default;
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Runs `morsel_count` morsels to completion (or first error) with at
  /// most `max_workers` concurrent workers, the calling thread included.
  /// Blocks until the job drains; thread-safe — concurrent Run() calls
  /// from different threads interleave on the shared pool. `workers_used`
  /// (optional) receives the job's fan-out width: 1 when it ran on the
  /// calling thread only, max_workers when it was offered to the pool —
  /// deterministic, so profiling traces are reproducible.
  Status Run(uint64_t morsel_count, int max_workers, const MorselFn& fn,
             int* workers_used = nullptr);

  /// Like Run, for a job that starts with `initial_tasks` tasks and may
  /// Spawn() more while it runs. Blocks until every task, spawned ones
  /// included, has run (or the first error).
  Status RunTasks(uint64_t initial_tasks, int max_workers, const TaskFn& fn,
                  int* workers_used = nullptr);

  /// Pool threads spawned so far (grows on demand; diagnostics only).
  int pool_threads() const;

  /// Attaches registry metrics (see SchedulerMetrics). Must be called
  /// before the first Run — Database wires its pool in the constructor;
  /// standalone pools simply never call it.
  void SetMetrics(const SchedulerMetrics& metrics) { metrics_ = metrics; }

  /// Replaces the admission policy. Takes effect for the next AdmitQuery;
  /// queries already admitted or queued are not re-evaluated.
  void SetAdmission(const AdmissionOptions& options);
  AdmissionOptions admission() const;

  /// Blocks until the query may execute, subject to the admission policy.
  /// `budget_ms` is the query's remaining timeout budget (caps the queue
  /// wait); `cancel` (optional) aborts the wait with kCancelled when it
  /// flips true. Returns kResourceExhausted when the queue is full or the
  /// wait deadline expires. On OK the caller MUST pair with ReleaseQuery.
  Status AdmitQuery(uint64_t budget_ms, const std::atomic<bool>* cancel);
  /// Releases an AdmitQuery slot and wakes the longest-waiting query.
  void ReleaseQuery();

  /// Queries currently admitted / waiting for admission (diagnostics).
  int admitted_queries() const;
  int queued_queries() const;

 private:
  /// Per-query (per-pipeline) job handle: all mutable scheduling state of
  /// one RunTasks() call. Lives on the submitting thread's stack; the
  /// owner removes it from the active list before returning, after every
  /// registered worker has left (`executing == 0`).
  struct Job {
    const TaskFn* fn = nullptr;
    int max_workers = 1;
    std::atomic<uint64_t> tasks{0};      ///< tasks registered so far
    std::atomic<uint64_t> next{0};       ///< task claim counter
    std::atomic<uint64_t> completed{0};  ///< tasks fully executed
    std::atomic<bool> failed{false};
    /// Set once, by the owner under the pool mutex, when the job enters
    /// jobs_; pool threads only ever see offered jobs.
    bool offered = false;
    Status error;       // first error; guarded by the pool mutex
    int slots = 1;      // job-local worker ids handed out; pool mutex
    std::vector<int> free_slots;  // ids released by departed pool workers
    int executing = 1;  // workers inside WorkLoop (owner incl.); pool mutex
    bool owner_waiting = false;       // owner blocked on done_cv; pool mutex
    std::condition_variable done_cv;  // owner waits; waits on pool mutex
  };

  void WorkerMain();
  /// Runs tasks of `job` until none is claimable or the job failed.
  void WorkLoop(Job* job, int slot);
  /// Claims one registered, unclaimed task of `job`.
  static bool TryClaim(Job* job);
  /// Registers `n` more tasks (Spawner::Spawn): offers an inline job to
  /// the pool once it crosses the cutoff, wakes idle workers otherwise.
  void AddTasks(Job* job, uint64_t n);
  /// Puts `job` on the active list and wakes the pool.
  void Offer(Job* job);
  /// Picks a job with unclaimed tasks and a free worker slot, rotating
  /// the scan start across calls; registers the caller (slot + executing)
  /// before returning it. Caller holds mu_. Null when nothing is claimable.
  Job* ClaimJobLocked(int* slot);
  /// Grows the pool to at least `wanted` threads. Caller holds mu_.
  void EnsureWorkersLocked(int wanted);

  SchedulerMetrics metrics_;  // wired pre-concurrency; null hooks = no-op

  /// Admission state lives under its own mutex: AdmitQuery may block for
  /// milliseconds and must never contend with the morsel hot path on mu_.
  mutable std::mutex admission_mu_;
  std::condition_variable admit_cv_;  // waiters poll cancel in short slices
  AdmissionOptions admission_;
  int admitted_ = 0;  ///< queries holding a slot (also counted when
                      ///< admission is disabled, for diagnostics)
  int queued_ = 0;    ///< queries blocked inside AdmitQuery

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // pool threads wait for claimable jobs
  std::vector<std::thread> workers_;
  std::vector<Job*> jobs_;  // offered jobs not yet drained
  size_t job_rotor_ = 0;    // rotating scan start into jobs_
  bool shutdown_ = false;
};

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_SCHEDULER_H_
