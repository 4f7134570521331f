#include "exec/pipeline/scheduler.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/timer.h"

namespace relgo {
namespace exec {
namespace pipeline {

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int TaskScheduler::pool_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void TaskScheduler::SetAdmission(const AdmissionOptions& options) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    admission_ = options;
  }
  // A raised cap may unblock queued queries immediately.
  admit_cv_.notify_all();
}

AdmissionOptions TaskScheduler::admission() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return admission_;
}

int TaskScheduler::admitted_queries() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return admitted_;
}

int TaskScheduler::queued_queries() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return queued_;
}

Status TaskScheduler::AdmitQuery(uint64_t budget_ms,
                                 const std::atomic<bool>* cancel) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (admission_.max_concurrent_queries <= 0) {
    ++admitted_;  // disabled: admit unconditionally, still count
    return Status::OK();
  }
  if (admitted_ < admission_.max_concurrent_queries) {
    ++admitted_;
    return Status::OK();
  }
  if (queued_ >= admission_.max_queued) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(queued_) +
        " queries already waiting)");
  }
  ++queued_;
  // Never let a query burn more of its timeout budget queueing than it
  // could spend executing: the wait deadline is the smaller of the policy
  // bound and the remaining budget.
  uint64_t deadline_ms = admission_.max_wait_ms;
  if (budget_ms < deadline_ms) deadline_ms = budget_ms;
  Timer wait_timer;
  Status result = Status::OK();
  while (true) {
    if (admitted_ < admission_.max_concurrent_queries) {
      ++admitted_;
      break;
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      result = Status::Cancelled("query cancelled while queued");
      break;
    }
    if (wait_timer.ElapsedMillis() >= static_cast<double>(deadline_ms)) {
      result = Status::ResourceExhausted(
          "admission wait exceeded " + std::to_string(deadline_ms) + " ms");
      break;
    }
    // Short slices so a cancel flag flipped mid-wait is observed promptly
    // even if no ReleaseQuery ever notifies.
    admit_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
  --queued_;
  return result;
}

void TaskScheduler::ReleaseQuery() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (admitted_ > 0) --admitted_;
  }
  admit_cv_.notify_all();
}

void TaskScheduler::EnsureWorkersLocked(int wanted) {
  while (static_cast<int>(workers_.size()) < wanted) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

namespace {

/// The fan-out cutoff: a job is worth the pool only with a couple of
/// unclaimed tasks per worker — fewer buy only wakeup/context-switch churn.
bool WorthPool(uint64_t unclaimed, int max_workers) {
  return max_workers > 1 &&
         unclaimed >= static_cast<uint64_t>(max_workers) * 2;
}

}  // namespace

Status TaskScheduler::Run(uint64_t morsel_count, int max_workers,
                          const MorselFn& fn, int* workers_used) {
  // Nothing spawns, so the i-th claimed task is morsel i.
  std::atomic<uint64_t> next_morsel{0};
  return RunTasks(
      morsel_count, max_workers,
      [&](int slot, const Spawner&) {
        return fn(slot, next_morsel.fetch_add(1, std::memory_order_relaxed));
      },
      workers_used);
}

Status TaskScheduler::RunTasks(uint64_t initial_tasks, int max_workers,
                               const TaskFn& fn, int* workers_used) {
  if (workers_used != nullptr) *workers_used = 1;
  if (initial_tasks == 0) return Status::OK();
  Timer run_timer;
  Job job;
  job.fn = &fn;
  job.max_workers = max_workers < 1 ? 1 : max_workers;
  job.tasks.store(initial_tasks, std::memory_order_relaxed);
  if (WorthPool(initial_tasks, job.max_workers)) Offer(&job);

  // One loop for both paths: the submitting thread runs tasks until none
  // is claimable. A job that was never offered is then done (nobody else
  // ran it); an offered one waits for the pool workers to drain it — or
  // to spawn more tasks, which the owner then helps with.
  double wait_ms = 0.0;
  while (true) {
    WorkLoop(&job, 0);  // the submitting thread is the job's slot 0
    if (!job.offered) break;
    Timer wait_timer;
    std::unique_lock<std::mutex> lock(mu_);
    --job.executing;
    // Drained: no registered worker is still inside WorkLoop — fn and the
    // job handle live on this stack — and every task ran or the job
    // failed. Workers register under mu_ before executing, so this cannot
    // miss a late joiner; once the job leaves jobs_ below, no worker can
    // find it again, and with nobody executing nobody can spawn.
    auto drained = [&] {
      return job.executing == 0 &&
             (job.failed.load(std::memory_order_relaxed) ||
              job.completed.load(std::memory_order_acquire) ==
                  job.tasks.load(std::memory_order_acquire));
    };
    auto claimable = [&] {
      return !job.failed.load(std::memory_order_relaxed) &&
             job.next.load(std::memory_order_relaxed) <
                 job.tasks.load(std::memory_order_acquire);
    };
    job.owner_waiting = true;
    job.done_cv.wait(lock, [&] { return drained() || claimable(); });
    job.owner_waiting = false;
    wait_ms += wait_timer.ElapsedMillis();
    if (drained()) {
      jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
      if (metrics_.queue_depth != nullptr) {
        metrics_.queue_depth->Set(static_cast<int64_t>(jobs_.size()));
      }
      break;
    }
    ++job.executing;
  }

  if (metrics_.tasks != nullptr) {
    metrics_.tasks->Add(job.completed.load(std::memory_order_relaxed));
  }
  if (!job.offered) {
    if (metrics_.inline_jobs != nullptr) metrics_.inline_jobs->Increment();
    return job.error;
  }
  if (workers_used != nullptr) *workers_used = job.max_workers;
  if (metrics_.job_wait_ms != nullptr) metrics_.job_wait_ms->Record(wait_ms);
  if (metrics_.job_run_ms != nullptr) {
    metrics_.job_run_ms->Record(run_timer.ElapsedMillis());
  }
  return job.error;
}

void TaskScheduler::Offer(Job* job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->offered = true;
    // The pool grows to the largest fan-out any query requested; the
    // submitting thread takes slot 0, so max_workers - 1 pool threads
    // suffice.
    EnsureWorkersLocked(job->max_workers - 1);
    jobs_.push_back(job);
    if (metrics_.queue_depth != nullptr) {
      metrics_.queue_depth->Set(static_cast<int64_t>(jobs_.size()));
    }
    if (metrics_.pool_threads != nullptr) {
      metrics_.pool_threads->Set(static_cast<int64_t>(workers_.size()));
    }
  }
  if (metrics_.jobs != nullptr) metrics_.jobs->Increment();
  work_cv_.notify_all();
}

void TaskScheduler::AddTasks(Job* job, uint64_t n) {
  uint64_t total = job->tasks.fetch_add(n, std::memory_order_acq_rel) + n;
  if (!job->offered) {
    // Only the owner runs a job that was never offered, so only it gets
    // here and reads `offered` without the lock.
    if (WorthPool(total - job->next.load(std::memory_order_relaxed),
                  job->max_workers)) {
      Offer(job);
    }
    return;
  }
  // Pool workers that found the job dry have left it; call them back, and
  // the owner if it is blocked waiting for the job to drain.
  std::lock_guard<std::mutex> lock(mu_);
  if (job->owner_waiting) job->done_cv.notify_all();
  if (!job->free_slots.empty() || job->slots < job->max_workers) {
    work_cv_.notify_all();
  }
}

bool TaskScheduler::TryClaim(Job* job) {
  uint64_t n = job->next.load(std::memory_order_relaxed);
  while (n < job->tasks.load(std::memory_order_acquire)) {
    if (job->next.compare_exchange_weak(n, n + 1,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

TaskScheduler::Job* TaskScheduler::ClaimJobLocked(int* slot) {
  size_t n = jobs_.size();
  for (size_t i = 0; i < n; ++i) {
    // Rotate the scan start so pool threads spread across concurrent jobs
    // instead of convoying onto the oldest one.
    Job* job = jobs_[(job_rotor_ + i) % n];
    if (job->failed.load(std::memory_order_relaxed)) continue;
    if (job->next.load(std::memory_order_relaxed) >=
        job->tasks.load(std::memory_order_acquire)) {
      continue;
    }
    if (!job->free_slots.empty()) {
      *slot = job->free_slots.back();
      job->free_slots.pop_back();
    } else if (job->slots < job->max_workers) {
      *slot = job->slots++;
    } else {
      continue;
    }
    ++job->executing;
    ++job_rotor_;
    return job;
  }
  return nullptr;
}

void TaskScheduler::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    int slot = -1;
    Job* job = ClaimJobLocked(&slot);
    if (job == nullptr) {
      work_cv_.wait(lock);
      continue;
    }
    lock.unlock();
    WorkLoop(job, slot);
    lock.lock();
    // The slot's per-job state (sink partial, profile slot) passes to
    // whichever worker rejoins next, ordered by this mutex.
    job->free_slots.push_back(slot);
    if (--job->executing == 0) job->done_cv.notify_all();
  }
}

void TaskScheduler::WorkLoop(Job* job, int slot) {
  Spawner spawner(this, job);
  while (!job->failed.load(std::memory_order_relaxed) && TryClaim(job)) {
    Status st = (*job->fn)(slot, spawner);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      // Keep the first error only; later ones are usually cascades.
      if (!job->failed.load(std::memory_order_relaxed)) {
        job->error = std::move(st);
        job->failed.store(true, std::memory_order_relaxed);
      }
      return;
    }
    job->completed.fetch_add(1, std::memory_order_acq_rel);
  }
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo
