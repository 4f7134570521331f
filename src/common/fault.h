#ifndef RELGO_COMMON_FAULT_H_
#define RELGO_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace relgo {
namespace fault {

/// Deterministic, seedable fault injection (ISSUE 8; the error-path twin
/// of the observability layer). The engines call MaybeInject() at the
/// places a production deployment would see real failures — morsel
/// execution, hash-table construction, sink finish, cache publication —
/// and the chaos suite (lifecycle_test.cc) arms the layer to drive every
/// error-return path systematically.
///
/// Design constraints, in order:
///  * Compiled-in, zero-overhead when disarmed: the fast path is one
///    relaxed atomic bool load and a predictable branch — no hashing, no
///    locks, no Status construction beyond the OK return the call sites
///    already pay for (RELGO_RETURN_NOT_OK materializes one either way).
///  * Deterministic and seedable: whether visit #n of site S faults is a
///    pure function of (seed, S, n) — SplitMix64 over the triple against
///    `probability`. Re-running a serial workload with the same seed
///    injects the same faults at the same visits. Under a concurrent
///    storm the per-site visit *sequence* is still deterministic; which
///    query observes a given visit depends on thread interleaving.
///  * Process-global: faults model an ambient environment (a failing
///    disk, an allocator under pressure), not per-query state, so one
///    armed configuration covers every Database in the process. Tests
///    that arm it must not run concurrently with unrelated suites —
///    gtest runs cases serially, and ScopedFault disarms on scope exit.
enum class Site : int {
  kMorselBoundary = 0,  ///< pipeline morsel start / materializing dispatch
  kHashBuild,           ///< join hash-table build (both engines)
  kHashFinalize,        ///< partitioned hash-table finalize (pipeline)
  kSinkFinish,          ///< breaker sink finish (merge/sort/build)
  kScanCachePublish,    ///< scan-cache filter-bitmap publication
};
inline constexpr int kNumSites = 5;

/// Stable lower-case site name ("morsel_boundary", ...), for messages
/// and the ARCHITECTURE.md fault-site inventory.
const char* SiteName(Site site);

struct Config {
  uint64_t seed = 0;
  /// Per-visit injection probability in [0, 1]; 1.0 faults every visit of
  /// every enabled site.
  double probability = 0.0;
  /// Bit (1 << site) enables that site; default all sites.
  uint32_t site_mask = 0xFFFFFFFFu;
};

namespace internal {
extern std::atomic<bool> g_armed;
Status MaybeInjectSlow(Site site);
}  // namespace internal

/// Arms the layer with `config`, resetting per-site visit counters and the
/// injected-fault counter so a fixed seed replays identically.
void Arm(const Config& config);
void Disarm();
bool Armed();

/// Faults injected since the last Arm().
uint64_t InjectedCount();
/// Visits MaybeInject() recorded for `site` since the last Arm() (visits
/// are only counted while armed — the disarmed fast path counts nothing).
uint64_t VisitCount(Site site);

/// The per-site hook: OK when disarmed (the common case — one relaxed
/// load), otherwise consults the deterministic decision function and
/// returns an injected kInternal status on a fault.
inline Status MaybeInject(Site site) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  return internal::MaybeInjectSlow(site);
}

/// True iff `status` was minted by MaybeInject — chaos assertions separate
/// injected faults from genuine internal errors by this predicate.
bool IsInjected(const Status& status);

/// Arms on construction, disarms on destruction (exception-/early-return
/// safe for tests).
class ScopedFault {
 public:
  explicit ScopedFault(const Config& config) { Arm(config); }
  ~ScopedFault() { Disarm(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace fault
}  // namespace relgo

#endif  // RELGO_COMMON_FAULT_H_
