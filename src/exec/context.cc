#include "exec/context.h"

#include "exec/scan_cache.h"

namespace relgo {
namespace exec {

void ExecutionContext::CommitScanCachePublications() {
  std::vector<PendingCachePut> puts;
  {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    puts.swap(pending_puts_);
  }
  if (scan_cache_ == nullptr) return;
  for (auto& put : puts) {
    scan_cache_->Put(put.key, put.version, std::move(put.bitmap));
  }
}

}  // namespace exec
}  // namespace relgo
