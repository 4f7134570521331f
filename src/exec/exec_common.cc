#include "exec/exec_common.h"

#include <memory>

#include "common/fault.h"
#include "exec/scan_cache.h"
#include "exec/vector/compiled_expr.h"

namespace relgo {
namespace exec {

Result<SharedBitmap> FilterBitmap(const storage::TablePtr& table,
                                  const storage::ExprPtr& filter,
                                  ExecutionContext* ctx) {
  if (!filter) return SharedBitmap();

  // Replay an earlier query's bitmap for the same (table, predicate)
  // signature and table version, whichever operator computed it.
  ScanCache* cache = ctx->scan_cache();
  std::string key;
  uint64_t version = 0;
  if (cache != nullptr) {
    key = ScanCache::Key(table->name(), filter);
    version = table->version();
    if (ScanCache::BitmapPtr hit = cache->Get(key, version)) {
      ctx->CountScanCacheHit();
      return SharedBitmap(std::move(hit));
    }
  }

  // Bind a clone: the plan may share this expression tree with the query
  // it was optimized from, and concurrent executions of the same query
  // must not race on the column indexes Bind resolves.
  storage::ExprPtr bound = filter->Clone();
  RELGO_RETURN_NOT_OK(bound->Bind(table->schema()));

  auto bitmap = std::make_shared<std::vector<uint8_t>>();
  std::unique_ptr<vector::CompiledPredicate> compiled =
      vector::CompiledPredicate::Compile(*bound, table->schema(),
                                         table.get());
  if (compiled != nullptr) {
    std::vector<const storage::Column*> columns;
    columns.reserve(table->num_columns());
    for (size_t c = 0; c < table->num_columns(); ++c) {
      columns.push_back(&table->column(c));
    }
    compiled->FilterBitmap(columns.data(), table->num_rows(), bitmap.get());
  } else {
    bitmap->resize(table->num_rows());
    for (uint64_t r = 0; r < table->num_rows(); ++r) {
      (*bitmap)[r] = bound->EvaluateBool(*table, r) ? 1 : 0;
    }
  }

  if (cache != nullptr) {
    // Deferred publication (see ExecutionContext): visible to other
    // queries only once this query commits successfully.
    RELGO_RETURN_NOT_OK(
        fault::MaybeInject(fault::Site::kScanCachePublish));
    ctx->QueuePut(std::move(key), version, bitmap);
  }
  return SharedBitmap(std::move(bitmap));
}

}  // namespace exec
}  // namespace relgo
