#ifndef RELGO_STORAGE_CATALOG_H_
#define RELGO_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace relgo {
namespace storage {

/// Name -> table registry for base relations.
class Catalog {
 public:
  /// Creates and registers an empty table; fails if the name exists.
  Result<TablePtr> CreateTable(const std::string& name, Schema schema);

  /// Registers an existing table object.
  Status RegisterTable(TablePtr table);

  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const { return tables_.count(name); }
  Status DropTable(const std::string& name);

  std::vector<std::string> ListTables() const;

  /// Sum of rows across all registered tables (used in dataset statistics).
  uint64_t TotalRows() const;

 private:
  std::unordered_map<std::string, TablePtr> tables_;
};

}  // namespace storage
}  // namespace relgo

#endif  // RELGO_STORAGE_CATALOG_H_
