#include "storage/catalog.h"

#include <algorithm>

namespace relgo {
namespace storage {

Result<TablePtr> Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_shared<Table>(name, std::move(schema));
  tables_[name] = table;
  return table;
}

Status Catalog::RegisterTable(TablePtr table) {
  if (!table) return Status::InvalidArgument("null table");
  if (tables_.count(table->name())) {
    return Status::AlreadyExists("table '" + table->name() + "' exists");
  }
  tables_[table->name()] = std::move(table);
  return Status::OK();
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return it->second;
}

Status Catalog::DropTable(const std::string& name) {
  if (!tables_.erase(name)) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return Status::OK();
}

std::vector<std::string> Catalog::ListTables() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

uint64_t Catalog::TotalRows() const {
  uint64_t total = 0;
  for (const auto& [_, t] : tables_) total += t->num_rows();
  return total;
}

}  // namespace storage
}  // namespace relgo
