#include "src/storage/catalog.h"

namespace revere::storage {

Result<Table*> Catalog::CreateTable(TableSchema schema) {
  const std::string name = schema.name();  // copy: schema is moved below
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(std::move(schema));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return ptr;
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return it->second.get();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table '" + name + "'");
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

}  // namespace revere::storage
