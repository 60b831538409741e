#ifndef REVERE_STORAGE_CATALOG_H_
#define REVERE_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/table.h"

namespace revere::storage {

/// Owns a database's tables by name. Each REVERE peer holds one Catalog
/// for its stored relations.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; AlreadyExists if the name is taken.
  Result<Table*> CreateTable(TableSchema schema);

  /// Looks up a table; NotFound when absent.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  /// All table names, sorted (map keeps them ordered).
  std::vector<std::string> TableNames() const;

  size_t table_count() const { return tables_.size(); }

  /// Moves on every CreateTable and DropTable: Table pointers resolved
  /// at the current epoch are live and still what their names resolve to.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::atomic<uint64_t> epoch_{1};
};

}  // namespace revere::storage

#endif  // REVERE_STORAGE_CATALOG_H_
