#include "src/piazza/network_config.h"

#include <cstdlib>
#include <optional>

#include "src/common/strings.h"
#include "src/piazza/peer.h"
#include "src/query/glav.h"

namespace revere::piazza {

namespace {

struct PendingMapping {
  std::string name;
  std::string source_peer;
  std::string target_peer;
  bool bidirectional = false;
};

/// Applies one non-blank, non-comment config line to `network`.
Status LoadLine(const std::string& line,
                std::optional<PendingMapping>* pending, PdmsNetwork* network,
                FaultInjector* faults) {
  auto fail = [](std::string why) {
    return Status::ParseError(std::move(why));
  };
  if (pending->has_value()) {
    // This line must be the pending mapping's GLAV text.
    REVERE_ASSIGN_OR_RETURN(query::GlavMapping glav,
                            query::GlavMapping::Parse(line, (*pending)->name));
    PendingMapping p = std::move(**pending);
    pending->reset();
    return network->AddMapping(PeerMapping{std::move(glav), p.source_peer,
                                           p.target_peer, p.bidirectional});
  }

  std::vector<std::string> fields = SplitAny(line, " \t");
  const std::string& kind = fields[0];
  if (kind == "peer") {
    if (fields.size() != 2) return fail("peer needs a name");
    REVERE_RETURN_IF_ERROR(network->AddPeer(fields[1]).status());
  } else if (kind == "stored") {
    if (fields.size() < 4) {
      return fail("stored needs peer, relation, and columns");
    }
    storage::TableSchema schema = storage::TableSchema::AllStrings(
        fields[2],
        std::vector<std::string>(fields.begin() + 3, fields.end()));
    REVERE_RETURN_IF_ERROR(
        network->AddStoredRelation(fields[1], std::move(schema)).status());
  } else if (kind == "row") {
    if (fields.size() < 3) return fail("row needs peer and relation");
    std::string qualified = QualifiedName(fields[1], fields[2]);
    REVERE_ASSIGN_OR_RETURN(storage::Table * table,
                            network->mutable_storage()->GetTable(qualified));
    // Values follow after "<peer> <relation> ": quoted and
    // space-separated when the first one starts with '"', else bare
    // and separated by '|', with surrounding spaces trimmed.
    size_t peer_pos = line.find(fields[1], 3);  // after "row"
    size_t rel_pos = line.find(fields[2], peer_pos + fields[1].size());
    size_t prefix = rel_pos + fields[2].size();
    std::string values_part(Trim(line.substr(prefix)));
    storage::Row row;
    if (!values_part.empty() && values_part[0] == '"') {
      REVERE_ASSIGN_OR_RETURN(std::vector<std::string> values,
                              Tokenize(values_part));
      for (std::string& v : values) row.emplace_back(std::move(v));
    } else if (!values_part.empty()) {
      for (const std::string& v : Split(values_part, '|')) {
        row.emplace_back(std::string(Trim(v)));
      }
    }
    REVERE_RETURN_IF_ERROR(table->Insert(std::move(row)));
  } else if (kind == "mapping") {
    if (fields.size() < 4) {
      return fail("mapping needs name, source peer, target peer");
    }
    PendingMapping p;
    p.name = fields[1];
    p.source_peer = fields[2];
    p.target_peer = fields[3];
    p.bidirectional = fields.size() > 4 && fields[4] == "bidirectional";
    *pending = std::move(p);
  } else if (kind == "fault") {
    if (fields.size() < 3) return fail("fault needs peer and mode");
    if (faults == nullptr) {
      return fail("fault directive but no FaultInjector supplied");
    }
    if (!network->HasPeer(fields[1])) {
      return fail("fault names unknown peer '" + fields[1] + "'");
    }
    const std::string& mode = fields[2];
    // down takes no parameter; flaky/slow take one numeric parameter.
    if (mode == "down") {
      if (fields.size() != 3) return fail("fault ... down takes no value");
      faults->SetDown(fields[1]);
      return Status::Ok();
    }
    if (fields.size() != 4) {
      return fail("fault ... " + mode + " needs a numeric value");
    }
    char* end = nullptr;
    double value = std::strtod(fields[3].c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return fail("bad fault value '" + fields[3] + "'");
    }
    if (mode == "flaky") {
      faults->SetFlaky(fields[1], value);
    } else if (mode == "slow") {
      faults->SetSlow(fields[1], value);
    } else {
      return fail("unknown fault mode '" + mode + "'");
    }
  } else if (kind == "plan_cache") {
    if (fields.size() != 2) return fail("plan_cache needs a capacity");
    char* end = nullptr;
    unsigned long long value =  // NOLINT(runtime/int) — strtoull API
        std::strtoull(fields[1].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || fields[1].empty() ||
        fields[1][0] == '-') {
      return fail("bad plan_cache capacity '" + fields[1] + "'");
    }
    network->SetPlanCacheCapacity(static_cast<size_t>(value));
  } else {
    return fail("unknown directive '" + kind + "'");
  }
  return Status::Ok();
}

}  // namespace

Status LoadNetworkConfig(std::string_view config, PdmsNetwork* network,
                         FaultInjector* faults) {
  std::optional<PendingMapping> pending;
  size_t line_number = 0;
  for (const std::string& raw : Split(config, '\n')) {
    ++line_number;
    std::string line(Trim(raw));
    if (line.empty() || line[0] == '#') continue;
    Status status = LoadLine(line, &pending, network, faults);
    if (!status.ok()) {
      return Status(status.code(), "network config line " +
                                       std::to_string(line_number) + ": " +
                                       status.message());
    }
  }
  if (pending.has_value()) {
    return Status::ParseError("network config line " +
                              std::to_string(line_number) + ": mapping '" +
                              pending->name + "' is missing its GLAV line");
  }
  return Status::Ok();
}

std::string SaveNetworkConfig(const PdmsNetwork& network,
                              const FaultInjector* faults) {
  std::string out = "# REVERE network config v1\n";
  if (network.plan_cache_capacity() != kDefaultPlanCacheCapacity) {
    out += "plan_cache " + std::to_string(network.plan_cache_capacity()) +
           "\n";
  }
  for (const auto& name : network.PeerNames()) {
    out += "peer " + name + "\n";
  }
  for (const auto& table_name : network.storage().TableNames()) {
    auto table = network.storage().GetTable(table_name);
    if (!table.ok()) continue;
    auto [peer, relation] = SplitQualifiedName(table_name);
    out += "stored " + peer + " " + relation;
    for (const auto& col : table.value()->schema().columns()) {
      out += " " + col.name;
    }
    out += "\n";
    // Serialize from one pinned snapshot per table: a save racing a
    // writer emits a complete point-in-time version, never a torn row
    // (the pre-fix code iterated rows() unlocked).
    auto snap = table.value()->Snapshot();
    for (size_t r = 0; r < snap->size(); ++r) {
      const storage::Row& row = snap->row(r);
      out += "row " + peer + " " + relation;
      for (const storage::Value& v : row) {
        out += ' ';
        out += QuoteValue(v.ToString());
      }
      out += "\n";
    }
  }
  for (const auto& m : network.mappings()) {
    out += "mapping " + m.glav.name + " " + m.source_peer + " " +
           m.target_peer + (m.bidirectional ? " bidirectional" : "") + "\n";
    out += "  " + m.glav.source.ToString() + " => " +
           m.glav.target.ToString() + "\n";
  }
  if (faults != nullptr) {
    for (const auto& peer : faults->FaultyPeers()) {
      PeerFault fault = faults->GetFault(peer);
      out += "fault " + peer + " " + FaultModeToString(fault.mode);
      // The shortest exact form, so a load reads back the same double.
      if (fault.mode == FaultMode::kFlaky) {
        out += ' ';
        out += FormatDoubleExact(fault.failure_probability);
      } else if (fault.mode == FaultMode::kSlow) {
        out += ' ';
        out += FormatDoubleExact(fault.extra_latency_ms);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace revere::piazza
