#ifndef REVERE_PIAZZA_NETWORK_CONFIG_H_
#define REVERE_PIAZZA_NETWORK_CONFIG_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/piazza/fault.h"
#include "src/piazza/pdms.h"

namespace revere::piazza {

/// Loads a PDMS deployment from a line-oriented config — the shape a
/// real federation would check into version control. Directives:
///
///   peer <name>
///   stored <peer> <relation> <col1> <col2> ...
///   row <peer> <relation> "<v1>" "<v2>" ...
///   row <peer> <relation> <v1> | <v2> | ...
///   mapping <name> <source_peer> <target_peer> [bidirectional]
///       <glav: source_cq => target_cq>      (one following line)
///   fault <peer> down
///   fault <peer> flaky <failure_probability>
///   fault <peer> slow <extra_latency_ms>
///   plan_cache <capacity>
///
/// '#' starts a comment; blank lines are ignored. A `row` takes its
/// values either quoted (the form SaveNetworkConfig writes: `"` and
/// `\` backslash-escaped and a newline written as `\n`, so a value may
/// be empty or hold spaces, `|`, quotes or newlines) or bare and
/// separated by `|`, each trimmed of surrounding
/// spaces (a hand-written convenience; its first value must not start
/// with `"`). `fault` directives
/// (known-degraded peers in a deployment) are applied to `faults` and
/// are an error when no injector is supplied. `plan_cache` sizes the
/// network's reformulation plan cache in entries (0 disables it; the
/// directive is optional — the default is kDefaultPlanCacheCapacity).
/// Every error message starts with the line it comes from.
Status LoadNetworkConfig(std::string_view config, PdmsNetwork* network,
                         FaultInjector* faults = nullptr);

/// Serializes the network's peers, stored relations (with data), and
/// mappings back into the config format — plus `faults`'s injected
/// faults when given, their values in the shortest form that reads back
/// exactly. Round-trips with LoadNetworkConfig.
std::string SaveNetworkConfig(const PdmsNetwork& network,
                              const FaultInjector* faults = nullptr);

}  // namespace revere::piazza

#endif  // REVERE_PIAZZA_NETWORK_CONFIG_H_
