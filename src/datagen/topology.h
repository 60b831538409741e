#ifndef REVERE_DATAGEN_TOPOLOGY_H_
#define REVERE_DATAGEN_TOPOLOGY_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/piazza/pdms.h"

namespace revere::datagen {

/// PDMS overlay shapes for the scaling experiments (bench C3/R3) and
/// the Figure-2 reproduction (bench F2).
enum class Topology {
  kChain,      // p0 - p1 - ... - pn-1 (worst-case reformulation depth)
  kStar,       // hub p0 with n-1 spokes (what a mediated schema looks like)
  kRandom,     // random connected graph (spanning tree + extra edges)
  kFigure2,    // the paper's six universities, connected as drawn
  kSmallWorld, // Watts–Strogatz: ring lattice with rewired long links
               // (low diameter at high clustering — the thousand-peer
               // overlay the paper's §3 pruning argument assumes)
  kScaleFree,  // Barabási–Albert preferential attachment (hub-heavy
               // degree distribution, like real P2P overlays)
};

/// The one documented default for kRandom's extra (non-tree) edge
/// probability. Both PdmsGenOptions and the fuzzer's case generator
/// (GenerateCase) route through this constant (they used to drift:
/// 0.15 vs a hardcoded 0.25).
inline constexpr double kDefaultExtraEdgeProb = 0.15;

struct PdmsGenOptions {
  Topology topology = Topology::kChain;
  size_t peers = 6;            // ignored for kFigure2 (always 6)
  size_t rows_per_peer = 50;
  uint64_t seed = 1;
  /// kRandom: probability of each extra (non-tree) edge.
  double extra_edge_prob = kDefaultExtraEdgeProb;
  /// Use equality (bidirectional) mappings — like the paper's example
  /// where every university both shares and consumes courses.
  bool bidirectional = true;
  /// kSmallWorld: lattice neighbors per node (k, split k/2 each side;
  /// rounded up to the next even value ≥ 2). The immediate ring is
  /// never rewired, so the graph stays connected by construction.
  size_t small_world_neighbors = 4;
  /// kSmallWorld: probability each non-ring lattice edge is rewired to
  /// a uniform random endpoint (Watts–Strogatz β).
  double rewire_prob = 0.1;
  /// kScaleFree: edges each new node attaches with (Barabási–Albert m);
  /// clamped to the number of existing nodes.
  size_t scale_free_attach = 2;
};

/// The per-peer course-relation vocabulary pool ("course", "subject",
/// "corso", …) BuildUniversityPdms cycles through — exported so other
/// generators (the differential fuzzer) share the same vocabulary.
const std::vector<const char*>& RelationNamePool();

/// The undirected edge list of `options.topology` over `n` peers
/// (kRandom draws its spanning tree and extra edges from `rng`; the
/// other shapes ignore it). Exported so the fuzzer builds networks with
/// the same shapes the benchmarks sweep.
std::vector<std::pair<size_t, size_t>> TopologyEdges(
    const PdmsGenOptions& options, size_t n, Rng* rng);

/// Metadata about a generated network.
struct PdmsGenReport {
  std::vector<std::string> peer_names;
  /// Unqualified course-relation name at each peer (vocabulary varies).
  std::vector<std::string> relation_names;
  size_t total_rows = 0;
  size_t mapping_count = 0;
};

/// Populates `net` with a university PDMS: each peer stores one
/// course-like relation course(id, title, instructor) under a
/// peer-specific name, plus GLAV mappings along the topology's edges.
/// Every course id is globally unique, so a transitively complete
/// reformulation returns exactly `total_rows` answers — the ground
/// truth for completeness measurements.
Result<PdmsGenReport> BuildUniversityPdms(piazza::PdmsNetwork* net,
                                          const PdmsGenOptions& options);

/// The query "all courses, in peer `peer`'s vocabulary" for a network
/// built by BuildUniversityPdms.
query::ConjunctiveQuery AllCoursesQuery(const PdmsGenReport& report,
                                        size_t peer_index);

}  // namespace revere::datagen

#endif  // REVERE_DATAGEN_TOPOLOGY_H_
