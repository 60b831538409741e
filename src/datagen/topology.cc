#include "src/datagen/topology.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/common/rng.h"
#include "src/datagen/university.h"
#include "src/piazza/peer.h"

namespace revere::datagen {

namespace {

using piazza::PeerMapping;
using piazza::QualifiedName;
using query::ConjunctiveQuery;

}  // namespace

const std::vector<const char*>& RelationNamePool() {
  static const std::vector<const char*>* kNames =
      new std::vector<const char*>{"course",  "subject", "class",
                                   "corso",   "kurs",    "lecture",
                                   "offering", "unit"};
  return *kNames;
}

std::vector<std::pair<size_t, size_t>> TopologyEdges(
    const PdmsGenOptions& options, size_t n, Rng* rng) {
  std::vector<std::pair<size_t, size_t>> edges;
  switch (options.topology) {
    case Topology::kChain:
      for (size_t i = 1; i < n; ++i) edges.emplace_back(i - 1, i);
      break;
    case Topology::kStar:
      for (size_t i = 1; i < n; ++i) edges.emplace_back(0, i);
      break;
    case Topology::kRandom: {
      // Random spanning tree (each node attaches to a random earlier
      // one), then extra edges. Existence checks go through a set —
      // same edges, same RNG draw sequence as the old linear scan,
      // minus its O(n²·E) cost (which dominated at 1000 peers).
      std::set<std::pair<size_t, size_t>> have;
      for (size_t i = 1; i < n; ++i) {
        size_t parent = rng->Index(i);
        edges.emplace_back(parent, i);
        have.emplace(std::min(parent, i), std::max(parent, i));
      }
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          if (have.count({i, j}) == 0 &&
              rng->Bernoulli(options.extra_edge_prob)) {
            edges.emplace_back(i, j);
            have.emplace(i, j);
          }
        }
      }
      break;
    }
    case Topology::kSmallWorld: {
      // Watts–Strogatz: a ring lattice with `small_world_neighbors`
      // links per node (k/2 each side); every lattice edge beyond the
      // immediate ring is rewired to a uniform random endpoint with
      // probability `rewire_prob`. The d=1 ring is never rewired, so
      // the graph is connected by construction, and every draw comes
      // from `rng` — fixed seed, fixed graph.
      size_t k = std::max<size_t>(2, options.small_world_neighbors);
      if (k % 2 != 0) ++k;
      size_t half = std::min(k / 2, n >= 3 ? (n - 1) / 2 : 1);
      std::set<std::pair<size_t, size_t>> have;
      auto add = [&](size_t a, size_t b) {
        if (a == b) return false;
        auto key = std::minmax(a, b);
        if (!have.emplace(key.first, key.second).second) return false;
        edges.emplace_back(a, b);
        return true;
      };
      for (size_t d = 1; d <= half; ++d) {
        for (size_t i = 0; i < n; ++i) {
          size_t j = (i + d) % n;
          if (d >= 2 && rng->Bernoulli(options.rewire_prob)) {
            // Rewire the far end; retry on self-loops/duplicates, fall
            // back to the lattice edge when the node is saturated.
            bool placed = false;
            for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
              placed = add(i, rng->Index(n));
            }
            if (!placed) add(i, j);
          } else {
            add(i, j);
          }
        }
      }
      break;
    }
    case Topology::kScaleFree: {
      // Barabási–Albert preferential attachment: each new node links to
      // `scale_free_attach` distinct existing nodes, sampled with
      // probability proportional to current degree (the classic
      // repeated-endpoints trick). Connected by construction: every
      // node attaches to at least one earlier node.
      size_t m = std::max<size_t>(1, options.scale_free_attach);
      std::vector<size_t> endpoints;  // one entry per degree unit
      std::set<std::pair<size_t, size_t>> have;
      for (size_t i = 1; i < n; ++i) {
        size_t want = std::min(m, i);
        std::set<size_t> chosen;
        // Bounded rejection sampling; top up from the highest-degree
        // untried nodes if duplicates keep colliding (deterministic).
        size_t attempts = 0;
        while (chosen.size() < want && attempts < 16 * want) {
          ++attempts;
          size_t t = endpoints.empty() ? rng->Index(i)
                                       : endpoints[rng->Index(endpoints.size())];
          if (t != i) chosen.insert(t);
        }
        for (size_t t = 0; chosen.size() < want && t < i; ++t) chosen.insert(t);
        for (size_t t : chosen) {
          auto key = std::minmax(t, i);
          if (!have.emplace(key.first, key.second).second) continue;
          edges.emplace_back(t, i);
          endpoints.push_back(t);
          endpoints.push_back(i);
        }
      }
      break;
    }
    case Topology::kFigure2:
      // Figure 2 shows six universities with local mappings forming a
      // connected graph; the exact edge set is not specified in the
      // text, so we use the ring the drawing suggests plus the
      // Stanford-MIT chord: "as long as the mapping graph is connected,
      // any peer can access data at any other peer".
      edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 2}};
      break;
  }
  return edges;
}

Result<PdmsGenReport> BuildUniversityPdms(piazza::PdmsNetwork* net,
                                          const PdmsGenOptions& options) {
  PdmsGenReport report;
  Rng rng(options.seed);
  size_t n = options.topology == Topology::kFigure2 ? 6 : options.peers;
  if (n == 0) return Status::InvalidArgument("need at least one peer");

  if (options.topology == Topology::kFigure2) {
    report.peer_names = {"stanford", "oxford",   "mit",
                         "tsinghua", "roma",     "berkeley"};
  } else {
    for (size_t i = 0; i < n; ++i) {
      report.peer_names.push_back("peer" + std::to_string(i));
    }
  }
  const auto& pool = RelationNamePool();
  for (size_t i = 0; i < n; ++i) {
    report.relation_names.push_back(pool[i % pool.size()]);
  }

  // Peers + stored relations + data.
  for (size_t i = 0; i < n; ++i) {
    REVERE_ASSIGN_OR_RETURN(piazza::Peer * peer,
                            net->AddPeer(report.peer_names[i]));
    peer->DeclarePeerRelation(report.relation_names[i], 3);
    REVERE_ASSIGN_OR_RETURN(
        storage::Table * table,
        net->AddStoredRelation(
            report.peer_names[i],
            storage::TableSchema::AllStrings(
                report.relation_names[i], {"id", "title", "instructor"})));
    Rng data_rng = rng.Fork();
    std::vector<CourseRecord> courses =
        GenerateCourses(options.rows_per_peer, &data_rng);
    for (size_t r = 0; r < courses.size(); ++r) {
      // Globally unique ids: peer name prefixed.
      std::string id = report.peer_names[i] + "/" + std::to_string(r);
      REVERE_RETURN_IF_ERROR(
          table->Insert({storage::Value(id),
                         storage::Value(courses[r].title),
                         storage::Value(courses[r].instructor)}));
      ++report.total_rows;
    }
  }

  // Mappings along edges.
  for (const auto& [a, b] : TopologyEdges(options, n, &rng)) {
    std::string rel_a =
        QualifiedName(report.peer_names[a], report.relation_names[a]);
    std::string rel_b =
        QualifiedName(report.peer_names[b], report.relation_names[b]);
    auto source =
        ConjunctiveQuery::Parse("m(I, T, P) :- " + rel_a + "(I, T, P)");
    auto target =
        ConjunctiveQuery::Parse("m(I, T, P) :- " + rel_b + "(I, T, P)");
    if (!source.ok() || !target.ok()) {
      return Status::Internal("mapping parse failure");
    }
    REVERE_RETURN_IF_ERROR(net->AddMapping(
        PeerMapping{{report.peer_names[a] + "-" + report.peer_names[b],
                     source.value(), target.value()},
                    report.peer_names[a],
                    report.peer_names[b],
                    options.bidirectional}));
    ++report.mapping_count;
  }
  return report;
}

ConjunctiveQuery AllCoursesQuery(const PdmsGenReport& report,
                                 size_t peer_index) {
  std::string rel = QualifiedName(report.peer_names[peer_index],
                                  report.relation_names[peer_index]);
  auto q = ConjunctiveQuery::Parse("q(I, T, P) :- " + rel + "(I, T, P)");
  return q.ok() ? q.value() : ConjunctiveQuery();
}

}  // namespace revere::datagen
