// Experiment C11 (§4.4 extension): "facilitating the querying of
// unfamiliar data ... a tool that uses the corpus to propose
// reformulations of the user's query that are well formed w.r.t. the
// schema at hand."
//
// A user poses queries against a schema they have never seen, using
// vocabulary drawn from the canonical domain model while the actual
// schema is a perturbed variant (synonyms, abbreviations). Measures the
// fraction of queries the assistant repairs to the right relation and
// the answering overhead. Expected shape: repair rate stays high under
// synonym+abbreviation noise when the assistant has the synonym table;
// drops without it (the ablation).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/advisor/query_assistant.h"
#include "src/common/strings.h"
#include "src/datagen/university.h"
#include "src/query/cq.h"
#include "src/storage/catalog.h"
#include "src/text/synonyms.h"

namespace {

using revere::advisor::QueryAssistant;
using revere::advisor::QueryAssistantOptions;
using revere::advisor::QuerySuggestion;
using revere::datagen::GeneratedSchema;
using revere::datagen::UniversityGenerator;
using revere::datagen::UniversityGenOptions;
using revere::query::ConjunctiveQuery;
using revere::storage::Catalog;
using revere::storage::TableSchema;

// Builds a catalog holding one generated (perturbed) schema; returns the
// canonical->actual relation name map for scoring.
struct Scenario {
  Catalog catalog;
  std::vector<std::pair<std::string, std::string>> canonical_to_actual;
  std::vector<size_t> arities;
};

void BuildScenario(double perturbation, uint64_t seed, Scenario* out) {
  UniversityGenOptions options;
  options.seed = seed;
  options.synonym_prob = perturbation;
  options.abbrev_prob = perturbation * 0.7;
  options.drop_attr_prob = 0.0;  // keep arities predictable per relation
  options.extra_attr_prob = 0.0;
  options.split_ta_prob = 1.0;
  UniversityGenerator generator(options);
  GeneratedSchema g = generator.GenerateSchema("target");
  const char* canonical_names[] = {"course", "ta", "person"};
  for (size_t r = 0; r < g.schema.relations.size(); ++r) {
    const auto& rel = g.schema.relations[r];
    (void)out->catalog.CreateTable(
        TableSchema::AllStrings(rel.name, rel.attributes));
    out->canonical_to_actual.emplace_back(canonical_names[r], rel.name);
    out->arities.push_back(rel.attributes.size());
  }
}

// arg0: perturbation percent; arg1: synonyms available (0/1).
void BM_QueryRepairRate(benchmark::State& state) {
  Scenario scenario;
  double repaired = 0.0;
  double total = 0.0;
  revere::text::SynonymTable table =
      revere::text::SynonymTable::UniversityDomainDefaults();
  for (auto _ : state) {
    repaired = 0.0;
    total = 0.0;
    // 20 deterministic scenarios per iteration.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      Scenario s;
      BuildScenario(static_cast<double>(state.range(0)) / 100.0, seed, &s);
      QueryAssistantOptions opts;
      if (state.range(1) != 0) {
        opts.name_options.use_synonyms = true;
        opts.name_options.synonyms = &table;
      }
      QueryAssistant assistant(&s.catalog, opts);
      for (size_t r = 0; r < s.canonical_to_actual.size(); ++r) {
        // The user queries with the canonical relation name.
        std::string head_vars, body_vars;
        for (size_t i = 0; i < s.arities[r]; ++i) {
          if (i > 0) body_vars += ", ";
          body_vars += revere::Numbered("X", i);
        }
        auto q = ConjunctiveQuery::Parse(
            "q(X0) :- " + s.canonical_to_actual[r].first + "(" + body_vars +
            ")");
        if (!q.ok()) continue;
        ++total;
        auto suggestions = assistant.Reformulate(q.value());
        if (!suggestions.empty() &&
            suggestions[0].query.body()[0].relation ==
                s.canonical_to_actual[r].second) {
          ++repaired;
        }
      }
    }
    benchmark::DoNotOptimize(repaired);
  }
  state.SetLabel(state.range(1) ? "with-synonyms" : "names-only");
  state.counters["repair_rate"] = total == 0.0 ? 0.0 : repaired / total;
  state.counters["queries"] = total;
}
BENCHMARK(BM_QueryRepairRate)
    ->ArgsProduct({{0, 30, 60}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
