// Multi-party linkage (Section 5.3): three hospital registries submit
// their records to Charlie, who identifies the common patients across
// every pair of custodians in a single blocking pass.

#include <cstdio>
#include <map>

#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"
#include "src/linkage/multi_party.h"

using namespace cbvlink;

int main() {
  Result<NcvrGenerator> generator = NcvrGenerator::Create();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }

  // Build three registries: 2,000 shared patients (with independent
  // single-typo corruption per registry) plus 1,000 unique per site.
  Rng rng(31);
  std::vector<Record> population;
  for (size_t i = 0; i < 2000; ++i) {
    population.push_back(generator.value().Generate(i, rng));
  }
  const PerturbationScheme scheme = PerturbationScheme::Light();
  std::vector<std::vector<Record>> hospitals(3);
  for (size_t h = 0; h < 3; ++h) {
    for (const Record& patient : population) {
      Result<Record> noisy = Perturbator::Apply(patient, scheme, rng, nullptr);
      if (!noisy.ok()) return 1;
      hospitals[h].push_back(std::move(noisy).value());  // keeps patient id
    }
    for (size_t i = 0; i < 1000; ++i) {
      Record unique = generator.value().Generate(100000 + h * 10000 + i, rng);
      unique.id = 2000 + i;  // ids only need uniqueness within a party
      hospitals[h].push_back(std::move(unique));
    }
  }
  std::printf("3 registries x %zu records (2000 shared patients each)\n",
              hospitals[0].size());

  CbvHbConfig config;
  config.schema = generator.value().schema();
  // Each side of a cross-registry pair carries one typo, so distances
  // can reach 2 edits per attribute: budget 8 bits (alpha = 4).
  config.rule = Rule::And({Rule::Pred(0, 8), Rule::Pred(1, 8),
                           Rule::Pred(2, 8), Rule::Pred(3, 8)});
  config.record_theta = 8;
  config.seed = 77;
  Result<MultiPartyLinker> linker = MultiPartyLinker::Create(std::move(config));
  if (!linker.ok()) {
    std::fprintf(stderr, "%s\n", linker.status().ToString().c_str());
    return 1;
  }
  Result<MultiPartyResult> result = linker.value().Link(hospitals);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  // Score per registry pair: a cross-match is true when both sides carry
  // the same shared-patient id (< 2000).
  std::map<std::pair<PartyId, PartyId>, std::pair<size_t, size_t>> per_pair;
  for (const MultiPartyMatch& m : result.value().matches) {
    auto& [true_hits, total] = per_pair[{m.party_a, m.party_b}];
    ++total;
    if (m.id_a == m.id_b && m.id_a < 2000) ++true_hits;
  }
  std::printf("\n%zu cross-registry matches, %llu comparisons, L = %zu\n",
              result.value().matches.size(),
              static_cast<unsigned long long>(
                  result.value().stats.comparisons),
              result.value().blocking_groups);
  for (const auto& [parties, counts] : per_pair) {
    std::printf(
        "  registries %zu-%zu: %zu matches, recall of shared patients "
        "%.3f\n",
        parties.first, parties.second, counts.second,
        static_cast<double>(counts.first) / 2000.0);
  }
  return 0;
}
