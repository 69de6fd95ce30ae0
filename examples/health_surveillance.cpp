// Health-surveillance streaming scenario (the introduction's motivating
// application): a registry of hospital patient records is indexed once;
// pharmacy records then arrive one at a time and are matched in real
// time against the registry using the compact 120-bit embeddings.
//
// Demonstrates the streaming API (LinkageService), per-event matching
// latency, and why small embeddings matter in distributed settings
// (bytes shipped per record).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/eval/measures.h"
#include "src/service/linkage_service.h"

using namespace cbvlink;

int main() {
  Result<NcvrGenerator> generator = NcvrGenerator::Create();
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }

  // Hospital registry (A) and a stream of pharmacy events (B): half the
  // events refer to registered patients, with typos.
  LinkagePairOptions options;
  options.num_records = 20000;
  options.seed = 11;
  Result<LinkagePair> data = BuildLinkagePair(
      generator.value(), PerturbationScheme::Light(), options);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  // One-time setup: the service estimates b^(f_i) from the registry,
  // sizes the c-vectors with Theorem 1, and builds the HB blocking
  // groups (Equation 2).
  CbvHbConfig config;
  config.schema = generator.value().schema();
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 23;
  Result<std::unique_ptr<LinkageService>> created =
      LinkageService::Create(std::move(config), {}, data.value().a);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  LinkageService& service = *created.value();

  Stopwatch setup;
  const Status indexed = service.InsertBatch(data.value().a);
  if (!indexed.ok()) {
    std::fprintf(stderr, "%s\n", indexed.ToString().c_str());
    return 1;
  }
  std::printf("Registry indexed: %zu patients in %.2f s "
              "(%zu bits/record on the wire, L = %zu groups)\n",
              service.size(), setup.ElapsedSeconds(),
              service.encoder().total_bits(), service.blocking_groups());

  // The stream: match each pharmacy event as it arrives.
  std::vector<IdPair> alerts;
  Stopwatch stream;
  double worst_ms = 0.0;
  for (const Record& event : data.value().b) {
    Stopwatch one;
    const Status status = service.Match(event, &alerts);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    worst_ms = std::max(worst_ms, one.ElapsedMillis());
  }
  const double total_s = stream.ElapsedSeconds();

  const uint64_t comparisons = service.metrics().comparisons;
  const PairSet truth = TruthPairs(data.value().truth);
  const QualityMeasures q = ComputeQuality(
      alerts, truth, comparisons,
      data.value().a.size(), data.value().b.size());

  std::printf("\nStream processed: %zu events in %.2f s "
              "(%.0f events/s, worst event %.2f ms)\n",
              data.value().b.size(), total_s,
              static_cast<double>(data.value().b.size()) / total_s, worst_ms);
  std::printf("Alerts raised: %zu (recall %.3f, candidate comparisons "
              "%llu of %.0f possible)\n",
              alerts.size(), q.pairs_completeness,
              static_cast<unsigned long long>(comparisons),
              static_cast<double>(data.value().a.size()) *
                  static_cast<double>(data.value().b.size()));
  return 0;
}
