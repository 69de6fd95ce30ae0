#include "src/linkage/dedup.h"

#include <unordered_map>

#include "src/common/str.h"
#include "src/common/union_find.h"

namespace cbvlink {

Result<DedupResult> FindDuplicates(const std::vector<Record>& records,
                                   const CbvHbConfig& config) {
  return FindDuplicates(records, config, ExecutionOptions::Serial());
}

Result<DedupResult> FindDuplicates(const std::vector<Record>& records,
                                   const CbvHbConfig& config,
                                   const ExecutionOptions& options) {
  // Dense positions for the clustering below.  A repeated id would make
  // two records share one union-find set and one matcher slot.
  std::unordered_map<RecordId, size_t> position;
  position.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    if (!position.emplace(records[i].id, i).second) {
      return Status::InvalidArgument(
          StrFormat("record id %llu appears more than once",
                    static_cast<unsigned long long>(records[i].id)));
    }
  }

  std::vector<double> expected = config.expected_qgrams;
  if (expected.empty()) {
    if (records.empty()) {
      return Status::InvalidArgument(
          "deduplication needs expected_qgrams or a non-empty record set");
    }
    expected = EstimateExpectedQGrams(config.schema, records);
  }
  Rng rng(config.seed);
  Result<CbvHbParts> built = BuildCbvHbParts(config, expected, rng);
  if (!built.ok()) return built.status();
  CbvHbParts& parts = built.value();

  DedupResult result;
  result.blocking_groups = parts.blocking_groups();
  // Embedding is the parallel part; the match-then-insert stream is
  // order-dependent by construction and stays serial.
  ExecutionContext ctx(options);
  Result<std::vector<EncodedRecord>> encoded =
      parts.encoder.EncodeAll(records, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded.ok()) return encoded.status();
  // A record only probes those inserted before it, so each unordered
  // pair is considered at most once.
  VectorStore store;
  const Matcher matcher(&parts.source(), &store);
  Matcher::Scratch scratch;
  for (const EncodedRecord& record : encoded.value()) {
    matcher.MatchOne(record, parts.classifier, &result.duplicate_pairs,
                     &result.stats, &scratch);
    parts.Insert(record, store.Add(record));
  }

  // Consolidate pairwise matches into clusters over dense positions.
  UnionFind sets(records.size());
  for (const IdPair& pair : result.duplicate_pairs) {
    const auto a = position.find(pair.a_id);
    const auto b = position.find(pair.b_id);
    if (a != position.end() && b != position.end()) {
      sets.Union(a->second, b->second);
    }
  }
  for (const std::vector<size_t>& members : sets.Sets()) {
    std::vector<RecordId> cluster;
    cluster.reserve(members.size());
    for (size_t index : members) cluster.push_back(records[index].id);
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

}  // namespace cbvlink
