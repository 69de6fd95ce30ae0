#include "src/linkage/dedup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"

namespace cbvlink {
namespace {

CbvHbConfig DedupConfig(const Schema& schema) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 3;
  return config;
}

TEST(DedupTest, CleanDataSetHasOnlySingletons) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(1);
  std::vector<Record> records;
  // Force distinct records by regenerating on (unlikely) collisions.
  for (size_t i = 0; i < 100; ++i) {
    Record r = gen.value().Generate(i, rng);
    records.push_back(std::move(r));
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Generated records can occasionally collide on all four attributes;
  // allow a couple of genuine duplicates but no mass merging.
  EXPECT_GE(result.value().clusters.size(), 95u);
}

TEST(DedupTest, PlantedDuplicatesAreClustered) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(2);
  std::vector<Record> records;
  for (size_t i = 0; i < 200; ++i) {
    records.push_back(gen.value().Generate(i, rng));
  }
  // Plant a triple: ids 500, 501, 502 are typo-variants of record 0.
  const PerturbationScheme scheme = PerturbationScheme::Light();
  for (RecordId id = 500; id < 503; ++id) {
    Result<Record> dup = Perturbator::Apply(records[0], scheme, rng, nullptr);
    ASSERT_TRUE(dup.ok());
    Record r = std::move(dup).value();
    r.id = id;
    records.push_back(std::move(r));
  }

  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok());

  // The cluster containing record 0 should include all three variants
  // (each variant is 1 edit from the original; variants are <= 2 edits
  // apart, still within theta = 4 bits per attribute most of the time —
  // require at least the originals' links).
  const std::vector<RecordId>* cluster0 = nullptr;
  for (const auto& cluster : result.value().clusters) {
    if (std::find(cluster.begin(), cluster.end(), 0u) != cluster.end()) {
      cluster0 = &cluster;
    }
  }
  ASSERT_NE(cluster0, nullptr);
  EXPECT_GE(cluster0->size(), 3u);
  for (RecordId id : {500u, 501u}) {
    const bool in_cluster0 =
        std::find(cluster0->begin(), cluster0->end(), id) != cluster0->end();
    EXPECT_TRUE(in_cluster0) << "variant " << id;
  }
}

TEST(DedupTest, PairsAreUnorderedAndUnique) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(3);
  std::vector<Record> records;
  for (size_t i = 0; i < 50; ++i) {
    records.push_back(gen.value().Generate(i % 10, rng));  // heavy dups
    records.back().id = i;
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok());
  std::set<std::pair<RecordId, RecordId>> seen;
  for (const IdPair& pair : result.value().duplicate_pairs) {
    EXPECT_NE(pair.a_id, pair.b_id);
    const auto key = std::minmax(pair.a_id, pair.b_id);
    EXPECT_TRUE(seen.insert(key).second)
        << pair.a_id << "," << pair.b_id << " reported twice";
  }
}

TEST(DedupTest, ClustersPartitionTheIds) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(4);
  std::vector<Record> records;
  for (size_t i = 0; i < 120; ++i) {
    records.push_back(gen.value().Generate(i % 40, rng));
    records.back().id = i;
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok());
  std::set<RecordId> covered;
  for (const auto& cluster : result.value().clusters) {
    for (RecordId id : cluster) {
      EXPECT_TRUE(covered.insert(id).second) << id << " in two clusters";
    }
  }
  EXPECT_EQ(covered.size(), records.size());
}

TEST(DedupTest, PropagatesConfigErrors) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = DedupConfig(gen.value().schema());
  config.rule = Rule::Pred(9, 4);
  Rng rng(5);
  std::vector<Record> records{gen.value().Generate(0, rng)};
  EXPECT_FALSE(FindDuplicates(records, config).ok());
}

TEST(DedupTest, RepeatedRecordIdIsRejected) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(6);
  std::vector<Record> records;
  for (RecordId id : {0u, 1u, 2u, 1u}) {
    records.push_back(gen.value().Generate(id, rng));
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("record id 1 "),
            std::string_view::npos)
      << result.status().ToString();
}

TEST(DedupTest, IdenticalAtAnyThreadCount) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(7);
  std::vector<Record> records;
  for (size_t i = 0; i < 300; ++i) {
    records.push_back(gen.value().Generate(i, rng));
  }
  // Plant typo-variants of the first 100 records.
  for (RecordId id = 300; id < 400; ++id) {
    Result<Record> dup = Perturbator::Apply(
        records[id - 300], PerturbationScheme::Light(), rng, nullptr);
    ASSERT_TRUE(dup.ok());
    records.push_back(std::move(dup).value());
    records.back().id = id;
  }
  const CbvHbConfig config = DedupConfig(gen.value().schema());
  Result<DedupResult> serial =
      FindDuplicates(records, config, ExecutionOptions::WithThreads(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial.value().duplicate_pairs.empty());
  for (size_t threads : {2u, 8u}) {
    Result<DedupResult> parallel = FindDuplicates(
        records, config, ExecutionOptions::WithThreads(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel.value().duplicate_pairs,
              serial.value().duplicate_pairs)
        << threads << " threads";
    EXPECT_EQ(parallel.value().clusters, serial.value().clusters)
        << threads << " threads";
    const MatchStats& a = parallel.value().stats;
    const MatchStats& b = serial.value().stats;
    EXPECT_EQ(a.candidate_occurrences, b.candidate_occurrences);
    EXPECT_EQ(a.comparisons, b.comparisons);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.dedup_skipped, b.dedup_skipped);
    EXPECT_EQ(parallel.value().blocking_groups,
              serial.value().blocking_groups);
  }
}

TEST(DedupTest, AttributeLevelBlockingFindsDuplicates) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = DedupConfig(gen.value().schema());
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Rng rng(9);
  std::vector<Record> records;
  for (size_t i = 0; i < 50; ++i) {
    records.push_back(gen.value().Generate(i, rng));
  }
  Record copy = records[0];
  copy.id = 77;
  records.push_back(std::move(copy));

  Result<DedupResult> result = FindDuplicates(records, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().blocking_groups, 0u);
  const std::vector<IdPair>& pairs = result.value().duplicate_pairs;
  EXPECT_NE(std::find(pairs.begin(), pairs.end(), IdPair{0, 77}),
            pairs.end());
}

}  // namespace
}  // namespace cbvlink
