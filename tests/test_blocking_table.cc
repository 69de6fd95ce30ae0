#include "src/lsh/blocking_table.h"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "src/common/random.h"

namespace cbvlink {
namespace {

TEST(BlockingTableTest, EmptyTable) {
  BlockingTable table;
  EXPECT_EQ(table.NumBuckets(), 0u);
  EXPECT_EQ(table.NumEntries(), 0u);
  EXPECT_EQ(table.MaxBucketSize(), 0u);
  EXPECT_TRUE(table.Get(42).empty());
}

TEST(BlockingTableTest, InsertAndGet) {
  BlockingTable table;
  table.Insert(1, 100);
  table.Insert(1, 101);
  table.Insert(2, 102);
  EXPECT_EQ(table.NumBuckets(), 2u);
  EXPECT_EQ(table.NumEntries(), 3u);
  EXPECT_EQ(table.MaxBucketSize(), 2u);
  const auto bucket = table.Get(1);
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0], 100u);
  EXPECT_EQ(bucket[1], 101u);
  EXPECT_EQ(table.Get(2).size(), 1u);
  EXPECT_TRUE(table.Get(3).empty());
}

TEST(BlockingTableTest, DuplicateIdsAllowedInBucket) {
  BlockingTable table;
  table.Insert(5, 7);
  table.Insert(5, 7);
  EXPECT_EQ(table.Get(5).size(), 2u);
}

TEST(BlockingTableTest, ClearEmptiesEverything) {
  BlockingTable table;
  table.Insert(1, 1);
  table.Insert(2, 2);
  table.Clear();
  EXPECT_EQ(table.NumBuckets(), 0u);
  EXPECT_TRUE(table.Get(1).empty());
}

TEST(BlockingTableTest, EraseRemovesIdEverywhere) {
  BlockingTable table;
  table.Insert(1, 7);
  table.Insert(1, 8);
  table.Insert(2, 7);
  table.Erase(7);
  EXPECT_EQ(table.Get(1).size(), 1u);
  EXPECT_EQ(table.Get(1)[0], 8u);
  // Bucket 2 became empty and was dropped.
  EXPECT_TRUE(table.Get(2).empty());
  EXPECT_EQ(table.NumBuckets(), 1u);
}

TEST(BlockingTableTest, EraseUnknownIdIsNoOp) {
  BlockingTable table;
  table.Insert(1, 7);
  table.Erase(99);
  EXPECT_EQ(table.NumEntries(), 1u);
}

TEST(BlockingTableTest, MeanBucketSize) {
  BlockingTable table;
  EXPECT_DOUBLE_EQ(table.MeanBucketSize(), 0.0);
  table.Insert(1, 100);
  table.Insert(1, 101);
  table.Insert(1, 102);
  table.Insert(2, 103);
  EXPECT_DOUBLE_EQ(table.MeanBucketSize(), 2.0);  // 4 entries / 2 buckets
}

TEST(BlockingTableTest, OccupancyHistogramLog2Slots) {
  BlockingTable table;
  table.Insert(1, 1);                              // size 1 -> slot 0
  for (int i = 0; i < 3; ++i) table.Insert(2, i);  // size 3 -> slot 1
  for (int i = 0; i < 4; ++i) table.Insert(3, i);  // size 4 -> slot 2
  const std::vector<uint64_t> histogram = table.OccupancyHistogram(16);
  ASSERT_EQ(histogram.size(), 16u);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 1u);
  EXPECT_EQ(histogram[2], 1u);
  for (size_t i = 3; i < histogram.size(); ++i) EXPECT_EQ(histogram[i], 0u);
}

TEST(BlockingTableTest, OccupancyHistogramClampsToLastSlot) {
  BlockingTable table;
  for (int i = 0; i < 100; ++i) table.Insert(7, i);  // log2(100) = 6 > 3
  const std::vector<uint64_t> histogram = table.OccupancyHistogram(4);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[3], 1u);
}

TEST(BlockingTableTest, BucketsIterable) {
  BlockingTable table;
  table.Insert(1, 10);
  table.Insert(2, 20);
  table.Insert(2, 21);
  std::map<uint64_t, std::vector<uint32_t>> seen;
  table.ForEachBucket([&](uint64_t key, std::span<const uint32_t> bucket) {
    seen[key].assign(bucket.begin(), bucket.end());
  });
  const std::map<uint64_t, std::vector<uint32_t>> expected = {
      {1, {10}}, {2, {20, 21}}};
  EXPECT_EQ(seen, expected);
}

TEST(BlockingTableTest, GetOnEmptyAndAbsentKey) {
  BlockingTable table;
  EXPECT_TRUE(table.Get(0).empty());
  EXPECT_TRUE(table.Get(~uint64_t{0}).empty());
  table.Insert(0, 5);
  EXPECT_EQ(table.Get(0).size(), 1u);
  EXPECT_TRUE(table.Get(1).empty());
  EXPECT_TRUE(table.Get(~uint64_t{0}).empty());
}

TEST(BlockingTableTest, ProbeBucketsEmitsGetOrderAcrossChunks) {
  // 150 probes (three chunks) alternating between a default table and a
  // filled one, over present and absent keys: the emitted spans are the
  // non-empty Get() results, in probe order.  The default table has no
  // slot array, where hashing a key would shift a 64-bit value by 64.
  const BlockingTable empty;
  BlockingTable filled;
  for (uint64_t key = 0; key < 40; ++key) {
    for (uint32_t id = 0; id <= key % 3; ++id) {
      filled.Insert(key, key * 10 + id);
    }
  }
  const auto probe_at = [&](size_t j) {
    return BucketProbe{j % 2 == 0 ? &empty : &filled, (j * 7) % 60};
  };
  constexpr size_t kProbes = 150;
  static_assert(kProbes > 2 * kProbeChunk);
  std::vector<std::vector<uint32_t>> expected;
  for (size_t j = 0; j < kProbes; ++j) {
    const BucketProbe p = probe_at(j);
    const std::span<const uint32_t> bucket = p.table->Get(p.key);
    if (!bucket.empty()) expected.emplace_back(bucket.begin(), bucket.end());
  }
  std::vector<std::vector<uint32_t>> emitted;
  ProbeBuckets(kProbes, probe_at, [&](std::span<const uint32_t> bucket) {
    emitted.emplace_back(bucket.begin(), bucket.end());
  });
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(emitted, expected);

  ProbeBuckets(0, probe_at, [](std::span<const uint32_t>) { FAIL(); });
}

TEST(BlockingTableTest, EqualityIgnoresLayoutButNotIdOrder) {
  BlockingTable x;
  BlockingTable y;
  x.Insert(1, 10);
  x.Insert(2, 20);
  x.Insert(1, 11);
  // Same buckets reached in another key order (different arena layout).
  y.Insert(2, 20);
  y.Insert(1, 10);
  y.Insert(1, 11);
  EXPECT_TRUE(x == y);
  BlockingTable z;
  z.Insert(1, 11);
  z.Insert(1, 10);
  z.Insert(2, 20);
  EXPECT_FALSE(x == z);  // bucket 1 holds the same Ids in another order
  z.Clear();
  EXPECT_FALSE(x == z);
  EXPECT_TRUE(z == BlockingTable());
}

TEST(BlockingTableTest, BulkThenStreamingEqualsStreamingAlone) {
  // A bulk-built arena is exact (every bucket full), so the first
  // streaming insert into any bulk bucket must relocate it; a relocation
  // that overwrote the neighbouring bucket would show up here.
  Rng rng(7);
  std::vector<uint64_t> keys;
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < 500; ++id) {
    keys.push_back(rng.Below(40));
    ids.push_back(id);
  }
  BlockingTable bulk;
  bulk.BulkInsert(keys.data(), 1, ids);
  BlockingTable streamed;
  for (size_t i = 0; i < ids.size(); ++i) streamed.Insert(keys[i], ids[i]);
  EXPECT_TRUE(bulk == streamed);

  for (uint32_t id = 500; id < 1500; ++id) {
    const uint64_t key = rng.Below(60);  // existing keys 0..39, new 40..59
    bulk.Insert(key, id);
    streamed.Insert(key, id);
  }
  EXPECT_TRUE(bulk == streamed);
  EXPECT_EQ(bulk.NumBuckets(), streamed.NumBuckets());
  EXPECT_EQ(bulk.NumEntries(), 1500u);
  EXPECT_EQ(bulk.MaxBucketSize(), streamed.MaxBucketSize());
  EXPECT_EQ(bulk.OccupancyHistogram(), streamed.OccupancyHistogram());
}

TEST(BlockingTableTest, GrowsPastSixtyFourThousandKeys) {
  constexpr uint64_t kKeys = (uint64_t{1} << 16) + 1000;
  std::vector<uint64_t> keys;
  std::vector<uint32_t> ids;
  for (uint64_t k = 0; k < kKeys; ++k) {
    // Two Ids per key; sequential keys stress the slot hash.
    keys.push_back(k);
    keys.push_back(k);
    ids.push_back(2 * k);
    ids.push_back(2 * k + 1);
  }
  BlockingTable bulk;
  bulk.BulkInsert(keys.data(), 1, ids);
  BlockingTable streamed;
  for (size_t i = 0; i < ids.size(); ++i) streamed.Insert(keys[i], ids[i]);
  for (const BlockingTable* table : {&bulk, &streamed}) {
    EXPECT_EQ(table->NumBuckets(), kKeys);
    EXPECT_EQ(table->NumEntries(), 2 * kKeys);
    EXPECT_EQ(table->MaxBucketSize(), 2u);
    for (uint64_t k = 0; k < kKeys; ++k) {
      const std::span<const uint32_t> bucket = table->Get(k);
      ASSERT_EQ(bucket.size(), 2u) << "key " << k;
      EXPECT_EQ(bucket[0], 2 * k);
      EXPECT_EQ(bucket[1], 2 * k + 1);
    }
    EXPECT_TRUE(table->Get(kKeys).empty());
  }
  EXPECT_TRUE(bulk == streamed);
}

}  // namespace
}  // namespace cbvlink
