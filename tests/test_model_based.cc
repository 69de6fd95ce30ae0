// Model-based randomized tests: core containers are exercised against
// trivially correct reference implementations under long random
// operation sequences, and serialization layers are checked by
// write/read round-trip properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/random.h"
#include "src/eval/csv.h"
#include "src/io/csv_reader.h"
#include "src/lsh/blocking_table.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace {

TEST(BitVectorModelTest, RandomOpsAgreeWithVectorBool) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const size_t bits = 1 + rng.Below(300);
    BitVector bv(bits);
    std::vector<bool> model(bits, false);
    for (int op = 0; op < 500; ++op) {
      const size_t pos = rng.Below(bits);
      switch (rng.Below(3)) {
        case 0:
          bv.Set(pos);
          model[pos] = true;
          break;
        case 1:
          bv.Clear(pos);
          model[pos] = false;
          break;
        default: {
          const bool value = rng.NextBool(0.5);
          bv.Assign(pos, value);
          model[pos] = value;
          break;
        }
      }
    }
    size_t model_pop = 0;
    for (size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(bv.Test(i), model[i]) << "bit " << i;
      if (model[i]) ++model_pop;
    }
    EXPECT_EQ(bv.PopCount(), model_pop);
  }
}

TEST(BitVectorModelTest, HammingAgreesWithNaiveCount) {
  Rng rng(43);
  for (int round = 0; round < 30; ++round) {
    const size_t bits = 1 + rng.Below(250);
    BitVector a(bits);
    BitVector b(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng.NextBool(0.4)) a.Set(i);
      if (rng.NextBool(0.4)) b.Set(i);
    }
    size_t naive = 0;
    for (size_t i = 0; i < bits; ++i) {
      if (a.Test(i) != b.Test(i)) ++naive;
    }
    EXPECT_EQ(a.HammingDistance(b), naive);
    // Ranged distance over random sub-intervals.
    for (int probe = 0; probe < 10; ++probe) {
      const size_t offset = rng.Below(bits);
      const size_t length = rng.Below(bits - offset + 1);
      size_t naive_range = 0;
      for (size_t i = offset; i < offset + length; ++i) {
        if (a.Test(i) != b.Test(i)) ++naive_range;
      }
      EXPECT_EQ(a.HammingDistanceRange(b, offset, length), naive_range)
          << "offset=" << offset << " length=" << length;
    }
  }
}

TEST(BitVectorModelTest, AppendThenSliceIsIdentity) {
  Rng rng(44);
  for (int round = 0; round < 40; ++round) {
    const size_t bits_x = 1 + rng.Below(150);
    const size_t bits_y = 1 + rng.Below(150);
    BitVector x(bits_x);
    BitVector y(bits_y);
    for (size_t i = 0; i < bits_x; ++i) {
      if (rng.NextBool(0.5)) x.Set(i);
    }
    for (size_t i = 0; i < bits_y; ++i) {
      if (rng.NextBool(0.5)) y.Set(i);
    }
    BitVector joined = x;
    joined.Append(y);
    ASSERT_EQ(joined.size(), bits_x + bits_y);
    EXPECT_EQ(joined.Slice(0, bits_x), x);
    EXPECT_EQ(joined.Slice(bits_x, bits_y), y);
    EXPECT_EQ(joined.PopCount(), x.PopCount() + y.PopCount());
  }
}

TEST(BlockingTableModelTest, AgreesWithMultimap) {
  Rng rng(45);
  BlockingTable table;
  std::map<uint64_t, std::vector<uint32_t>> model;
  const auto expect_agrees = [&](int op) {
    EXPECT_EQ(table.NumBuckets(), model.size()) << "op " << op;
    size_t model_entries = 0;
    size_t model_max = 0;
    for (const auto& [key, bucket] : model) {
      model_entries += bucket.size();
      model_max = std::max(model_max, bucket.size());
      const auto actual = table.Get(key);
      ASSERT_EQ(actual.size(), bucket.size()) << "key " << key << " op " << op;
      for (size_t i = 0; i < bucket.size(); ++i) {
        EXPECT_EQ(actual[i], bucket[i]);
      }
    }
    EXPECT_EQ(table.NumEntries(), model_entries) << "op " << op;
    EXPECT_EQ(table.MaxBucketSize(), model_max) << "op " << op;
  };
  for (int op = 0; op < 2000; ++op) {
    const uint64_t key = rng.Below(50);
    const auto slot = static_cast<uint32_t>(rng.Below(200));
    if (op == 0 || rng.NextBool(0.03)) {
      // A bulk batch: the exact-layout build into an empty table, plain
      // inserts into a non-empty one.
      std::vector<uint64_t> keys;
      std::vector<uint32_t> slots;
      for (size_t n = 1 + rng.Below(40); n > 0; --n) {
        keys.push_back(rng.Below(50));
        slots.push_back(static_cast<uint32_t>(rng.Below(200)));
        model[keys.back()].push_back(slots.back());
      }
      table.BulkInsert(keys.data(), 1, slots);
      expect_agrees(op);
    } else if (rng.NextBool(0.01)) {
      table.Clear();
      model.clear();
    } else if (rng.NextBool(0.85)) {
      table.Insert(key, slot);
      model[key].push_back(slot);
    } else {
      table.Erase(slot);
      for (auto it = model.begin(); it != model.end();) {
        auto& bucket = it->second;
        bucket.erase(std::remove(bucket.begin(), bucket.end(), slot),
                     bucket.end());
        it = bucket.empty() ? model.erase(it) : std::next(it);
      }
    }
  }
  expect_agrees(2000);
}

TEST(CsvRoundTripTest, WriterOutputParsesBack) {
  Rng rng(46);
  const std::string path = UniqueTempPath("roundtrip.csv");
  std::vector<std::vector<std::string>> rows;
  {
    Result<CsvWriter> writer = CsvWriter::Open(path, {"id", "a", "b"});
    ASSERT_TRUE(writer.ok());
    for (int r = 0; r < 100; ++r) {
      std::vector<std::string> row;
      row.push_back(std::to_string(r));
      for (int c = 0; c < 2; ++c) {
        std::string field;
        const size_t len = rng.Below(12);
        for (size_t i = 0; i < len; ++i) {
          // Include the troublesome characters: comma, quote, letters.
          const char* charset = "ABC,\"XYZ ";
          field.push_back(charset[rng.Below(9)]);
        }
        row.push_back(std::move(field));
      }
      writer.value().WriteRow(row);
      rows.push_back(std::move(row));
    }
  }
  CsvReadOptions options;  // id column present
  Result<CsvDataset> dataset = ReadCsvDataset(path, options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset.value().records.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(dataset.value().records[r].id, r);
    ASSERT_EQ(dataset.value().records[r].fields.size(), 2u);
    EXPECT_EQ(dataset.value().records[r].fields[0], rows[r][1]) << r;
    EXPECT_EQ(dataset.value().records[r].fields[1], rows[r][2]) << r;
  }
}

}  // namespace
}  // namespace cbvlink
