// Cross-cutting edge cases that don't belong to a single module's suite:
// empty inputs through every pipeline, zero-width serialization,
// non-ASCII bytes, and deep rule nesting.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/datagen/generators.h"
#include "src/io/csv_reader.h"
#include "src/io/serialization.h"
#include "src/linkage/bfh_linker.h"
#include "src/linkage/cbv_hb_linker.h"
#include "src/linkage/harra_linker.h"
#include "src/lsh/params.h"
#include "src/rules/rule_parser.h"
#include "src/text/normalize.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace {

TEST(EdgeCaseTest, HarraLinksEmptySets) {
  Result<HarraLinker> linker = HarraLinker::Create(HarraConfig{});
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link({}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());
  EXPECT_EQ(result.value().stats.comparisons, 0u);
}

TEST(EdgeCaseTest, BfhLinksEmptySets) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  BfhConfig config;
  config.schema = gen.value().schema();
  config.rule = Rule::Pred(0, 45);
  Result<BfhLinker> linker = BfhLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link({}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());
}

TEST(EdgeCaseTest, HarraOneSidedData) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(1);
  std::vector<Record> a{gen.value().Generate(0, rng)};
  Result<HarraLinker> linker = HarraLinker::Create(HarraConfig{});
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(a, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().matches.empty());
}

TEST(EdgeCaseTest, ZeroWidthSerializationRoundTrips) {
  std::vector<EncodedRecord> records(3);
  for (RecordId id = 0; id < 3; ++id) {
    records[id].id = id;
    records[id].bits = BitVector(0);
  }
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords(records, stream).ok());
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(stream);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value()[2].id, 2u);
  EXPECT_EQ(loaded.value()[2].bits.size(), 0u);
}

TEST(EdgeCaseTest, NormalizeDropsNonAsciiBytes) {
  // UTF-8 'é' (0xC3 0xA9) and a control byte are outside every alphabet.
  const std::string raw = "JOS\xC3\xA9\x01 II";
  EXPECT_EQ(Normalize(raw, Alphabet::Uppercase()), "JOSII");
  EXPECT_EQ(Normalize(raw, Alphabet::Alphanumeric()), "JOS II");
}

TEST(EdgeCaseTest, HeaderOnlyCsvYieldsNoRecords) {
  const std::string path = UniqueTempPath("header_only.csv");
  {
    std::ofstream out(path);
    out << "id,first,last\n";
  }
  Result<CsvDataset> dataset = ReadCsvDataset(path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_TRUE(dataset.value().records.empty());
  EXPECT_EQ(dataset.value().attribute_names.size(), 2u);
}

TEST(EdgeCaseTest, DeeplyNestedRuleParsesAndEvaluates) {
  // 40 levels of parentheses and alternating operators.
  std::string text = "f1 <= 1";
  for (int i = 0; i < 40; ++i) {
    text = "(" + text + (i % 2 == 0 ? " AND f2 <= 2" : " OR f3 <= 3") + ")";
  }
  Result<Rule> rule = ParseRule(text);
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule.value().Validate(3).ok());
  // Distances satisfying f3 <= 3 make every OR level true.
  EXPECT_TRUE(rule.value().Evaluate([](size_t attr) {
    return attr == 2 ? size_t{0} : size_t{100};
  }));
  // Nothing satisfied -> false.
  EXPECT_FALSE(rule.value().Evaluate([](size_t) { return size_t{100}; }));
}

TEST(EdgeCaseTest, OptimalGroupsAtProbabilityExtremes) {
  // p^K barely below 1: one group suffices.
  EXPECT_EQ(OptimalGroupsFromComposite(0.999999, 0.1).value(), 1u);
  // delta close to 1: one group suffices even for small p.
  EXPECT_EQ(OptimalGroupsFromComposite(0.5, 0.9).value(), 1u);
}

TEST(EdgeCaseTest, RecordsWithIdenticalIdsAcrossSetsAreDistinct) {
  // A and B id spaces may legally overlap; matches reference (a_id,
  // b_id) so the pair is unambiguous.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(2);
  Record shared = gen.value().Generate(7, rng);
  std::vector<Record> a{shared};
  std::vector<Record> b{shared};  // same id 7, same content

  CbvHbConfig config;
  config.schema = gen.value().schema();
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(a, b);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().matches.size(), 1u);
  EXPECT_EQ(result.value().matches[0].a_id, 7u);
  EXPECT_EQ(result.value().matches[0].b_id, 7u);
}

}  // namespace
}  // namespace cbvlink
