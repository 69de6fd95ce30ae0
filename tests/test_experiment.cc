#include "src/eval/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/eval/csv.h"
#include "src/linkage/cbv_hb_linker.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace {

CbvHbConfig SmallConfig(const Schema& schema, uint64_t seed) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = seed;
  return config;
}

TEST(RunLinkageTest, ProducesScoredResult) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 400;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  Result<CbvHbLinker> linker =
      CbvHbLinker::Create(SmallConfig(gen.value().schema(), 1));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result =
      RunLinkage(linker.value(), data.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().method, "cBV-HB");
  EXPECT_GE(result.value().quality.pairs_completeness, 0.0);
  EXPECT_LE(result.value().quality.pairs_completeness, 1.0);
  EXPECT_GT(result.value().linkage.blocking_groups, 0u);
}

TEST(AverageTest, EmptyInput) {
  const AveragedResult avg = Average({});
  EXPECT_EQ(avg.repetitions, 0u);
  EXPECT_DOUBLE_EQ(avg.pairs_completeness, 0.0);
}

TEST(AverageTest, MeansComputedCorrectly) {
  ExperimentResult r1;
  r1.quality.pairs_completeness = 0.8;
  r1.quality.pairs_quality = 0.4;
  r1.linkage.embed_seconds = 1.0;
  r1.linkage.stats.comparisons = 100;
  ExperimentResult r2;
  r2.quality.pairs_completeness = 1.0;
  r2.quality.pairs_quality = 0.6;
  r2.linkage.embed_seconds = 3.0;
  r2.linkage.stats.comparisons = 300;
  const AveragedResult avg = Average({r1, r2});
  EXPECT_DOUBLE_EQ(avg.pairs_completeness, 0.9);
  EXPECT_DOUBLE_EQ(avg.pairs_quality, 0.5);
  EXPECT_DOUBLE_EQ(avg.embed_seconds, 2.0);
  EXPECT_DOUBLE_EQ(avg.comparisons, 200.0);
  EXPECT_EQ(avg.repetitions, 2u);
}

TEST(RunRepeatedTest, AveragesAcrossFreshSeeds) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 250;
  const Schema schema = gen.value().schema();
  Result<AveragedResult> avg = RunRepeated(
      gen.value(), PerturbationScheme::Light(), options, 2,
      [&](uint64_t seed) -> Result<std::unique_ptr<Linker>> {
        Result<CbvHbLinker> linker =
            CbvHbLinker::Create(SmallConfig(schema, seed));
        if (!linker.ok()) return linker.status();
        return std::unique_ptr<Linker>(
            new CbvHbLinker(std::move(linker).value()));
      });
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  EXPECT_EQ(avg.value().repetitions, 2u);
  EXPECT_GT(avg.value().pairs_completeness, 0.5);
}

TEST(RunRepeatedTest, FactoryErrorsPropagate) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 50;
  Result<AveragedResult> avg = RunRepeated(
      gen.value(), PerturbationScheme::Light(), options, 2,
      [&](uint64_t) -> Result<std::unique_ptr<Linker>> {
        return Status::Internal("factory exploded");
      });
  EXPECT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kInternal);
}

TEST(RunRepeatedTest, DataGenerationErrorsPropagate) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 0;  // invalid
  const Schema schema = gen.value().schema();
  Result<AveragedResult> avg = RunRepeated(
      gen.value(), PerturbationScheme::Light(), options, 1,
      [&](uint64_t seed) -> Result<std::unique_ptr<Linker>> {
        Result<CbvHbLinker> linker =
            CbvHbLinker::Create(SmallConfig(schema, seed));
        if (!linker.ok()) return linker.status();
        return std::unique_ptr<Linker>(
            new CbvHbLinker(std::move(linker).value()));
      });
  EXPECT_FALSE(avg.ok());
}

TEST(EnvHelpersTest, FallbacksApply) {
  unsetenv("CBVLINK_RECORDS");
  EXPECT_EQ(RecordsFromEnv(1234), 1234u);
  setenv("CBVLINK_RECORDS", "777", 1);
  EXPECT_EQ(RecordsFromEnv(1234), 777u);
  setenv("CBVLINK_RECORDS", "junk", 1);
  EXPECT_EQ(RecordsFromEnv(1234), 1234u);
  unsetenv("CBVLINK_RECORDS");

  unsetenv("CBVLINK_REPS");
  EXPECT_EQ(RepetitionsFromEnv(3), 3u);
  setenv("CBVLINK_REPS", "9", 1);
  EXPECT_EQ(RepetitionsFromEnv(3), 9u);
  unsetenv("CBVLINK_REPS");
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = UniqueTempPath("cbvlink_test.csv");
  Result<CsvWriter> writer = CsvWriter::Open(path, {"name", "pc", "pq"});
  ASSERT_TRUE(writer.ok());
  writer.value().WriteRow({"cBV-HB", "0.97", "0.5"});
  writer.value().WriteNumericRow("BfH", {0.92, 0.55});
  // Field with comma must be quoted.
  writer.value().WriteRow({"a,b", "x\"y", "z"});
  // Destroy to flush.
  {
    CsvWriter w = std::move(writer).value();
    (void)w;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,pc,pq");
  std::getline(in, line);
  EXPECT_EQ(line, "cBV-HB,0.97,0.5");
  std::getline(in, line);
  EXPECT_EQ(line, "BfH,0.92,0.55");
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",\"x\"\"y\",z");
}

TEST(CsvWriterTest, OpenFailsOnBadPath) {
  EXPECT_FALSE(CsvWriter::Open("/nonexistent_dir_xyz/file.csv", {"a"}).ok());
}

TEST(CsvDirFromEnvTest, ReadsVariable) {
  unsetenv("CBVLINK_CSV_DIR");
  EXPECT_TRUE(CsvDirFromEnv().empty());
  setenv("CBVLINK_CSV_DIR", "/tmp", 1);
  EXPECT_EQ(CsvDirFromEnv(), "/tmp");
  unsetenv("CBVLINK_CSV_DIR");
}

}  // namespace
}  // namespace cbvlink
