#include "src/protocol/party.h"

#include <gtest/gtest.h>

#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/eval/measures.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace {

LinkageParameters PublishedParameters(const Schema& schema) {
  LinkageParameters parameters;
  parameters.schema = schema;
  parameters.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  return parameters;
}

LinkageUnit::Options CharlieOptions() {
  LinkageUnit::Options options;
  options.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                            Rule::Pred(2, 4), Rule::Pred(3, 4)});
  options.record_theta = 4;
  return options;
}

TEST(ProtocolTest, CustodiansAgreeOnIdenticalParameters) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(alice.value().record_bits(), 120u);
  EXPECT_EQ(bob.value().record_bits(), 120u);

  // The same string must encode identically at both custodians — the
  // agreement the shared seed provides.
  Rng rng(3);
  const Record r = gen.value().Generate(0, rng);
  Result<std::vector<EncodedRecord>> ea = alice.value().EncodeRecords({r});
  Result<std::vector<EncodedRecord>> eb = bob.value().EncodeRecords({r});
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea.value()[0].bits, eb.value()[0].bits);
}

TEST(ProtocolTest, DifferentSeedsBreakAgreement) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageParameters p1 = PublishedParameters(gen.value().schema());
  LinkageParameters p2 = p1;
  p2.hash_seed = 999;
  Result<DataCustodian> alice = DataCustodian::Create("alice", p1);
  Result<DataCustodian> bob = DataCustodian::Create("bob", p2);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  Rng rng(4);
  const Record r = gen.value().Generate(0, rng);
  EXPECT_FALSE(alice.value().EncodeRecords({r}).value()[0].bits ==
               bob.value().EncodeRecords({r}).value()[0].bits);
}

TEST(ProtocolTest, EndToEndOverEncodedSets) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 500;
  options.seed = 31;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());

  Result<LinkageResultLite> result = charlie.value().LinkEncoded(
      alice.value().EncodeRecords(data.value().a).value(),
      bob.value().EncodeRecords(data.value().b).value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const PairSet truth = TruthPairs(data.value().truth);
  size_t hits = 0;
  for (const IdPair& p : result.value().matches) {
    if (truth.contains(p)) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(truth.size()),
            0.9);
}

TEST(ProtocolTest, EndToEndOverWireFiles) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 300;
  options.seed = 33;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  const std::string path_a = UniqueTempPath("alice.cbv");
  const std::string path_b = UniqueTempPath("bob.cbv");
  ASSERT_TRUE(alice.value().ExportRecords(data.value().a, path_a).ok());
  ASSERT_TRUE(bob.value().ExportRecords(data.value().b, path_b).ok());

  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());
  Result<LinkageResultLite> result =
      charlie.value().LinkFiles(path_a, path_b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().matches.size(), 0u);
  EXPECT_GT(result.value().blocking_groups, 0u);
}

TEST(ProtocolTest, WidthMismatchRejected) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());
  EncodedRecord wrong;
  wrong.id = 1;
  wrong.bits = BitVector(64);  // not the published 120 bits
  Result<LinkageResultLite> result =
      charlie.value().LinkEncoded({wrong}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, RepeatedIdFromARejected) {
  // A's records come from another party; two under one id would leave
  // the second blocked but scored with the first one's vector.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  ASSERT_TRUE(alice.ok());
  Rng rng(5);
  std::vector<Record> records;
  for (RecordId id = 0; id < 20; ++id) {
    records.push_back(gen.value().Generate(id, rng));
  }
  records.push_back(records[3]);
  records.back().id = 7;
  Result<std::vector<EncodedRecord>> from_a =
      alice.value().EncodeRecords(records);
  ASSERT_TRUE(from_a.ok());
  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());
  Result<LinkageResultLite> result =
      charlie.value().LinkEncoded(from_a.value(), from_a.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("record id 7 appears"),
            std::string_view::npos)
      << result.status().ToString();
}

TEST(ProtocolTest, InvalidRuleRejectedAtCreate) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  LinkageUnit::Options options = CharlieOptions();
  options.rule = Rule::Pred(9, 4);
  EXPECT_FALSE(LinkageUnit::Create(parameters, options).ok());
}

}  // namespace
}  // namespace cbvlink
