// Equivalence of the one-pass encoders with the textbook pipeline.
//
// (a) Differential: every encoder must set exactly the bits of the
//     reference kept here — Normalize, pad, collect the base-|S| index of
//     every in-alphabet window, sort + unique, hash, Set at the segment
//     offset — over q in {1,2,3}, padding on and off, all built-in
//     alphabets and adversarial raw values.
// (b) Pinned: FNV-1a digests of 2,000 generated NCVR records encoded with
//     the Table 3 sizing.  Any change to the encoded bits moves them.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"
#include "src/embedding/qgram_vector.h"
#include "src/embedding/record_encoder.h"
#include "src/text/normalize.h"
#include "src/text/qgram.h"

namespace cbvlink {
namespace {

// --- Reference pipeline ----------------------------------------------------

/// U_s the textbook way: normalize, pad, index every window whose symbols
/// are all in the alphabet, then sort and de-duplicate.
std::vector<uint64_t> ReferenceIndexSet(std::string_view raw,
                                        const AttributeSpec& spec) {
  const std::string normalized = Normalize(raw, *spec.alphabet);
  std::vector<uint64_t> indexes;
  if (normalized.empty()) return indexes;
  std::string padded = normalized;
  if (spec.qgram.pad) {
    padded.insert(padded.begin(), kPadChar);
    padded.push_back(kPadChar);
  }
  for (size_t i = 0; i + spec.qgram.q <= padded.size(); ++i) {
    uint64_t ind = 0;
    bool valid = true;
    for (size_t j = 0; j < spec.qgram.q; ++j) {
      const int order = spec.alphabet->Order(padded[i + j]);
      if (order < 0) {
        valid = false;
        break;
      }
      ind = ind * spec.alphabet->size() + static_cast<uint64_t>(order);
    }
    if (valid) indexes.push_back(ind);
  }
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  return indexes;
}

/// Every valid (alphabet, q, pad) combination: padding needs '_' in the
/// alphabet, so Uppercase runs unpadded only.
Schema AllCombinationsSchema() {
  Schema schema;
  for (const Alphabet* alphabet :
       {&Alphabet::Uppercase(), &Alphabet::UppercasePadded(),
        &Alphabet::Alphanumeric()}) {
    for (size_t q : {1u, 2u, 3u}) {
      for (bool pad : {false, true}) {
        if (pad && !alphabet->Contains(kPadChar)) continue;
        std::string name = std::to_string(q);
        name += pad ? "-grams padded |S|=" : "-grams unpadded |S|=";
        name += std::to_string(alphabet->size());
        schema.attributes.push_back(
            {std::move(name), alphabet, QGramOptions{.q = q, .pad = pad}});
      }
    }
  }
  return schema;
}

/// Hand-picked edge values plus seeded random byte strings drawn from
/// every byte class the normalizer treats differently.
std::vector<std::string> EdgeValues() {
  std::vector<std::string> values = {
      "",
      "!@#$%^&*()-+=,./",
      "\x80\x81\xfe\xff",
      "_",
      "___",
      "A_B",
      "_JO_NES_",
      "jones",
      "o'neil-smith",
      "123 Main St",
      "Jos\xc3\xa9 \xe2\x80\x99" "Connor",
      "A",
      "a",
      "7",
      " ",
      "AB",
      "AAAA",
      "WASHINGTON",
  };
  std::string long_value;
  for (int i = 0; i < 12; ++i) long_value += "Washington Ave 12, ";
  values.push_back(long_value);                     // > 3 words of symbols
  values.push_back(std::string(63, 'Z'));           // word-boundary lengths
  values.push_back(std::string(64, 'y'));
  values.push_back(std::string(65, 'Q') + "_x\xff");

  const std::string classes =
      "ABCXYZabcxyz0189 _-'.,#\x7f\x80\xc3\xa9\xff\t";
  Rng rng(20160315);
  for (int i = 0; i < 400; ++i) {
    const size_t len = rng() % 90;
    std::string value;
    for (size_t j = 0; j < len; ++j) {
      value.push_back(classes[rng() % classes.size()]);
    }
    values.push_back(std::move(value));
  }
  return values;
}

/// A record holding `value` in every field of `schema`.
Record RecordOf(const Schema& schema, RecordId id, const std::string& value) {
  return {id, std::vector<std::string>(schema.num_attributes(), value)};
}

std::string Printable(std::string_view value) {
  std::string out;
  for (char c : value) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out.push_back(c);
    } else {
      out += "\\x";
      out.push_back("0123456789abcdef"[byte >> 4]);
      out.push_back("0123456789abcdef"[byte & 15]);
    }
  }
  return out;
}

// --- (a) Differential ------------------------------------------------------

TEST(EncodeEquivalenceTest, QGramExtractorIndexSetMatchesReference) {
  const Schema schema = AllCombinationsSchema();
  for (const AttributeSpec& spec : schema.attributes) {
    Result<QGramExtractor> extractor =
        QGramExtractor::Create(*spec.alphabet, spec.qgram);
    ASSERT_TRUE(extractor.ok()) << spec.name;
    for (const std::string& value : EdgeValues()) {
      const std::vector<uint64_t> expected = ReferenceIndexSet(value, spec);
      EXPECT_EQ(extractor.value().IndexSet(value), expected)
          << spec.name << " raw '" << Printable(value) << "'";
      // Normalize is idempotent, so normalized input yields the same set.
      EXPECT_EQ(extractor.value().IndexSet(Normalize(value, *spec.alphabet)),
                expected)
          << spec.name << " normalized '" << Printable(value) << "'";
    }
  }
}

TEST(EncodeEquivalenceTest, CVectorRecordEncoderMatchesReference) {
  const Schema schema = AllCombinationsSchema();
  Rng rng(7);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      schema, std::vector<double>(schema.num_attributes(), 5.0), rng);
  ASSERT_TRUE(encoder.ok()) << encoder.status().ToString();
  const RecordLayout& layout = encoder.value().layout();
  ASSERT_GT(layout.total_bits(), 128u);  // segments straddle word boundaries

  RecordId id = 0;
  for (const std::string& value : EdgeValues()) {
    Result<EncodedRecord> enc =
        encoder.value().Encode(RecordOf(schema, id, value));
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(enc.value().id, id);
    BitVector expected(layout.total_bits());
    for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
      const PairwiseHash& hash =
          encoder.value().attribute_encoder(attr).hash();
      BitVector attr_expected(layout.segment(attr).size);
      for (uint64_t ind : ReferenceIndexSet(value, schema.attributes[attr])) {
        const size_t bit = static_cast<size_t>(hash(ind));
        attr_expected.Set(bit);
        expected.Set(layout.segment(attr).offset + bit);
      }
      EXPECT_EQ(encoder.value().EncodeAttribute(attr, value).ToString(),
                attr_expected.ToString())
          << schema.attributes[attr].name << " '" << Printable(value) << "'";
    }
    EXPECT_EQ(enc.value().bits.ToString(), expected.ToString())
        << "'" << Printable(value) << "'";
    ++id;
  }
}

TEST(EncodeEquivalenceTest, BloomRecordEncoderMatchesReference) {
  const Schema schema = AllCombinationsSchema();
  // 100-bit filters put every attribute at an unaligned offset.
  const BloomFilterOptions options{.num_bits = 100, .num_hashes = 5};
  Result<BloomRecordEncoder> encoder =
      BloomRecordEncoder::Create(schema, options);
  ASSERT_TRUE(encoder.ok()) << encoder.status().ToString();
  const RecordLayout& layout = encoder.value().layout();
  const BloomHashFamily family(options.num_hashes, options.num_bits,
                               options.seed);

  RecordId id = 0;
  for (const std::string& value : EdgeValues()) {
    Result<EncodedRecord> enc =
        encoder.value().Encode(RecordOf(schema, id, value));
    ASSERT_TRUE(enc.ok());
    BitVector expected(layout.total_bits());
    for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
      for (uint64_t ind : ReferenceIndexSet(value, schema.attributes[attr])) {
        std::vector<size_t> positions;
        family.Positions(ind, &positions);
        for (size_t pos : positions) {
          expected.Set(layout.segment(attr).offset + pos);
        }
      }
    }
    EXPECT_EQ(enc.value().bits.ToString(), expected.ToString())
        << "'" << Printable(value) << "'";
    ++id;
  }
}

TEST(EncodeEquivalenceTest, QGramVectorEncoderMatchesReference) {
  const Schema schema = AllCombinationsSchema();
  for (const AttributeSpec& spec : schema.attributes) {
    Result<QGramExtractor> extractor =
        QGramExtractor::Create(*spec.alphabet, spec.qgram);
    ASSERT_TRUE(extractor.ok());
    Result<QGramVectorEncoder> encoder =
        QGramVectorEncoder::Create(std::move(extractor).value());
    ASSERT_TRUE(encoder.ok()) << spec.name;
    const size_t m = encoder.value().vector_size();
    // An odd offset inside a wider vector exercises write-at-offset.
    constexpr size_t kOffset = 37;
    for (const std::string& value : EdgeValues()) {
      BitVector expected(m);
      BitVector expected_at(m + kOffset + 5);
      for (uint64_t ind : ReferenceIndexSet(value, spec)) {
        expected.Set(static_cast<size_t>(ind));
        expected_at.Set(kOffset + static_cast<size_t>(ind));
      }
      EXPECT_EQ(encoder.value().Encode(value).ToString(), expected.ToString())
          << spec.name << " '" << Printable(value) << "'";
      BitVector at(m + kOffset + 5);
      encoder.value().EncodeInto(value, &at, kOffset);
      EXPECT_EQ(at.ToString(), expected_at.ToString())
          << spec.name << " '" << Printable(value) << "'";
    }
  }
}

// --- (b) Pinned digests ----------------------------------------------------

/// 2,000 NCVR-shaped records: 1,000 originals plus their perturbed
/// counterparts and the rest of B, from a fixed seed.
std::vector<Record> PinnedNcvrRecords(const NcvrGenerator& generator) {
  LinkagePairOptions options;
  options.num_records = 1000;
  options.seed = 20160315;
  Result<LinkagePair> data =
      BuildLinkagePair(generator, PerturbationScheme::Light(), options);
  EXPECT_TRUE(data.ok());
  std::vector<Record> records = std::move(data.value().a);
  records.insert(records.end(), data.value().b.begin(), data.value().b.end());
  return records;
}

/// FNV-1a over every record's id, width and packed words, in order.
uint64_t Digest(const std::vector<EncodedRecord>& encoded) {
  uint64_t h = 0;
  for (const EncodedRecord& rec : encoded) {
    const uint64_t header[2] = {rec.id, rec.bits.size()};
    h = HashBytes(header, sizeof(header), h);
    h = HashBytes(rec.bits.words().data(),
                  rec.bits.words().size() * sizeof(uint64_t), h);
  }
  return h;
}

TEST(EncodeEquivalenceTest, EncodePinned) {
  Result<NcvrGenerator> generator = NcvrGenerator::Create();
  ASSERT_TRUE(generator.ok());
  const std::vector<Record> records = PinnedNcvrRecords(generator.value());
  ASSERT_EQ(records.size(), 2000u);
  const Schema& schema = generator.value().schema();

  Rng rng(1);
  Result<CVectorRecordEncoder> cbv =
      CVectorRecordEncoder::Create(schema, {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(cbv.ok());
  ASSERT_EQ(cbv.value().total_bits(), 120u);
  Result<std::vector<EncodedRecord>> cbv_bits = cbv.value().EncodeAll(records);
  ASSERT_TRUE(cbv_bits.ok());
  EXPECT_EQ(Digest(cbv_bits.value()), 0xdfcc72d6e95ba043ULL);

  Result<BloomRecordEncoder> bloom = BloomRecordEncoder::Create(schema);
  ASSERT_TRUE(bloom.ok());
  Result<std::vector<EncodedRecord>> bloom_bits =
      bloom.value().EncodeAll(records);
  ASSERT_TRUE(bloom_bits.ok());
  EXPECT_EQ(Digest(bloom_bits.value()), 0x74d300c080aa8338ULL);

  // The schema's own sample estimate feeds Link(); pin its means too.
  const std::vector<double> means = EstimateExpectedQGrams(schema, records);
  ASSERT_EQ(means.size(), 4u);
  EXPECT_EQ(HashBytes(means.data(), means.size() * sizeof(double)),
            0xd6ca7c145d15f4e0ULL);

  // The same records as padded bigrams ('_JONES_'), sized from their own
  // estimate: pins the virtual pad symbols at both ends.
  Schema padded = schema;
  for (AttributeSpec& spec : padded.attributes) {
    if (!spec.alphabet->Contains(kPadChar)) {
      spec.alphabet = &Alphabet::UppercasePadded();
    }
    spec.qgram.pad = true;
  }
  Rng padded_rng(2);
  Result<CVectorRecordEncoder> padded_cbv = CVectorRecordEncoder::Create(
      padded, EstimateExpectedQGrams(padded, records), padded_rng);
  ASSERT_TRUE(padded_cbv.ok());
  Result<std::vector<EncodedRecord>> padded_bits =
      padded_cbv.value().EncodeAll(records);
  ASSERT_TRUE(padded_bits.ok());
  EXPECT_EQ(Digest(padded_bits.value()), 0x9ec6e442b81c9602ULL);
}

}  // namespace
}  // namespace cbvlink
