#include "src/linkage/multi_party.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/str.h"

namespace cbvlink {

namespace {

/// Record ids keep the low 48 bits of a global id; the party takes the
/// high 16.
constexpr uint64_t kLocalIdLimit = uint64_t{1} << 48;

/// Packs (party, record-id) into one 64-bit key for the blocking tables.
/// Link() has checked id < kLocalIdLimit, so the packing is lossless.
uint64_t GlobalId(PartyId party, RecordId id) {
  return (static_cast<uint64_t>(party) << 48) | id;
}

PartyId PartyOf(uint64_t global_id) {
  return static_cast<PartyId>(global_id >> 48);
}

RecordId LocalOf(uint64_t global_id) {
  return global_id & (kLocalIdLimit - 1);
}

}  // namespace

Result<MultiPartyLinker> MultiPartyLinker::Create(CbvHbConfig config) {
  if (config.attribute_level_blocking) {
    return Status::InvalidArgument(
        "multi-party linkage indexes record-level HB blocking; "
        "attribute-level structures are not supported");
  }
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(config));
  return MultiPartyLinker(std::move(config));
}

Result<MultiPartyResult> MultiPartyLinker::Link(
    const std::vector<std::vector<Record>>& parties) {
  if (parties.size() < 2) {
    return Status::InvalidArgument(
        StrFormat("multi-party linkage needs >= 2 parties, got %zu",
                  parties.size()));
  }
  for (size_t p = 0; p < parties.size(); ++p) {
    if (parties[p].empty()) {
      return Status::InvalidArgument(StrFormat("party %zu is empty", p));
    }
    std::unordered_set<RecordId> ids;
    ids.reserve(parties[p].size());
    for (const Record& record : parties[p]) {
      const auto id = static_cast<unsigned long long>(record.id);
      if (record.id >= kLocalIdLimit) {
        return Status::OutOfRange(StrFormat(
            "party %zu record id %llu does not fit in 48 bits", p, id));
      }
      if (!ids.insert(record.id).second) {
        return Status::InvalidArgument(
            StrFormat("party %zu repeats record id %llu", p, id));
      }
    }
  }
  if (parties.size() >= (uint64_t{1} << 16)) {
    return Status::OutOfRange("too many parties for 16-bit party ids");
  }

  Rng rng(config_.seed);

  // Shared encoders so identical values collide across custodians.
  std::vector<double> expected = config_.expected_qgrams;
  if (expected.empty()) {
    std::vector<Record> sample;
    const size_t n = std::min(config_.estimation_sample, parties[0].size());
    sample.reserve(n);
    for (size_t i = 0; i < n; ++i) sample.push_back(parties[0][i]);
    expected = EstimateExpectedQGrams(config_.schema, sample);
  }
  Result<CbvHbParts> built = BuildCbvHbParts(config_, expected, rng);
  if (!built.ok()) return built.status();
  CbvHbParts& parts = built.value();

  MultiPartyResult result;
  result.blocking_groups = parts.blocking_groups();

  VectorStore store;
  const Matcher matcher(&parts.source(), &store);
  Matcher::Scratch scratch;

  // Incremental pass: probe each party against everything indexed so far,
  // then index it.  Every cross-party pair is considered exactly once.
  for (PartyId p = 0; p < parties.size(); ++p) {
    std::vector<EncodedRecord> encoded;
    encoded.reserve(parties[p].size());
    for (const Record& record : parties[p]) {
      Result<EncodedRecord> enc = parts.encoder.Encode(record);
      if (!enc.ok()) return enc.status();
      EncodedRecord tagged = std::move(enc).value();
      tagged.id = GlobalId(p, record.id);
      encoded.push_back(std::move(tagged));
    }
    if (p > 0) {
      std::vector<IdPair> found;
      for (const EncodedRecord& probe : encoded) {
        matcher.MatchOne(probe, parts.classifier, &found, &result.stats,
                         &scratch);
      }
      for (const IdPair& pair : found) {
        // a_id is the earlier-indexed record; b_id the probing one.
        result.matches.push_back(MultiPartyMatch{
            PartyOf(pair.a_id), LocalOf(pair.a_id), p, LocalOf(pair.b_id)});
      }
    }
    // Ids were checked distinct above, so the store numbers the records
    // as the blocker does.
    CBVLINK_RETURN_NOT_OK(store.AddAll(encoded));
    parts.BulkInsert(encoded);
  }
  return result;
}

}  // namespace cbvlink
