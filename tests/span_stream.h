// Digest of a candidate source's emitted span stream.
//
// The matcher's funnel counters and pair order depend on the exact
// sequence of spans ForEachCandidateSpan delivers: which Ids, in which
// order, split at which bucket boundaries.  SpanStreamDigest folds that
// whole sequence for a list of probes into one 64-bit FNV-1a value, so a
// test can pin it against a digest captured from a known-good build.

#ifndef CBVLINK_TESTS_SPAN_STREAM_H_
#define CBVLINK_TESTS_SPAN_STREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/blocking/record_blocker.h"
#include "src/common/bitvector.h"

namespace cbvlink {

/// FNV-1a over, per probe, each span's size followed by its Ids, then
/// the probe's span count.  Sizes and counts make span boundaries part
/// of the digest, not only the flattened Id sequence.
inline uint64_t SpanStreamDigest(const CandidateSource& source,
                                 const std::vector<BitVector>& probes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const BitVector& probe : probes) {
    uint64_t spans = 0;
    source.ForEachCandidateSpan(probe, [&](std::span<const RecordId> ids) {
      ++spans;
      fold(ids.size());
      for (const RecordId id : ids) fold(id);
    });
    fold(spans);
  }
  return hash;
}

}  // namespace cbvlink

#endif  // CBVLINK_TESTS_SPAN_STREAM_H_
