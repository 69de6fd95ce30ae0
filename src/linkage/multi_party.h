// Multi-party linkage (Section 5.3: "our method is capable of handling an
// arbitrary number of data sets (two or more) belonging to different data
// custodians").
//
// Charlie receives one record set per custodian, embeds them all with the
// same c-vector encoders, indexes everything into one set of blocking
// groups, and reports matches between records of *different* sources.
// The de-duplicating matcher semantics of Algorithm 2 apply per probe.

#ifndef CBVLINK_LINKAGE_MULTI_PARTY_H_
#define CBVLINK_LINKAGE_MULTI_PARTY_H_

#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/linkage/cbv_hb_linker.h"

namespace cbvlink {

/// Identifier of a data custodian's set.
using PartyId = size_t;

/// A match between records of two different parties.
struct MultiPartyMatch {
  PartyId party_a = 0;
  RecordId id_a = 0;
  PartyId party_b = 0;
  RecordId id_b = 0;

  bool operator==(const MultiPartyMatch&) const = default;
};

/// Result of a multi-party run.
struct MultiPartyResult {
  std::vector<MultiPartyMatch> matches;
  MatchStats stats;
  size_t blocking_groups = 0;
};

/// Links any number of record sets pairwise in a single pass.
class MultiPartyLinker {
 public:
  /// Validates the configuration (ValidateCbvHbConfig).  Blocking is
  /// record-level HB: attribute-level blocking is rejected.  When
  /// config.expected_qgrams is empty, Link estimates them from the first
  /// config.estimation_sample records of the first party.
  static Result<MultiPartyLinker> Create(CbvHbConfig config);

  /// Links all parties.  Requires >= 2 parties, each non-empty.  Record
  /// ids must be unique *within* a party (InvalidArgument otherwise) and
  /// below 2^48 (OutOfRange otherwise); the (party, id) pair identifies
  /// a record globally.
  Result<MultiPartyResult> Link(
      const std::vector<std::vector<Record>>& parties);

 private:
  explicit MultiPartyLinker(CbvHbConfig config)
      : config_(std::move(config)) {}

  CbvHbConfig config_;
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_MULTI_PARTY_H_
