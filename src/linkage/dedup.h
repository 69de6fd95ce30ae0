// Single-database duplicate detection with cBV-HB.
//
// The paper frames linkage across two (or more) custodians; the same
// embedding + blocking machinery deduplicates one data set by probing
// each record against the records indexed before it — every unordered
// pair is considered at most once — and consolidating the pairwise
// decisions into entity clusters with union-find.

#ifndef CBVLINK_LINKAGE_DEDUP_H_
#define CBVLINK_LINKAGE_DEDUP_H_

#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/execution.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/linkage/cbv_hb_linker.h"

namespace cbvlink {

/// Result of a deduplication run.
struct DedupResult {
  /// Matched pairs, a_id < b_id in insertion order (each pair once).
  std::vector<IdPair> duplicate_pairs;
  /// Entity clusters over the *record ids*, including singletons,
  /// ordered by their smallest member.
  std::vector<std::vector<RecordId>> clusters;
  MatchStats stats;
  size_t blocking_groups = 0;
};

/// Finds duplicate records within one data set.  `config` supplies the
/// schema, rule, and blocking parameters exactly as for cross-set
/// linkage (record-level blocking; config.attribute_level_blocking is
/// honored too).  Record ids must be unique: InvalidArgument names the
/// first repeated id.  When config.expected_qgrams is empty they are
/// estimated from all of `records`.
Result<DedupResult> FindDuplicates(const std::vector<Record>& records,
                                   const CbvHbConfig& config);

/// FindDuplicates under an execution policy: the embedding runs on the
/// policy's pool up front; the match-then-insert stream itself stays
/// sequential (each record may only probe those inserted before it), so
/// pairs, clusters, and counters are identical at any thread count.
Result<DedupResult> FindDuplicates(const std::vector<Record>& records,
                                   const CbvHbConfig& config,
                                   const ExecutionOptions& options);

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_DEDUP_H_
