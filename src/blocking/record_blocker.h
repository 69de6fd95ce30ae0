// Standard record-level HB blocking (Section 4.2).
//
// The blocker samples K bit positions uniformly from the *whole*
// record-level vector for each of L blocking groups, inserts data set A's
// records into the groups' hash tables as store slots, and serves the
// candidate slots of each probe vector from data set B.  This is the
// baseline that Section 5.4's attribute-level blocking improves upon.

#ifndef CBVLINK_BLOCKING_RECORD_BLOCKER_H_
#define CBVLINK_BLOCKING_RECORD_BLOCKER_H_

#include <functional>
#include <span>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/function_ref.h"
#include "src/common/random.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"
#include "src/lsh/blocking_table.h"
#include "src/lsh/hamming_lsh.h"

namespace cbvlink {

class ThreadPool;

/// Source of candidates for a probe vector; implemented by both the
/// record-level and the attribute-level blockers so the matcher is
/// agnostic to the blocking strategy.
///
/// A source hands out *slots*: slot s is the record a VectorStore filled
/// alongside the source placed at dense index s.  The matcher consumes
/// slot spans directly (ForEachSlotSpan); ForEachCandidate and
/// ForEachCandidateSpan are adapters over that one probe path that map
/// slots back to RecordIds through slot_ids().
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Invokes `cb` once per candidate group with a view of that group's
  /// slots, in blocking-group order.  Slots may repeat across groups
  /// (the matcher de-duplicates, as in Algorithm 2).  Every slot is below
  /// num_slots().  Spans are only valid for the duration of the callback.
  virtual void ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const = 0;

  /// The RecordId of every slot, indexed by slot.
  virtual std::span<const RecordId> slot_ids() const = 0;

  /// Slots handed out so far: every slot ForEachSlotSpan emits is below
  /// it.
  size_t num_slots() const { return slot_ids().size(); }

  /// Invokes `cb` with the Id of every slot ForEachSlotSpan delivers for
  /// `probe`, in blocking-group order.  Ids may repeat across groups
  /// wherever the slots do (the record-level blocker, single-structure
  /// attribute-level rules).
  void ForEachCandidate(const BitVector& probe,
                        const std::function<void(RecordId)>& cb) const;

  /// ForEachSlotSpan with each span's slots mapped to their Ids: the same
  /// spans, in the same order, at the same boundaries.  Spans are only
  /// valid for the duration of the callback.
  void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const;

 protected:
  /// Records `id` as the Id of `slot`, growing `slot_ids` to cover it.
  static void AssignSlot(std::vector<RecordId>* slot_ids, uint32_t slot,
                         RecordId id);
};

/// Record-level Hamming LSH blocker.
class RecordLevelBlocker : public CandidateSource {
 public:
  /// Creates a blocker for `num_bits`-wide record vectors with `K` base
  /// hashes per group; L is derived from Equation 2 for Hamming threshold
  /// `theta` and miss probability `delta`.
  static Result<RecordLevelBlocker> Create(size_t num_bits, size_t K,
                                           size_t theta, double delta,
                                           Rng& rng);

  /// Creates a blocker with an explicit number of groups L.
  static Result<RecordLevelBlocker> CreateWithL(size_t num_bits, size_t K,
                                                size_t L, Rng& rng);

  /// A blocker over the same LSH family with no entries: rebuilding it
  /// from a record set yields exactly the blocking keys of this one.
  RecordLevelBlocker EmptyCopy() const { return RecordLevelBlocker(family_); }

  /// Inserts every record of data set A serially, records[i] as slot
  /// num_slots() + i.  May be called repeatedly to add more records.
  void Index(const std::vector<EncodedRecord>& records);

  /// Bulk Index with a two-phase parallel build: phase 1 computes the
  /// L-wide blocking-key matrix sharded over `pool` (per-record writes,
  /// so chunking cannot reorder anything); phase 2 merges each table's
  /// key column in record order.  records[i] becomes slot
  /// num_slots() + i — the dense index VectorStore::AddAll gives it when
  /// the store is filled alongside and the ids are distinct.  The
  /// resulting tables are identical to Index() at any thread count —
  /// same buckets, same per-bucket slot order, same counters.  Null
  /// `pool` (or a single worker) runs the plain serial path; `min_chunk`
  /// only bounds phase-1 scheduling overhead.
  void BulkInsert(std::span<const EncodedRecord> records,
                  ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// Inserts a single record as `slot` (streaming ingestion): the dense
  /// index VectorStore::Add returned for it.  A slot below num_slots()
  /// is re-indexed in place (an update resurrects its store slot); one
  /// past it extends the slot range, any gap holding slots no table
  /// refers to.
  void Insert(const EncodedRecord& record, uint32_t slot);

  /// Emits each probed bucket as one span over the table's own storage —
  /// no per-slot callback, no copying.
  void ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override;

  std::span<const RecordId> slot_ids() const override { return slot_ids_; }

  size_t L() const { return tables_.size(); }
  size_t K() const { return family_.K(); }

  /// Aggregate statistics over the L tables, for diagnostics.
  size_t TotalBuckets() const;
  size_t TotalEntries() const;
  size_t MaxBucketSize() const;

  /// The L blocking tables, for distribution diagnostics
  /// (eval/block_stats.h).
  const std::vector<BlockingTable>& tables() const { return tables_; }

 private:
  RecordLevelBlocker(HammingLshFamily family)
      : family_(std::move(family)), tables_(family_.L()) {}

  HammingLshFamily family_;
  std::vector<BlockingTable> tables_;
  /// Slot -> RecordId, for the Id adapters.
  std::vector<RecordId> slot_ids_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_RECORD_BLOCKER_H_
