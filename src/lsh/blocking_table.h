// The blocking hash table T_l (Section 4.2).
//
// A BlockingTable maps 64-bit composite blocking keys to buckets of
// 32-bit slots.  Per footnote 2 of the paper, a table stores only
// references to records — the vectors themselves live with their owner.
// For the cBV-HB blockers a slot is the indexed record's VectorStore
// dense index, so the matcher stamps and loads a candidate with no lookup
// in between; HARRA and SMEB store record positions.  The table also
// exposes bucket statistics, which the evaluation uses to diagnose the
// "few overpopulated buckets" failure mode of sparse q-gram vectors
// (Section 5.2).
//
// Layout (DESIGN.md §3): one open-addressing cell array maps each key to
// a (begin, size, capacity) range of one contiguous uint32_t arena.  A
// bulk build into an empty table lays the arena out exactly — count the
// keys, prefix-sum, fill — with no per-bucket allocation; streaming
// inserts move a full bucket to the arena end at double its capacity.
// Either way a bucket's slots stay in insertion order, and Get() is one
// hash probe returning a span over the arena.  The cell array is sized
// by distinct keys, never by record count.
//
// A probe record's lookups are independent, so ProbeBuckets() runs them
// in phases over chunks of kProbeChunk: compute every key, prefetch every
// home cell, Get() every bucket and prefetch its first entry, then emit
// the spans in probe order.  Each lookup's two cache misses (cell, then
// arena) overlap with the other lookups' instead of running one after
// another.

#ifndef CBVLINK_LSH_BLOCKING_TABLE_H_
#define CBVLINK_LSH_BLOCKING_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/function_ref.h"

namespace cbvlink {

/// One blocking group's hash table: key -> bucket of slots.
class BlockingTable {
 public:
  BlockingTable() = default;

  /// Appends `slot` to the bucket for `key`.
  void Insert(uint64_t key, uint32_t slot);

  /// Bulk merge primitive for the two-phase parallel index build:
  /// inserts slots[i] under keys[i * key_stride] for i in
  /// [0, slots.size()), identical to that sequence of Insert() calls
  /// (same per-bucket order, same counters).  The strided layout lets
  /// callers that compute an L-wide key matrix in parallel
  /// (keys[i * L + l]) merge table l's column — base pointer keys + l,
  /// stride L — without copying.  Into an empty table the arena is laid
  /// out exactly.
  void BulkInsert(const uint64_t* keys, size_t key_stride,
                  std::span<const uint32_t> slots);

  /// The bucket for `key`; empty when no record hashed there.  Valid
  /// until the next mutation of the table.
  std::span<const uint32_t> Get(uint64_t key) const {
    if (cells_.empty()) return {};
    for (size_t pos = Home(key);; pos = (pos + 1) & cell_mask_) {
      const Cell& cell = cells_[pos];
      if (cell.size == 0) return {};
      if (cell.key == key) return {arena_.data() + cell.begin, cell.size};
    }
  }

  /// Hints the cache to load the home cell of `key`: the first cell Get()
  /// reads.  No-op on a table with no cell array.
  void PrefetchHome(uint64_t key) const {
    if (cells_.empty()) return;
    __builtin_prefetch(&cells_[Home(key)]);
  }

  /// Number of non-empty buckets.
  size_t NumBuckets() const { return num_buckets_; }

  /// Total stored slots across buckets.  O(1): maintained incrementally by
  /// Insert/Erase, so per-record diagnostics stay cheap on hot paths.
  size_t NumEntries() const { return num_entries_; }

  /// Size of the largest bucket (0 for an empty table).  O(1); Erase()
  /// recomputes it since a removal can shrink the maximum.
  size_t MaxBucketSize() const { return max_bucket_size_; }

  /// Mean entries per non-empty bucket (0 for an empty table).  The
  /// Eq. 2 health signal: under the paper's model each table should
  /// spread records near-uniformly, so a mean far below the max flags
  /// the Section 5.2 "few overpopulated buckets" skew.
  double MeanBucketSize() const {
    return num_buckets_ == 0 ? 0
                             : static_cast<double>(num_entries_) /
                                   static_cast<double>(num_buckets_);
  }

  /// Log2 bucket-occupancy histogram: bin i counts buckets whose size
  /// s satisfies 2^i <= s < 2^(i+1) (bin 0 holds size-1 buckets; the
  /// last bin also absorbs anything larger).  This is the distribution
  /// blocking-method comparisons report, exported per table by the
  /// telemetry layer.
  std::vector<uint64_t> OccupancyHistogram(size_t bins = 16) const;

  /// Removes every bucket and releases the storage.
  void Clear();

  /// Removes `slot` from every bucket it appears in (a linear scan over
  /// the whole table; kept as the reference removal the model-based test
  /// pins against a multimap).
  void Erase(uint32_t slot);

  /// Invokes `fn(key, slots)` once per non-empty bucket, in unspecified
  /// bucket order; `slots` is in insertion order.
  void ForEachBucket(
      FunctionRef<void(uint64_t, std::span<const uint32_t>)> fn) const;

  /// Same keys with the same per-bucket slot order, whatever the layout
  /// (cell order and arena placement are not compared).
  friend bool operator==(const BlockingTable& x, const BlockingTable& y);

 private:
  /// One open-addressing cell; size == 0 marks an empty cell (a live
  /// bucket always holds at least one entry).  The bucket's slots are
  /// arena_[begin, begin + size), with room up to begin + capacity.
  struct Cell {
    uint64_t key = 0;
    uint64_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// Fibonacci hashing: keys are LSH outputs, usually already mixed, so
  /// one multiply spreads any residual structure over the top bits.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> cell_shift_);
  }

  /// The cell holding `key`, or the empty cell where it would go.
  /// Requires a non-empty cell array.
  Cell& Probe(uint64_t key);

  /// The cell for `key`, claiming an empty one (size still 0) when the
  /// key is new.  Grows the cell array to keep the load at or below 3/4.
  Cell& FindOrClaim(uint64_t key);

  /// Re-seats every live cell into a fresh array of `num_cells` (a power
  /// of two); the arena is untouched.
  void Rehash(size_t num_cells);

  std::vector<Cell> cells_;
  size_t cell_mask_ = 0;
  int cell_shift_ = 64;
  /// The slot arena every bucket's range points into.
  std::vector<uint32_t> arena_;
  size_t num_buckets_ = 0;
  size_t num_entries_ = 0;
  size_t max_bucket_size_ = 0;
};

/// One bucket lookup: `key` in `table`.
struct BucketProbe {
  const BlockingTable* table = nullptr;
  uint64_t key = 0;
};

/// Lookups ProbeBuckets() keeps in flight at once.  Large enough to cover
/// a C1 probe's 178 tables in three chunks, small enough that the chunk's
/// stack arrays stay in L1.
inline constexpr size_t kProbeChunk = 64;

/// Invokes `cb` with the non-empty bucket of each probe_at(0), ...,
/// probe_at(n - 1), in that order: exactly the spans a plain loop of
/// Get() calls would emit, fetched in the phases the file comment
/// describes.  `probe_at(j)` returns the j-th BucketProbe.
template <typename ProbeAt>
void ProbeBuckets(size_t n, const ProbeAt& probe_at,
                  FunctionRef<void(std::span<const uint32_t>)> cb) {
  BucketProbe probes[kProbeChunk];
  std::span<const uint32_t> buckets[kProbeChunk];
  for (size_t base = 0; base < n; base += kProbeChunk) {
    const size_t count = std::min(kProbeChunk, n - base);
    for (size_t j = 0; j < count; ++j) probes[j] = probe_at(base + j);
    for (size_t j = 0; j < count; ++j) {
      probes[j].table->PrefetchHome(probes[j].key);
    }
    for (size_t j = 0; j < count; ++j) {
      buckets[j] = probes[j].table->Get(probes[j].key);
      if (!buckets[j].empty()) __builtin_prefetch(buckets[j].data());
    }
    for (size_t j = 0; j < count; ++j) {
      if (!buckets[j].empty()) cb(buckets[j]);
    }
  }
}

}  // namespace cbvlink

#endif  // CBVLINK_LSH_BLOCKING_TABLE_H_
