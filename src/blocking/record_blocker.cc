#include "src/blocking/record_blocker.h"

#include <cstdio>

#include "src/common/thread_pool.h"
#include "src/lsh/params.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {

namespace {

/// Effective K for an m-bit space.  Distinct sampling cannot draw more
/// positions than the range holds; a larger configured K never added
/// selectivity anyway (the extra draws were guaranteed duplicates under
/// the old with-replacement sampling), so it is clamped with a notice
/// rather than rejected.
size_t ClampK(size_t K, size_t num_bits, const char* what) {
  if (K <= num_bits) return K;
  std::fprintf(stderr,
               "cbvlink: %s K = %zu exceeds the %zu-bit space; clamping "
               "to %zu (distinct bit positions)\n",
               what, K, num_bits, num_bits);
  return num_bits;
}

}  // namespace

void CandidateSource::ForEachCandidate(
    const BitVector& probe, const std::function<void(RecordId)>& cb) const {
  const std::span<const RecordId> ids = slot_ids();
  ForEachSlotSpan(probe, [&](std::span<const uint32_t> slots) {
    for (const uint32_t slot : slots) cb(ids[slot]);
  });
}

void CandidateSource::ForEachCandidateSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const RecordId>)> cb) const {
  const std::span<const RecordId> ids = slot_ids();
  std::vector<RecordId> bucket;
  ForEachSlotSpan(probe, [&](std::span<const uint32_t> slots) {
    bucket.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) bucket[i] = ids[slots[i]];
    cb(bucket);
  });
}

void CandidateSource::AssignSlot(std::vector<RecordId>* slot_ids,
                                 uint32_t slot, RecordId id) {
  if (slot >= slot_ids->size()) slot_ids->resize(size_t{slot} + 1);
  (*slot_ids)[slot] = id;
}

Result<RecordLevelBlocker> RecordLevelBlocker::Create(size_t num_bits,
                                                      size_t K, size_t theta,
                                                      double delta, Rng& rng) {
  K = ClampK(K, num_bits, "record-level");
  Result<double> p = HammingBaseProbability(theta, num_bits);
  if (!p.ok()) return p.status();
  Result<size_t> L = OptimalGroups(p.value(), K, delta);
  if (!L.ok()) return L.status();
  return CreateWithL(num_bits, K, L.value(), rng);
}

Result<RecordLevelBlocker> RecordLevelBlocker::CreateWithL(size_t num_bits,
                                                           size_t K, size_t L,
                                                           Rng& rng) {
  K = ClampK(K, num_bits, "record-level");
  Result<HammingLshFamily> family =
      HammingLshFamily::CreateFull(K, L, num_bits, rng);
  if (!family.ok()) return family.status();
  return RecordLevelBlocker(std::move(family).value());
}

void RecordLevelBlocker::Index(const std::vector<EncodedRecord>& records) {
  for (const EncodedRecord& record : records) {
    Insert(record, static_cast<uint32_t>(slot_ids_.size()));
  }
}

void RecordLevelBlocker::BulkInsert(std::span<const EncodedRecord> records,
                                    ThreadPool* pool, size_t min_chunk) {
  telemetry::Registry& reg = telemetry::Registry::Global();
  telemetry::ScopedTimer timer(
      reg.GetHistogram("index_build_batch_latency_us"));
  const size_t L = tables_.size();
  if (pool == nullptr || pool->num_threads() <= 1 || records.size() <= 1) {
    for (const EncodedRecord& record : records) {
      Insert(record, static_cast<uint32_t>(slot_ids_.size()));
    }
  } else {
    // Phase 1: the key matrix keys[i * L + l], sharded over records.
    // Every cell is written by exactly one chunk, so the matrix is
    // independent of the chunking.
    const size_t first = slot_ids_.size();
    std::vector<uint64_t> keys(records.size() * L);
    std::vector<uint32_t> slots(records.size());
    slot_ids_.resize(first + records.size());
    pool->ParallelFor(records.size(), min_chunk,
                      [&](size_t, size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          slots[i] = static_cast<uint32_t>(first + i);
                          slot_ids_[first + i] = records[i].id;
                          for (size_t l = 0; l < L; ++l) {
                            keys[i * L + l] = family_.Key(records[i].bits, l);
                          }
                        }
                      });
    // Phase 2: per-table merge in record order — each table is owned by
    // one chunk, and the column walk reproduces the serial insertion
    // sequence exactly.
    pool->ParallelFor(L, [&](size_t, size_t begin, size_t end) {
      for (size_t l = begin; l < end; ++l) {
        tables_[l].BulkInsert(keys.data() + l, L, slots);
      }
    });
  }
  reg.GetCounter("index_build_records_total")->Add(records.size());
}

void RecordLevelBlocker::Insert(const EncodedRecord& record, uint32_t slot) {
  AssignSlot(&slot_ids_, slot, record.id);
  for (size_t l = 0; l < tables_.size(); ++l) {
    tables_[l].Insert(family_.Key(record.bits, l), slot);
  }
}

void RecordLevelBlocker::ForEachSlotSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const uint32_t>)> cb) const {
  ProbeBuckets(
      tables_.size(),
      [&](size_t l) {
        return BucketProbe{&tables_[l], family_.Key(probe, l)};
      },
      cb);
}

size_t RecordLevelBlocker::TotalBuckets() const {
  size_t total = 0;
  for (const BlockingTable& table : tables_) total += table.NumBuckets();
  return total;
}

size_t RecordLevelBlocker::TotalEntries() const {
  size_t total = 0;
  for (const BlockingTable& table : tables_) total += table.NumEntries();
  return total;
}

size_t RecordLevelBlocker::MaxBucketSize() const {
  size_t best = 0;
  for (const BlockingTable& table : tables_) {
    best = std::max(best, table.MaxBucketSize());
  }
  return best;
}

}  // namespace cbvlink
