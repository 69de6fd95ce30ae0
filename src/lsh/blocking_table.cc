#include "src/lsh/blocking_table.h"

#include <algorithm>
#include <bit>

namespace cbvlink {

BlockingTable::Slot& BlockingTable::Probe(uint64_t key) {
  for (size_t pos = Home(key);; pos = (pos + 1) & slot_mask_) {
    Slot& slot = slots_[pos];
    if (slot.size == 0 || slot.key == key) return slot;
  }
}

BlockingTable::Slot& BlockingTable::FindOrClaim(uint64_t key) {
  if ((num_buckets_ + 1) * 4 > slots_.size() * 3) {
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }
  Slot& slot = Probe(key);
  if (slot.size == 0) {
    slot.key = key;
    ++num_buckets_;
  }
  return slot;
}

void BlockingTable::Rehash(size_t num_slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(num_slots, Slot{});
  slot_mask_ = num_slots - 1;
  slot_shift_ = 64 - std::countr_zero(num_slots);
  for (const Slot& slot : old) {
    if (slot.size != 0) Probe(slot.key) = slot;
  }
}

void BlockingTable::Insert(uint64_t key, RecordId id) {
  Slot& slot = FindOrClaim(key);
  if (slot.size == slot.capacity) {
    // Full (or new): move the bucket to the arena end at double capacity.
    // The old range stays behind as dead space until the next rebuild.
    const size_t begin = ids_.size();
    slot.capacity = slot.capacity == 0 ? 1 : slot.capacity * 2;
    ids_.resize(begin + slot.capacity);
    std::copy_n(ids_.begin() + slot.begin, slot.size, ids_.begin() + begin);
    slot.begin = begin;
  }
  ids_[slot.begin + slot.size++] = id;
  ++num_entries_;
  max_bucket_size_ = std::max<size_t>(max_bucket_size_, slot.size);
}

void BlockingTable::BulkInsert(const uint64_t* keys, size_t key_stride,
                               std::span<const RecordId> ids) {
  if (num_buckets_ != 0) {
    for (size_t i = 0; i < ids.size(); ++i) {
      Insert(keys[i * key_stride], ids[i]);
    }
    return;
  }
  // Pass 1: count each key's Ids; the slot array grows with the distinct
  // keys seen.
  for (size_t i = 0; i < ids.size(); ++i) {
    ++FindOrClaim(keys[i * key_stride]).size;
  }
  // Pass 2: prefix sum.  Each bucket's begin starts at its end and pass 3
  // fills it backwards, so the records walk in reverse and every bucket
  // still ends in insertion order.
  uint64_t end = 0;
  for (Slot& slot : slots_) {
    if (slot.size == 0) continue;
    end += slot.size;
    slot.begin = end;
    slot.capacity = slot.size;
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, slot.size);
  }
  // Pass 3: fill.
  ids_.assign(end, 0);
  for (size_t i = ids.size(); i-- > 0;) {
    ids_[--Probe(keys[i * key_stride]).begin] = ids[i];
  }
  num_entries_ = ids.size();
}

std::vector<uint64_t> BlockingTable::OccupancyHistogram(size_t slots) const {
  std::vector<uint64_t> histogram(std::max<size_t>(slots, 1), 0);
  for (const Slot& slot : slots_) {
    if (slot.size == 0) continue;
    const size_t bin = std::min(
        histogram.size() - 1,
        static_cast<size_t>(std::bit_width(slot.size) - 1));
    ++histogram[bin];
  }
  return histogram;
}

void BlockingTable::Clear() { *this = BlockingTable(); }

void BlockingTable::Erase(RecordId id) {
  max_bucket_size_ = 0;
  bool emptied = false;
  for (Slot& slot : slots_) {
    if (slot.size == 0) continue;
    RecordId* const first = ids_.data() + slot.begin;
    RecordId* const last = std::remove(first, first + slot.size, id);
    const auto kept = static_cast<uint32_t>(last - first);
    num_entries_ -= slot.size - kept;
    slot.size = kept;
    if (kept == 0) {
      --num_buckets_;
      emptied = true;
    }
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, kept);
  }
  // An emptied slot now reads as free, which would cut the probe chains
  // running through it; re-seat the survivors.
  if (emptied) Rehash(slots_.size());
}

void BlockingTable::ForEachBucket(
    FunctionRef<void(uint64_t, std::span<const RecordId>)> fn) const {
  for (const Slot& slot : slots_) {
    if (slot.size != 0) fn(slot.key, {ids_.data() + slot.begin, slot.size});
  }
}

bool operator==(const BlockingTable& x, const BlockingTable& y) {
  if (x.num_buckets_ != y.num_buckets_ || x.num_entries_ != y.num_entries_) {
    return false;
  }
  for (const BlockingTable::Slot& slot : x.slots_) {
    if (slot.size == 0) continue;
    const std::span<const RecordId> theirs = y.Get(slot.key);
    if (!std::ranges::equal(
            std::span<const RecordId>(x.ids_.data() + slot.begin, slot.size),
            theirs)) {
      return false;
    }
  }
  return true;
}

}  // namespace cbvlink
