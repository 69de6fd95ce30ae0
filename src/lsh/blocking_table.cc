#include "src/lsh/blocking_table.h"

#include <algorithm>
#include <bit>

namespace cbvlink {

BlockingTable::Cell& BlockingTable::Probe(uint64_t key) {
  for (size_t pos = Home(key);; pos = (pos + 1) & cell_mask_) {
    Cell& cell = cells_[pos];
    if (cell.size == 0 || cell.key == key) return cell;
  }
}

BlockingTable::Cell& BlockingTable::FindOrClaim(uint64_t key) {
  if ((num_buckets_ + 1) * 4 > cells_.size() * 3) {
    Rehash(cells_.empty() ? 16 : cells_.size() * 2);
  }
  Cell& cell = Probe(key);
  if (cell.size == 0) {
    cell.key = key;
    ++num_buckets_;
  }
  return cell;
}

void BlockingTable::Rehash(size_t num_cells) {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(num_cells, Cell{});
  cell_mask_ = num_cells - 1;
  cell_shift_ = 64 - std::countr_zero(num_cells);
  for (const Cell& cell : old) {
    if (cell.size != 0) Probe(cell.key) = cell;
  }
}

void BlockingTable::Insert(uint64_t key, uint32_t slot) {
  Cell& cell = FindOrClaim(key);
  if (cell.size == cell.capacity) {
    // Full (or new): move the bucket to the arena end at double capacity.
    // The old range stays behind as dead space until the next rebuild.
    const size_t begin = arena_.size();
    cell.capacity = cell.capacity == 0 ? 1 : cell.capacity * 2;
    arena_.resize(begin + cell.capacity);
    std::copy_n(arena_.begin() + cell.begin, cell.size,
                arena_.begin() + begin);
    cell.begin = begin;
  }
  arena_[cell.begin + cell.size++] = slot;
  ++num_entries_;
  max_bucket_size_ = std::max<size_t>(max_bucket_size_, cell.size);
}

void BlockingTable::BulkInsert(const uint64_t* keys, size_t key_stride,
                               std::span<const uint32_t> slots) {
  if (num_buckets_ != 0) {
    for (size_t i = 0; i < slots.size(); ++i) {
      Insert(keys[i * key_stride], slots[i]);
    }
    return;
  }
  // Pass 1: count each key's entries; the cell array grows with the
  // distinct keys seen.
  for (size_t i = 0; i < slots.size(); ++i) {
    ++FindOrClaim(keys[i * key_stride]).size;
  }
  // Pass 2: prefix sum.  Each bucket's begin starts at its end and pass 3
  // fills it backwards, so the records walk in reverse and every bucket
  // still ends in insertion order.
  uint64_t end = 0;
  for (Cell& cell : cells_) {
    if (cell.size == 0) continue;
    end += cell.size;
    cell.begin = end;
    cell.capacity = cell.size;
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, cell.size);
  }
  // Pass 3: fill.
  arena_.assign(end, 0);
  for (size_t i = slots.size(); i-- > 0;) {
    arena_[--Probe(keys[i * key_stride]).begin] = slots[i];
  }
  num_entries_ = slots.size();
}

std::vector<uint64_t> BlockingTable::OccupancyHistogram(size_t bins) const {
  std::vector<uint64_t> histogram(std::max<size_t>(bins, 1), 0);
  for (const Cell& cell : cells_) {
    if (cell.size == 0) continue;
    const size_t bin = std::min(
        histogram.size() - 1,
        static_cast<size_t>(std::bit_width(cell.size) - 1));
    ++histogram[bin];
  }
  return histogram;
}

void BlockingTable::Clear() { *this = BlockingTable(); }

void BlockingTable::Erase(uint32_t slot) {
  max_bucket_size_ = 0;
  bool emptied = false;
  for (Cell& cell : cells_) {
    if (cell.size == 0) continue;
    uint32_t* const first = arena_.data() + cell.begin;
    uint32_t* const last = std::remove(first, first + cell.size, slot);
    const auto kept = static_cast<uint32_t>(last - first);
    num_entries_ -= cell.size - kept;
    cell.size = kept;
    if (kept == 0) {
      --num_buckets_;
      emptied = true;
    }
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, kept);
  }
  // An emptied cell now reads as free, which would cut the probe chains
  // running through it; re-seat the survivors.
  if (emptied) Rehash(cells_.size());
}

void BlockingTable::ForEachBucket(
    FunctionRef<void(uint64_t, std::span<const uint32_t>)> fn) const {
  for (const Cell& cell : cells_) {
    if (cell.size != 0) fn(cell.key, {arena_.data() + cell.begin, cell.size});
  }
}

bool operator==(const BlockingTable& x, const BlockingTable& y) {
  if (x.num_buckets_ != y.num_buckets_ || x.num_entries_ != y.num_entries_) {
    return false;
  }
  for (const BlockingTable::Cell& cell : x.cells_) {
    if (cell.size == 0) continue;
    const std::span<const uint32_t> theirs = y.Get(cell.key);
    if (!std::ranges::equal(
            std::span<const uint32_t>(x.arena_.data() + cell.begin, cell.size),
            theirs)) {
      return false;
    }
  }
  return true;
}

}  // namespace cbvlink
