#include "src/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace cbvlink {
namespace telemetry {

namespace {

/// Stable per-thread cell slot: threads are assigned round-robin on
/// first touch, so up to kMetricCells concurrent recorders never share
/// a cache line.  (A hash of std::thread::id would work too, but this
/// guarantees perfect spreading for the first kMetricCells threads —
/// exactly the pool sizes the service layer runs.)
size_t ThreadCell() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot & (kMetricCells - 1);
}

void AtomicMaxRelaxed(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Merges two name-sorted series lists; `scoped` wins a name collision.
template <typename T>
void MergeSeries(std::vector<std::pair<std::string, T>>* base,
                 const std::vector<std::pair<std::string, T>>& scoped) {
  std::vector<std::pair<std::string, T>> merged;
  merged.reserve(base->size() + scoped.size());
  auto a = base->begin();
  auto b = scoped.begin();
  while (a != base->end() || b != scoped.end()) {
    if (b == scoped.end() || (a != base->end() && a->first < b->first)) {
      merged.push_back(std::move(*a++));
      continue;
    }
    if (a != base->end() && a->first == b->first) ++a;
    merged.push_back(*b++);
  }
  *base = std::move(merged);
}

}  // namespace

std::string LabeledName(const std::string& base, const std::string& key,
                        const std::string& value) {
  return base + "{" + key + "=\"" + value + "\"}";
}

void Counter::Add(uint64_t n) {
  cells_[ThreadCell()].value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

size_t Histogram::BucketIndex(uint64_t value) {
  if (value <= 1) return 0;
  const size_t index = static_cast<size_t>(std::bit_width(value - 1));
  return index < kFiniteBuckets ? index : kFiniteBuckets;
}

void Histogram::Record(uint64_t value) {
  Cell& cell = cells_[ThreadCell()];
  cell.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMaxRelaxed(&cell.max, value);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  for (const Cell& cell : cells_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = cell.counts[i].load(std::memory_order_relaxed);
      snap.buckets[i] += c;
      snap.count += c;
    }
    snap.sum += cell.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, cell.max.load(std::memory_order_relaxed));
  }
  return snap;
}

void Histogram::Reset() {
  for (Cell& cell : cells_) {
    for (auto& count : cell.counts) count.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
    cell.max.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      double lower =
          i == 0 ? 0 : static_cast<double>(UpperBound(i - 1));
      double upper = i < kFiniteBuckets
                         ? static_cast<double>(UpperBound(i))
                         : static_cast<double>(max);
      // The exact max tightens the last occupied bucket's upper bound
      // (and, degenerately, its lower bound when every sample is equal).
      upper = std::min(upper, static_cast<double>(max));
      lower = std::min(lower, upper);
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + std::clamp(fraction, 0.0, 1.0) * (upper - lower);
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // intentionally leaked
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::scoped_lock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::scoped_lock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::scoped_lock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram());
  return slot.get();
}

Registry::Snapshot Registry::Collect() const {
  Snapshot snap;
  std::scoped_lock lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->Snap());
  }
  return snap;
}

Registry::Snapshot MergeSnapshots(Registry::Snapshot base,
                                  const Registry::Snapshot& scoped) {
  MergeSeries(&base.counters, scoped.counters);
  MergeSeries(&base.gauges, scoped.gauges);
  MergeSeries(&base.histograms, scoped.histograms);
  return base;
}

void Registry::ResetForTest() {
  std::scoped_lock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace telemetry
}  // namespace cbvlink
