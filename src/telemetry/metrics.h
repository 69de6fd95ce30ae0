// Telemetry: named counters, gauges, and fixed-boundary log-scale
// histograms, collected into a Registry that exporters
// (src/telemetry/exporters.h) turn into Prometheus text or JSON.
//
// The hot-path contract is that recording a sample never takes a lock
// and never contends with other recording threads: Counter and
// Histogram stripe their state across cache-line-padded atomic cells
// indexed by a per-thread slot, so `Record`/`Add` is a handful of
// relaxed atomic RMWs on a (usually) thread-private line.  Reads
// (Value / Snap / Collect) sum across cells and are approximate only in
// the sense that they observe a linearizable-per-cell, racy-across-cell
// cut — totals are exact once writers quiesce, which is what the
// exporters and tests rely on.
//
// Why these metrics exist at all: the paper's tunables (m_opt from
// Theorem 1, L = ceil(ln delta / ln(1 - p^K)) from Eq. 2) manifest at
// runtime as bucket-occupancy skew and candidate/comparison ratios.
// The serving layer feeds those into its registry (match-funnel
// counters, per-table LSH gauges, latency histograms) so the collision
// behaviour the guarantees depend on is observable in production, not
// only in offline benches.
//
// Naming convention: Prometheus-style snake_case; an optional label set
// may be embedded in the name itself ('lsh_table_buckets{table="3"}',
// see LabeledName).  Counters end in `_total`; histogram names carry
// their unit suffix (`query_latency_us`).

#ifndef CBVLINK_TELEMETRY_METRICS_H_
#define CBVLINK_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cbvlink {
namespace telemetry {

/// Number of atomic cells a striped metric spreads across (power of two).
inline constexpr size_t kMetricCells = 16;

/// Formats 'base{key="value"}' — the embedded-label naming convention
/// the exporters understand (value must not contain '"' or '\').
std::string LabeledName(const std::string& base, const std::string& key,
                        const std::string& value);

/// A monotonically increasing counter.  Add() is wait-free and
/// contention-free across threads (per-thread cell striping).
class Counter {
 public:
  void Add(uint64_t n = 1);

  /// Sum across cells.  Exact once writers quiesce.
  uint64_t Value() const;

  /// Zeroes every cell (test support; see Registry::ResetForTest).
  void Reset();

 private:
  friend class Registry;
  Counter() = default;

  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kMetricCells> cells_;
};

/// A settable point-in-time value (doubles; typically written by a
/// collection pass such as LinkageService::CollectTelemetry, not a hot
/// path).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  friend class Registry;
  Gauge() = default;

  std::atomic<double> value_{0};
};

/// A histogram over non-negative integer samples (latencies in
/// microseconds, bucket sizes, ...) with fixed log2 boundaries:
/// finite bucket i counts samples <= 2^i for i in [0, kFiniteBuckets),
/// one overflow bucket catches the rest.  2^27 us ~ 134 s, so the
/// span covers sub-microsecond calls up to pathological stalls.
///
/// Record() is wait-free (cell striping, like Counter); Snap() sums the
/// cells into an immutable Snapshot from which quantiles are extracted
/// by linear interpolation inside the target bucket (exact count, sum
/// and max are tracked alongside, so Max() is not an estimate).
class Histogram {
 public:
  static constexpr size_t kFiniteBuckets = 28;
  static constexpr size_t kBuckets = kFiniteBuckets + 1;  // + overflow

  /// Upper bound of finite bucket i (2^i).
  static uint64_t UpperBound(size_t i) { return uint64_t{1} << i; }

  /// Index of the bucket that counts `value`.
  static size_t BucketIndex(uint64_t value);

  void Record(uint64_t value);

  /// An immutable point-in-time copy of the histogram state.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    /// Non-cumulative per-bucket counts (finite buckets, then overflow).
    std::array<uint64_t, kBuckets> buckets{};

    double Mean() const {
      return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
    }

    /// Quantile q in [0, 1]: locates the bucket holding the q*count-th
    /// sample and interpolates linearly between its bounds (the upper
    /// bound of the last bucket is the exact tracked max).  Within a
    /// factor-2 bucket the error is bounded by the bucket width; for
    /// q = 1 the exact max is returned.
    double Quantile(double q) const;
  };

  Snapshot Snap() const;

  /// Zeroes every cell (test support; see Registry::ResetForTest).
  void Reset();

 private:
  friend class Registry;
  Histogram() = default;

  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kBuckets> counts{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::array<Cell, kMetricCells> cells_;
};

/// Metric namespace: name -> metric, one map per kind.  Get* registers
/// on first use and returns a stable pointer for the registry's
/// lifetime, so call sites resolve their handles once and record
/// lock-free afterwards.  All methods are thread-safe.
///
/// Process-scoped code (journal, matcher, net server) records into
/// Registry::Global(); each LinkageService owns a private registry, so
/// several services in one process keep separate numbers, and exports
/// merge the two scopes (MergeSnapshots).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry.
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// A coherent-enough copy of every metric, sorted by name within each
  /// kind (deterministic exporter output).
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  Snapshot Collect() const;

  /// Zeroes every registered metric IN PLACE — handles stay valid, so a
  /// test can isolate itself from earlier traffic on the global
  /// registry without invalidating pointers held by live services.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// One snapshot of two registries: `scoped`'s series merged into
/// `base`, each kind still sorted by name (deterministic exporter
/// output).  On a name present in both, `scoped`'s value is kept.
Registry::Snapshot MergeSnapshots(Registry::Snapshot base,
                                  const Registry::Snapshot& scoped);

/// Records the scope's wall-clock duration, in microseconds, into a
/// histogram on destruction.  `histogram` may be null (no-op) so call
/// sites don't need to guard partially initialised telemetry.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_(Clock::now()) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(ElapsedMicros());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

}  // namespace telemetry
}  // namespace cbvlink

#endif  // CBVLINK_TELEMETRY_METRICS_H_
