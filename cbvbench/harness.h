// Shared plumbing of the cbvbench workloads: sample statistics, the
// metric table every workload fills, correctness checks, the span
// recorder of traced runs, and the Section 6 configurations.
//
// The benchmark measures cbvlink from outside: it times calls into public
// functions and reads counters the public API returns.  Nothing here
// reaches into src/ internals.

#ifndef CBVBENCH_HARNESS_H_
#define CBVBENCH_HARNESS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/embedding/record_encoder.h"
#include "src/linkage/cbv_hb_linker.h"

namespace cbvbench {

using cbvlink::IdPair;
using cbvlink::Record;
using cbvlink::RecordId;

/// Monotonic nanoseconds since an arbitrary process-wide origin.
uint64_t NowNs();

/// Seconds elapsed since `start_ns`.
inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// A bag of measurements; percentiles use the nearest-rank definition.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q);
  double Median() { return Percentile(0.5); }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// One reported number: value, unit and how many samples it summarises.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Ordered name -> Metric table.  Set() on an existing name overwrites it
/// in place, so a workload can start from a declared list of names.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  const std::vector<std::pair<std::string, Metric>>& entries() const {
    return entries_;
  }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
};

/// A named correctness check; a failed check fails the run.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One span of a traced run: a call into one layer, timed from outside.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< shared by every span of one op
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// In-memory span store, written once at the end as Chrome trace JSON.
/// A null recorder (untraced runs) makes every ScopedSpan a no-op.
class SpanRecorder {
 public:
  uint64_t NextId();
  void Record(Span span);
  size_t size() const;
  cbvlink::Status WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span: starts at construction, recorded at destruction or End().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void End();

 private:
  SpanRecorder* recorder_;
  Span span_;
  bool open_ = true;
};

/// Arguments of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for snapshots, journals and the trace file; must exist.
  std::string work_dir;
  std::string source_id;
  /// Threads for pools and connection/worker counts, capped by nproc.
  size_t pool_threads = 4;
  size_t connections = 2;
  /// Span store of a traced run; null when untraced.
  SpanRecorder* spans = nullptr;
};

/// Everything a workload reports.
struct RunResult {
  /// Gated end-to-end metrics (untraced runs).
  MetricTable end_to_end;
  /// Per-layer metrics (traced runs).
  MetricTable per_layer;
  /// The workload-specific end-to-end metrics (link_rps, qps,
  /// match_p50_us, write_p99_us, recover_s, error_rate, ...), printed in
  /// the report with unit and sample count but not gated.
  MetricTable detail;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> provenance;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The gated end-to-end metric names, in report order.  Every workload
/// sets all of them.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Declares every per-layer metric at 0 with 0 samples; a workload then
/// overwrites the layers it exercises.
void DeclarePerLayer(MetricTable* table);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Order-independent digest of a pair set (sorted, then FNV-1a).
uint64_t PairDigest(std::vector<IdPair> pairs);

/// Hex rendering of a 64-bit digest.
std::string Hex(uint64_t value);

/// The paper's Section 6 configurations (they mirror bench/bench_util.h
/// and are copied so the benchmark's inputs stay fixed when that header
/// changes).  PL: record-level HB, K = 30, theta = 4, all four attributes
/// within 4.  PH: attribute-level rule-aware blocking with rule C1
/// (f1 <= 4 AND f2 <= 4 AND f3 <= 8) and Table 3's per-attribute K.  Both
/// size the c-vectors from Table 3's b^(f_i) rather than a per-seed
/// sample.
cbvlink::CbvHbConfig PlConfig(const cbvlink::Schema& schema);
cbvlink::CbvHbConfig PhConfig(const cbvlink::Schema& schema);

/// The LSH / hash-function seed of every configuration (a program
/// setting, not an input: the workload seed only drives the data).
inline constexpr uint64_t kPipelineSeed = 7;

/// Per-record Encode() calls timed for embedding.encode_us.
inline constexpr size_t kEncodeLatencySamples = 5000;

/// Hamming distance of `a` and `b` over bits [offset, offset + length),
/// one bit at a time — the scalar reference the checks use, independent
/// of the SIMD kernels.
size_t ScalarRangeDistance(const cbvlink::BitVector& a,
                           const cbvlink::BitVector& b, size_t offset,
                           size_t length);

/// True when the rule holds for (a, b) under scalar per-attribute
/// distances.
bool RuleHoldsScalar(const cbvlink::Rule& rule,
                     const cbvlink::RecordLayout& layout,
                     const cbvlink::BitVector& a,
                     const cbvlink::BitVector& b);

/// What the blocking-layer probe measured: build / collect / match times
/// of one external pass over a candidate source, with its counters.
struct BlockingLayer {
  double build_s = 0;
  double collect_s = 0;
  double match_s = 0;
  /// The most candidates the collect pass delivered to a single probe.
  uint64_t max_probe_candidates = 0;
  cbvlink::MatchStats stats;
  std::vector<IdPair> pairs;
};

/// Times CandidateSource::ForEachCandidateSpan over every probe (the
/// collect step alone) and then Matcher::MatchAll over the same probes,
/// both on `pool`.  `layer->build_s` is left to the caller.
void ProbeCollectAndMatch(const cbvlink::CandidateSource& source,
                          const cbvlink::VectorStore& store_a,
                          const std::vector<cbvlink::EncodedRecord>& probes,
                          const cbvlink::PairClassifier& classifier,
                          cbvlink::ThreadPool* pool, SpanRecorder* spans,
                          BlockingLayer* layer);

/// Writes the blocking.*, lsh.* and hamming.* metrics of one probe.
void SetBlockingMetrics(const BlockingLayer& layer, size_t num_probes,
                        size_t groups, size_t max_bucket,
                        size_t words_per_record, MetricTable* table);

/// Measures the text layer (normalize + q-gram extraction, ns per
/// record over `records` on `pool`) and the embedding layer (EncodeAll ns
/// per record, and per-record Encode latency over the first
/// `encode_samples` records), writing text.* and embedding.* metrics.
/// Returns the EncodeAll output.
std::vector<cbvlink::EncodedRecord> MeasureTextAndEmbedding(
    const cbvlink::CVectorRecordEncoder& encoder,
    const std::vector<Record>& records, size_t encode_samples,
    cbvlink::ThreadPool* pool, SpanRecorder* spans, MetricTable* table);

/// Measures the service, net and io layers on a link workload's data: a
/// LinkageService holding `registry` answers `queries` in process and over
/// the wire (plain and traced), then takes journaled inserts, updates and
/// deletes after a snapshot, compacts, and is recovered from snapshot +
/// journal.  Writes service.*, net.* and io.* metrics and one check.
void MeasureServedLayers(const cbvlink::CbvHbConfig& config,
                         const std::vector<Record>& registry,
                         const std::vector<Record>& queries,
                         const RunConfig& run, RunResult* out);

/// Workload entry points.
RunResult RunLinkWorkload(const RunConfig& config, bool heavy);
RunResult RunServeQuery(const RunConfig& config);
RunResult RunServeChurn(const RunConfig& config);

}  // namespace cbvbench

#endif  // CBVBENCH_HARNESS_H_
