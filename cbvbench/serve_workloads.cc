// serve_query and serve_churn: an in-process NetServer in front of a
// LinkageService, driven by closed-loop binary-protocol connections (each
// connection sends its next request only after the previous reply).
//
// serve_query is the read path of a registry far bigger than the caches:
// match-only requests, so the service's store and index dominate.
// serve_churn is a small registry under a seeded mix of matches, inserts,
// updates and deletes with a journal attached and the background
// compactor on: there the wire and queue dominate, and a read-side gain
// that costs writes, compaction or recovery shows.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cbvbench/harness.h"
#include "src/blocking/record_blocker.h"
#include "src/common/random.h"
#include "src/common/str.h"
#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"
#include "src/io/journal.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_sink.h"

namespace cbvbench {
namespace {

using cbvlink::CbvHbConfig;
using cbvlink::EncodedRecord;
using cbvlink::LinkageService;
using cbvlink::Result;
using cbvlink::Rng;
using cbvlink::ServiceMetrics;
using cbvlink::Status;
using cbvlink::StatusCode;
using cbvlink::StrFormat;

constexpr size_t kQueryRegistry = 500000;
constexpr size_t kQueryPool = 50000;
constexpr size_t kQuerySetupReps = 3;
constexpr size_t kChurnRegistry = 20000;
constexpr size_t kChurnSetupReps = 5;
/// Churn op streams are generated up front; this per-connection rate is
/// well above what one closed-loop connection reaches on loopback, so a
/// run ends on time rather than by running out of ops.
constexpr size_t kChurnOpsPerConnectionSecond = 30000;
/// Ops of each fixed-size in-process and traced pass (split over the
/// connections), so the counts they yield repeat exactly per seed.
constexpr size_t kPassOps = 20000;
constexpr size_t kWarmupOpsPerConnection = 2000;
constexpr size_t kCalibrationSample = 1000;
/// Planted and fresh queries of the quiescent serve_churn pass.
constexpr size_t kQuiescentQueries = 4000;
/// Query record ids live far above every registry or insert id.
constexpr RecordId kQueryIdBase = RecordId{1} << 40;
/// Of each write kind, in the served-layer probe of a link workload.
constexpr size_t kServedLayerWrites = 2000;
/// A delete drawn when a connection has this few live records becomes an
/// insert, so the live set never drains.
constexpr size_t kMinLivePerConnection = 100;

enum class OpKind : uint8_t { kMatch, kInsert, kUpdate, kDelete };

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMatch:
      return "match";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kDelete:
      return "delete";
  }
  return "?";
}

/// One request of a stream.  For a match, `source` is the registry id
/// the query was perturbed from (the planted true pair), or kNoSource.
struct Op {
  static constexpr RecordId kNoSource = ~RecordId{0};
  OpKind kind = OpKind::kMatch;
  Record record;
  RecordId source = kNoSource;
};

Record PerturbPl(const Record& source, RecordId id, Rng& rng) {
  Result<Record> perturbed = cbvlink::Perturbator::Apply(
      source, cbvlink::PerturbationScheme::Light(), rng, nullptr);
  Record out = perturbed.ok() ? std::move(perturbed).value() : source;
  out.id = id;
  return out;
}

/// Live records of one connection's id range, with O(1) random pick.
class LiveModel {
 public:
  void Put(const Record& record) {
    if (records_.emplace(record.id, record).second) {
      position_[record.id] = ids_.size();
      ids_.push_back(record.id);
    } else {
      records_[record.id] = record;
    }
  }
  void Remove(RecordId id) {
    const size_t at = position_[id];
    position_[ids_.back()] = at;
    ids_[at] = ids_.back();
    ids_.pop_back();
    position_.erase(id);
    records_.erase(id);
  }
  RecordId Pick(Rng& rng) const { return ids_[rng.Below(ids_.size())]; }
  const Record& Get(RecordId id) const { return records_.at(id); }
  size_t size() const { return ids_.size(); }
  const std::unordered_map<RecordId, Record>& records() const {
    return records_;
  }
  void Apply(const Op& op) {
    if (op.kind == OpKind::kInsert || op.kind == OpKind::kUpdate) {
      Put(op.record);
    } else if (op.kind == OpKind::kDelete) {
      Remove(op.record.id);
    }
  }

 private:
  std::vector<RecordId> ids_;
  std::unordered_map<RecordId, size_t> position_;
  std::unordered_map<RecordId, Record> records_;
};

/// A served service; the server is declared last so it stops first.
struct Fixture {
  std::unique_ptr<LinkageService> service;
  std::unique_ptr<cbvlink::net::NetServer> server;
};

cbvlink::LinkageServiceOptions ServiceOptions(const RunConfig& run) {
  cbvlink::LinkageServiceOptions options;
  options.execution = cbvlink::ExecutionOptions::WithThreads(run.pool_threads);
  return options;
}

Result<std::unique_ptr<cbvlink::net::NetServer>> StartServer(
    LinkageService* service, const RunConfig& run,
    cbvlink::telemetry::TraceSink* sink) {
  cbvlink::net::NetServerOptions options;
  options.num_workers = run.connections;
  options.trace_sink = sink;
  return cbvlink::net::NetServer::Start(service, options);
}

Result<std::unique_ptr<LinkageService>> CreateService(
    const CbvHbConfig& config, const RunConfig& run,
    const std::vector<Record>& registry) {
  const std::vector<Record> calibration(
      registry.begin(),
      registry.begin() + std::min(kCalibrationSample, registry.size()));
  return LinkageService::Create(config, ServiceOptions(run), calibration);
}

/// The timed set-up: Create + InsertBatch + snapshot save (+ journal
/// attach and compactor start when `journal_path` is set) + server start.
Status SetUp(const CbvHbConfig& config, const RunConfig& run,
             const std::vector<Record>& registry,
             const std::string& snapshot_path,
             const std::string& journal_path, Fixture* fixture,
             double* insert_batch_s) {
  Result<std::unique_ptr<LinkageService>> service =
      CreateService(config, run, registry);
  if (!service.ok()) return service.status();
  fixture->service = std::move(service).value();
  const uint64_t insert_start = NowNs();
  CBVLINK_RETURN_NOT_OK(fixture->service->InsertBatch(registry));
  *insert_batch_s = SecondsSince(insert_start);
  CBVLINK_RETURN_NOT_OK(fixture->service->SaveSnapshotToFile(snapshot_path));
  if (!journal_path.empty()) {
    cbvlink::JournalOptions journal_options;
    journal_options.fsync_every = 0;  // never: see the workload's docs
    Result<std::unique_ptr<cbvlink::Journal>> journal =
        cbvlink::Journal::Open(journal_path, journal_options);
    if (!journal.ok()) return journal.status();
    fixture->service->AttachJournal(std::move(journal).value());
    fixture->service->StartBackgroundCompaction();
  }
  Result<std::unique_ptr<cbvlink::net::NetServer>> server =
      StartServer(fixture->service.get(), run, nullptr);
  if (!server.ok()) return server.status();
  fixture->server = std::move(server).value();
  return Status::OK();
}

/// Tears a fixture down (untimed) and removes its files.
void TearDown(Fixture* fixture, const std::string& snapshot_path,
              const std::string& journal_path) {
  fixture->server.reset();
  fixture->service.reset();
  std::remove(snapshot_path.c_str());
  if (!journal_path.empty()) std::remove(journal_path.c_str());
}

/// What one connection observed.
struct ConnectionStats {
  Samples match_us;
  Samples write_us;
  Samples all_us;
  /// Completion time (ns) and latency (us) of every acknowledged op.
  std::vector<std::pair<uint64_t, double>> completions;
  /// Per op, in order: acknowledged OK, and the reply's pair digest.
  std::vector<uint8_t> acked;
  std::vector<uint64_t> digests;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t reconnects = 0;
  /// Traced passes only: server-reported queue and total time, and the
  /// client-observed time minus the server total.
  Samples queue_us;
  Samples server_total_us;
  Samples client_gap_us;
};

/// How a closed loop picks and sends its ops.
struct LoopSpec {
  /// The op of this connection's k-th request.
  std::function<const Op&(size_t)> op_at;
  /// Ops available (the loop stops there or at the deadline).
  size_t limit = 0;
  uint64_t deadline_ns = UINT64_MAX;
  /// Attach a trace id to each request and read the kServerTiming frame.
  bool traced = false;
};

Status Send(cbvlink::net::NetClient* client, const Op& op,
            std::vector<IdPair>* pairs) {
  switch (op.kind) {
    case OpKind::kMatch:
      return client->Match(op.record, pairs);
    case OpKind::kInsert:
      return client->Insert(op.record);
    case OpKind::kUpdate:
      return client->Update(op.record);
    case OpKind::kDelete:
      return client->Delete(op.record.id);
  }
  return Status::Internal("unknown op");
}

/// One closed-loop connection: a plain NetClient, no retries.  A
/// transport error counts as a failed op and reconnects.
void ClosedLoop(uint16_t port, const LoopSpec& spec, SpanRecorder* spans,
                ConnectionStats* stats) {
  Result<std::unique_ptr<cbvlink::net::NetClient>> connected =
      cbvlink::net::NetClient::Connect("127.0.0.1", port);
  std::unique_ptr<cbvlink::net::NetClient> client =
      connected.ok() ? std::move(connected).value() : nullptr;
  std::vector<IdPair> pairs;
  for (size_t k = 0; k < spec.limit && NowNs() < spec.deadline_ns; ++k) {
    const Op& op = spec.op_at(k);
    if (client == nullptr) {
      ++stats->failed;
      stats->acked.push_back(0);
      stats->digests.push_back(0);
      connected = cbvlink::net::NetClient::Connect("127.0.0.1", port);
      if (connected.ok()) client = std::move(connected).value();
      ++stats->reconnects;
      continue;
    }
    uint64_t trace_id = 0;
    if (spec.traced) {
      trace_id = cbvlink::telemetry::GenerateTraceId();
      client->set_trace(trace_id);
    }
    pairs.clear();
    ScopedSpan span(spans, OpKindName(op.kind), 0, trace_id);
    const uint64_t start = NowNs();
    const Status status = Send(client.get(), op, &pairs);
    const uint64_t end = NowNs();
    const double us = static_cast<double>(end - start) / 1e3;
    span.End();
    stats->all_us.Add(us);
    (op.kind == OpKind::kMatch ? stats->match_us : stats->write_us).Add(us);
    stats->acked.push_back(status.ok() ? 1 : 0);
    stats->digests.push_back(status.ok() ? PairDigest(pairs) : 0);
    if (status.ok()) stats->completions.emplace_back(end, us);
    if (!status.ok()) {
      ++stats->failed;
      if (status.code() == StatusCode::kResourceExhausted) ++stats->shed;
      if (status.code() == StatusCode::kDeadlineExceeded) {
        ++stats->deadline_exceeded;
      }
      if (status.code() == StatusCode::kIOError) client.reset();
      continue;
    }
    if (spec.traced) {
      for (const cbvlink::net::StageTiming& timing :
           client->last_server_timing()) {
        if (timing.stage == cbvlink::net::TimingStage::kQueue) {
          stats->queue_us.Add(timing.dur_us);
        } else if (timing.stage == cbvlink::net::TimingStage::kTotal) {
          stats->server_total_us.Add(timing.dur_us);
          stats->client_gap_us.Add(us - timing.dur_us);
        }
      }
    }
  }
}

/// The timed loop seen one second at a time: acknowledged ops per whole
/// second after `start_ns`, and each second's latency p50 and p99.  The
/// gated serve metrics report the median second, so a stall of a few
/// seconds from outside the program (a busy neighbour on the host) moves
/// them far less than whole-run figures, which the detail table keeps.
struct PerSecond {
  Samples ops;
  Samples p50_us;
  Samples p99_us;
  uint64_t samples = 0;
};

PerSecond SplitPerSecond(const std::vector<ConnectionStats>& stats,
                         uint64_t start_ns, double seconds) {
  std::vector<Samples> windows(static_cast<size_t>(seconds));
  PerSecond out;
  for (const ConnectionStats& s : stats) {
    for (const auto& [end_ns, us] : s.completions) {
      const size_t w = static_cast<size_t>((end_ns - start_ns) / 1000000000);
      if (end_ns < start_ns || w >= windows.size()) continue;
      windows[w].Add(us);
      ++out.samples;
    }
  }
  for (Samples& window : windows) {
    out.ops.Add(static_cast<double>(window.size()));
    if (window.size() == 0) continue;
    out.p50_us.Add(window.Median());
    out.p99_us.Add(window.Percentile(0.99));
  }
  return out;
}

/// Runs one closed loop per connection and returns their stats.
std::vector<ConnectionStats> RunConnections(
    uint16_t port, const std::vector<LoopSpec>& specs, SpanRecorder* spans,
    double* elapsed_s) {
  std::vector<ConnectionStats> stats(specs.size());
  std::vector<std::thread> threads;
  const uint64_t start = NowNs();
  for (size_t c = 0; c < specs.size(); ++c) {
    threads.emplace_back(
        [&, c] { ClosedLoop(port, specs[c], spans, &stats[c]); });
  }
  for (std::thread& thread : threads) thread.join();
  if (elapsed_s != nullptr) *elapsed_s = SecondsSince(start);
  return stats;
}

/// In-process counterpart of ClosedLoop: the same op streams through
/// LinkageService calls on one thread, taking the connections' ops in
/// round-robin order so the service's counters repeat exactly per seed.
struct InProcessStats {
  Samples match_us;
  Samples insert_us;
  Samples update_us;
  Samples delete_us;
  uint64_t failed = 0;
};

InProcessStats RunInProcess(LinkageService* service,
                            const std::vector<LoopSpec>& specs,
                            SpanRecorder* spans) {
  InProcessStats stats;
  std::vector<IdPair> pairs;
  size_t request = 0;
  for (size_t k = 0; k < specs.front().limit; ++k) {
    for (const LoopSpec& spec : specs) {
      const Op& op = spec.op_at(k);
      pairs.clear();
      ScopedSpan span(spans, "service.call", 0, ++request);
      const uint64_t start = NowNs();
      Status status;
      Samples* samples = nullptr;
      switch (op.kind) {
        case OpKind::kMatch:
          status = service->Match(op.record, &pairs);
          samples = &stats.match_us;
          break;
        case OpKind::kInsert:
          status = service->Insert(op.record);
          samples = &stats.insert_us;
          break;
        case OpKind::kUpdate:
          status = service->Update(op.record);
          samples = &stats.update_us;
          break;
        case OpKind::kDelete:
          status = service->Delete(op.record.id);
          samples = &stats.delete_us;
          break;
      }
      samples->Add(static_cast<double>(NowNs() - start) / 1e3);
      if (!status.ok()) ++stats.failed;
    }
  }
  return stats;
}

template <typename T, typename F>
Samples Merge(const std::vector<T>& parts, F field) {
  Samples merged;
  for (const T& part : parts) merged.Append(part.*field);
  return merged;
}

/// Sorted (id, words) image of a service's live records.
std::vector<EncodedRecord> LiveImage(const LinkageService& service) {
  std::vector<EncodedRecord> records = service.ExportSnapshot().records;
  std::sort(records.begin(), records.end(),
            [](const EncodedRecord& x, const EncodedRecord& y) {
              return x.id < y.id;
            });
  return records;
}

bool SameImage(const std::vector<EncodedRecord>& x,
               const std::vector<EncodedRecord>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id != y[i].id || !(x[i].bits == y[i].bits)) return false;
  }
  return true;
}

/// Planted-truth recall and precision of `pairs` for `queries`.
void PlantedQuality(const std::vector<Op>& queries,
                    const std::vector<IdPair>& pairs, double* recall,
                    double* precision, uint64_t* planted) {
  std::unordered_map<RecordId, RecordId> source_of;
  for (const Op& op : queries) {
    if (op.source != Op::kNoSource) source_of[op.record.id] = op.source;
  }
  std::unordered_set<RecordId> found;
  uint64_t true_pairs = 0;
  for (const IdPair& pair : pairs) {
    auto it = source_of.find(pair.b_id);
    if (it != source_of.end() && it->second == pair.a_id) {
      ++true_pairs;
      found.insert(pair.b_id);
    }
  }
  *planted = source_of.size();
  *recall = source_of.empty() ? 0
                              : static_cast<double>(found.size()) /
                                    static_cast<double>(source_of.size());
  *precision = pairs.empty() ? 0
                             : static_cast<double>(true_pairs) /
                                   static_cast<double>(pairs.size());
}

/// The blocking layer of the offline engine over the served registry: a
/// RecordLevelBlocker drawn from the same RNG sequence as the service's
/// own LSH family (encoder first, then family), built from
/// `registry_encoded` and probed with `probes`.  Returns the pairs found.
std::vector<IdPair> MeasureOfflineBlocking(
    const CbvHbConfig& config,
    const std::vector<EncodedRecord>& registry_encoded,
    const std::vector<EncodedRecord>& probes,
    const cbvlink::CVectorRecordEncoder& encoder, cbvlink::ThreadPool* pool,
    SpanRecorder* spans, MetricTable* table) {
  Rng rng(config.seed);
  Result<cbvlink::CVectorRecordEncoder> same_draws =
      cbvlink::CVectorRecordEncoder::Create(
          config.schema, config.expected_qgrams, rng, config.sizing);
  if (!same_draws.ok()) return {};
  BlockingLayer layer;
  Result<cbvlink::RecordLevelBlocker> blocker =
      cbvlink::RecordLevelBlocker::Create(encoder.total_bits(),
                                          config.record_K,
                                          config.record_theta, config.delta,
                                          rng);
  if (!blocker.ok()) return {};
  cbvlink::VectorStore store;
  {
    ScopedSpan span(spans, "blocking.build");
    const uint64_t start = NowNs();
    blocker.value().BulkInsert(registry_encoded, pool);
    store.AddAll(registry_encoded);
    layer.build_s = SecondsSince(start);
  }
  const cbvlink::PairClassifier classifier =
      cbvlink::MakeRuleClassifier(config.rule, encoder.layout());
  ProbeCollectAndMatch(blocker.value(), store, probes, classifier, pool,
                       spans, &layer);
  SetBlockingMetrics(layer, probes.size(), blocker.value().L(),
                     blocker.value().MaxBucketSize(),
                     store.words_per_record(), table);
  return std::move(layer.pairs);
}

/// service.* funnel metrics from a ServiceMetrics delta.
void SetServiceFunnel(const ServiceMetrics& before, const ServiceMetrics& after,
                      MetricTable* table) {
  const uint64_t queries = after.queries - before.queries;
  const uint64_t candidates =
      after.candidate_occurrences - before.candidate_occurrences;
  const uint64_t comparisons = after.comparisons - before.comparisons;
  const uint64_t matches = after.matches - before.matches;
  const double q = queries == 0 ? 1.0 : static_cast<double>(queries);
  table->Set("service.candidates_per_query",
             static_cast<double>(candidates) / q, "count", queries);
  table->Set("service.comparisons_per_query",
             static_cast<double>(comparisons) / q, "count", queries);
  table->Set("service.match_yield",
             comparisons == 0 ? 0
                              : static_cast<double>(matches) /
                                    static_cast<double>(comparisons),
             "ratio", comparisons);
  table->Set("service.scan_fallbacks",
             static_cast<double>(after.scan_fallbacks - before.scan_fallbacks),
             "count", queries);
}

/// Splits ops [first, first + count) of a per-connection stream into one
/// LoopSpec per connection.
std::vector<LoopSpec> FixedPass(
    size_t connections, size_t first, size_t count,
    std::function<const Op&(size_t, size_t)> op_of) {
  std::vector<LoopSpec> specs(connections);
  for (size_t c = 0; c < connections; ++c) {
    specs[c].limit = count / connections;
    specs[c].op_at = [c, first, op_of](size_t k) -> const Op& {
      return op_of(c, first + k);
    };
  }
  return specs;
}

/// Adds the connection-level failure counters to `out`.
void CountFailures(const std::vector<ConnectionStats>& stats, RunResult* out,
                   uint64_t* shed, uint64_t* deadline, uint64_t* reconnects) {
  for (const ConnectionStats& s : stats) {
    out->attempted += s.acked.size();
    out->failed += s.failed;
    *shed += s.shed;
    *deadline += s.deadline_exceeded;
    *reconnects += s.reconnects;
  }
}

void SetNetFailures(uint64_t shed, uint64_t deadline, uint64_t reconnects,
                    uint64_t attempted, MetricTable* table) {
  table->Set("net.shed", static_cast<double>(shed), "count", attempted);
  table->Set("net.deadline_exceeded", static_cast<double>(deadline), "count",
             attempted);
  table->Set("net.reconnects", static_cast<double>(reconnects), "count",
             attempted);
}

/// net.queue_us / server_total_us / client_gap_us from a traced wire
/// pass; returns the pass's p50 latency.
double SetTracedWire(std::vector<ConnectionStats>& traced,
                     MetricTable* table) {
  Samples queue = Merge(traced, &ConnectionStats::queue_us);
  Samples total = Merge(traced, &ConnectionStats::server_total_us);
  Samples gap = Merge(traced, &ConnectionStats::client_gap_us);
  Samples all = Merge(traced, &ConnectionStats::all_us);
  table->Set("net.queue_us", queue.Median(), "us", queue.size());
  table->Set("net.server_total_us", total.Median(), "us", total.size());
  table->Set("net.client_gap_us", gap.Median(), "us", gap.size());
  return all.Median();
}

/// Runs `pass` through a traced server over `service` and records the
/// net.* stage metrics; returns the traced p50 (0 if the server failed).
double TracedWirePass(LinkageService* service, const RunConfig& run,
                      std::vector<LoopSpec> pass, MetricTable* table) {
  cbvlink::telemetry::TraceSinkOptions sink_options;
  sink_options.sample_every = 1;
  sink_options.slow_threshold_us = 0;
  cbvlink::telemetry::TraceSink sink(sink_options);
  Result<std::unique_ptr<cbvlink::net::NetServer>> server =
      StartServer(service, run, &sink);
  if (!server.ok()) return 0;
  for (LoopSpec& spec : pass) spec.traced = true;
  std::vector<ConnectionStats> traced =
      RunConnections(server.value()->port(), pass, run.spans, nullptr);
  server.value()->Shutdown();
  return SetTracedWire(traced, table);
}

/// io.journal_append_us and io.journal_bytes_per_op: Journal::Append of
/// `mutations` into a scratch journal with fsync never.
void MeasureJournalAppends(const std::vector<cbvlink::MutationOp>& mutations,
                           const std::string& work_dir, SpanRecorder* spans,
                           MetricTable* table) {
  const std::string path = work_dir + "/append_probe.journal";
  std::remove(path.c_str());
  cbvlink::JournalOptions journal_options;
  journal_options.fsync_every = 0;
  if (Result<std::unique_ptr<cbvlink::Journal>> journal =
          cbvlink::Journal::Open(path, journal_options);
      journal.ok()) {
    Samples append_us;
    const uint64_t start_offset = journal.value()->EndOffset();
    for (size_t i = 0; i < mutations.size(); ++i) {
      ScopedSpan span(spans, "io.journal_append", 0, i + 1);
      const uint64_t start = NowNs();
      const Status appended = journal.value()->Append(mutations[i]);
      append_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      if (!appended.ok()) break;
    }
    table->Set("io.journal_append_us", append_us.Median(), "us",
               append_us.size());
    table->Set("io.journal_bytes_per_op",
               static_cast<double>(journal.value()->EndOffset() -
                                   start_offset) /
                   static_cast<double>(std::max<size_t>(1, append_us.size())),
               "B", append_us.size());
  }
  std::remove(path.c_str());
}

}  // namespace

void MeasureServedLayers(const CbvHbConfig& config,
                         const std::vector<Record>& registry,
                         const std::vector<Record>& queries,
                         const RunConfig& run, RunResult* out) {
  MetricTable& layers = out->per_layer;
  SpanRecorder* spans = run.spans;
  const size_t conns = run.connections;
  const size_t matches = std::min(kPassOps, queries.size() / 2);
  const size_t writes = std::min(kServedLayerWrites, queries.size() / 4);
  if (matches < conns || registry.size() < 2 * writes) return;
  const std::string snapshot_path = run.work_dir + "/served_layers.cbvs";
  const std::string journal_path = run.work_dir + "/served_layers.journal";
  std::remove(journal_path.c_str());
  Result<std::unique_ptr<LinkageService>> created =
      CreateService(config, run, registry);
  if (!created.ok()) {
    out->checks.push_back(
        {"served layers: service", false, created.status().ToString()});
    return;
  }
  LinkageService* service = created.value().get();
  {
    ScopedSpan span(spans, "service.InsertBatch");
    const uint64_t start = NowNs();
    const Status inserted = service->InsertBatch(registry);
    layers.Set("service.insert_batch_s", SecondsSince(start), "s", 1);
    if (!inserted.ok()) {
      out->checks.push_back(
          {"served layers: InsertBatch", false, inserted.ToString()});
      return;
    }
  }

  // Reads: the first queries, in process and then over the wire.
  std::vector<Op> ops(matches);
  for (size_t i = 0; i < matches; ++i) ops[i].record = queries[i];
  const std::vector<LoopSpec> pass = FixedPass(
      conns, 0, matches, [&ops, conns](size_t c, size_t k) -> const Op& {
        return ops[c + k * conns];
      });
  const ServiceMetrics before = service->metrics();
  InProcessStats in_process = RunInProcess(service, pass, spans);
  SetServiceFunnel(before, service->metrics(), &layers);
  layers.Set("service.match_p50_us", in_process.match_us.Median(), "us",
             in_process.match_us.size());
  layers.Set("service.match_p99_us", in_process.match_us.Percentile(0.99),
             "us", in_process.match_us.size());
  if (Result<std::unique_ptr<cbvlink::net::NetServer>> server =
          StartServer(service, run, nullptr);
      server.ok()) {
    std::vector<ConnectionStats> wire =
        RunConnections(server.value()->port(), pass, nullptr, nullptr);
    server.value()->Shutdown();
    RunResult counted;
    uint64_t shed = 0, deadline = 0, reconnects = 0;
    CountFailures(wire, &counted, &shed, &deadline, &reconnects);
    SetNetFailures(shed, deadline, reconnects, counted.attempted, &layers);
    Samples wire_us = Merge(wire, &ConnectionStats::match_us);
    layers.Set("net.wire_us",
               wire_us.Median() - in_process.match_us.Median(), "us",
               wire_us.size());
    TracedWirePass(service, run, pass, &layers);
    out->checks.push_back(
        {"served layers: every wire request succeeds",
         counted.failed == 0 && in_process.failed == 0,
         StrFormat("%llu wire, %llu in-process failures",
                   static_cast<unsigned long long>(counted.failed),
                   static_cast<unsigned long long>(in_process.failed))});
  }

  // Writes after a snapshot, journaled (fsync never): inserts of later
  // queries, updates and deletes of registry records.
  std::vector<cbvlink::MutationOp> mutations;
  for (size_t i = 0; i < writes; ++i) {
    mutations.push_back(cbvlink::MutationOp::Insert(queries[matches + i]));
    Record update = queries[matches + writes + i];
    update.id = registry[i].id;
    mutations.push_back(cbvlink::MutationOp::Update(update, 0));
    mutations.push_back(
        cbvlink::MutationOp::Delete(registry[writes + i].id, 0));
  }
  Status status = service->SaveSnapshotToFile(snapshot_path);
  cbvlink::JournalOptions journal_options;
  journal_options.fsync_every = 0;
  Result<std::unique_ptr<cbvlink::Journal>> journal =
      cbvlink::Journal::Open(journal_path, journal_options);
  if (!status.ok() || !journal.ok()) {
    out->checks.push_back({"served layers: snapshot and journal", false,
                           status.ok() ? journal.status().ToString()
                                       : status.ToString()});
    return;
  }
  service->AttachJournal(std::move(journal).value());
  Samples insert_us, update_us, delete_us;
  uint64_t write_failures = 0;
  for (size_t i = 0; i < mutations.size(); ++i) {
    const cbvlink::MutationOp& op = mutations[i];
    ScopedSpan span(spans, "service.write", 0, i + 1);
    const uint64_t start = NowNs();
    Status written;
    Samples* samples = &insert_us;
    if (op.kind == cbvlink::MutationKind::kInsert) {
      written = service->Insert(op.record);
    } else if (op.kind == cbvlink::MutationKind::kUpdate) {
      written = service->Update(op.record);
      samples = &update_us;
    } else {
      written = service->Delete(op.record.id);
      samples = &delete_us;
    }
    samples->Add(static_cast<double>(NowNs() - start) / 1e3);
    write_failures += written.ok() ? 0 : 1;
  }
  layers.Set("service.insert_us", insert_us.Median(), "us", insert_us.size());
  layers.Set("service.update_us", update_us.Median(), "us", update_us.size());
  layers.Set("service.delete_us", delete_us.Median(), "us", delete_us.size());
  {
    ScopedSpan span(spans, "service.Compact");
    const uint64_t start = NowNs();
    status = service->Compact();
    layers.Set("service.compact_ms", SecondsSince(start) * 1e3, "ms", 1);
  }
  layers.Set("service.compactions",
             static_cast<double>(service->metrics().compactions), "count", 1);
  MeasureJournalAppends(mutations, run.work_dir, spans, &layers);

  // Recovery: snapshot + journal replay reproduces the live records.
  const std::vector<EncodedRecord> expected = LiveImage(*service);
  created.value().reset();
  double load_s = 0;
  double replay_s = 0;
  bool recovered = false;
  {
    ScopedSpan span(spans, "io.recover");
    uint64_t start = NowNs();
    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::RestoreFromFile(snapshot_path);
    load_s = SecondsSince(start);
    start = NowNs();
    if (restored.ok() &&
        restored.value()->ReplayJournalFile(journal_path).ok()) {
      replay_s = SecondsSince(start);
      recovered = SameImage(LiveImage(*restored.value()), expected);
    }
  }
  layers.Set("io.snapshot_load_s", load_s, "s", 1);
  layers.Set("io.replay_s", replay_s, "s", 1);
  out->checks.push_back(
      {"served layers: writes and Compact() succeed, and snapshot + journal "
       "replay restores the live records",
       write_failures == 0 && status.ok() && recovered,
       StrFormat("%llu write failures",
                 static_cast<unsigned long long>(write_failures))});
  std::remove(snapshot_path.c_str());
  std::remove(journal_path.c_str());
}

RunResult RunServeQuery(const RunConfig& run) {
  RunResult out;
  const std::string snapshot_path = run.work_dir + "/serve_query.cbvs";
  Result<cbvlink::NcvrGenerator> generator = cbvlink::NcvrGenerator::Create();
  if (!generator.ok()) {
    out.checks.push_back({"generator", false, generator.status().ToString()});
    return out;
  }
  const CbvHbConfig config = PlConfig(generator.value().schema());

  // --- Inputs: registry and query pool ------------------------------------
  Rng rng(run.seed);
  std::vector<Record> registry;
  registry.reserve(kQueryRegistry);
  for (size_t i = 0; i < kQueryRegistry; ++i) {
    registry.push_back(generator.value().Generate(i, rng));
  }
  std::vector<Op> queries(kQueryPool);
  for (size_t j = 0; j < kQueryPool; ++j) {
    const RecordId id = kQueryIdBase + j;
    if (rng.NextBool(0.5)) {
      const RecordId source = rng.Below(registry.size());
      queries[j].record = PerturbPl(registry[source], id, rng);
      queries[j].source = source;
    } else {
      queries[j].record = generator.value().Generate(id, rng);
    }
  }
  out.provenance.emplace_back("registry_records",
                              std::to_string(kQueryRegistry));
  out.provenance.emplace_back("query_pool", std::to_string(kQueryPool));
  out.provenance.emplace_back("connections", std::to_string(run.connections));
  out.provenance.emplace_back("server_workers",
                              std::to_string(run.connections));
  out.provenance.emplace_back("service_pool_threads",
                              std::to_string(run.pool_threads));
  out.provenance.emplace_back("load", "closed loop, match only");
  out.provenance.emplace_back("journal_fsync", "none (no journal)");

  // --- Set-up, repeated -------------------------------------------------
  Samples setup_s;
  Samples insert_batch_s;
  Fixture fixture;
  for (size_t rep = 0; rep < kQuerySetupReps; ++rep) {
    TearDown(&fixture, snapshot_path, "");
    double insert_s = 0;
    const uint64_t start = NowNs();
    const Status status = SetUp(config, run, registry, snapshot_path, "",
                                &fixture, &insert_s);
    setup_s.Add(SecondsSince(start));
    insert_batch_s.Add(insert_s);
    if (!status.ok()) {
      out.checks.push_back({"set-up", false, status.ToString()});
      return out;
    }
  }
  LinkageService* service = fixture.service.get();
  const uint16_t port = fixture.server->port();

  // Connection c sends pool entries c, c + C, c + 2C, ... (cycling).
  const size_t conns = run.connections;
  auto stream_op = [&](size_t c, size_t k) -> const Op& {
    return queries[(c + k * conns) % queries.size()];
  };
  std::vector<LoopSpec> specs(conns);
  for (size_t c = 0; c < conns; ++c) {
    specs[c].op_at = [&, c](size_t k) -> const Op& { return stream_op(c, k); };
    specs[c].limit = kWarmupOpsPerConnection;
  }
  RunConnections(port, specs, nullptr, nullptr);

  // --- Timed loop ----------------------------------------------------------
  const uint64_t deadline_ns =
      NowNs() + static_cast<uint64_t>(run.seconds * 1e9);
  for (LoopSpec& spec : specs) {
    spec.limit = SIZE_MAX;
    spec.deadline_ns = deadline_ns;
  }
  double elapsed_s = 0;
  std::vector<ConnectionStats> stats =
      RunConnections(port, specs, nullptr, &elapsed_s);
  uint64_t shed = 0, deadline = 0, reconnects = 0;
  CountFailures(stats, &out, &shed, &deadline, &reconnects);

  // --- Correctness: every wire reply equals in-process MatchBatch ----------
  std::vector<Record> query_records;
  for (const Op& op : queries) query_records.push_back(op.record);
  std::vector<IdPair> reference;
  const Status batch = service->MatchBatch(query_records, &reference);
  out.checks.push_back({"in-process MatchBatch", batch.ok(),
                        batch.ok() ? "" : batch.ToString()});
  std::unordered_map<RecordId, std::vector<IdPair>> by_query;
  for (const IdPair& pair : reference) by_query[pair.b_id].push_back(pair);
  std::vector<uint64_t> expected(queries.size());
  for (size_t j = 0; j < queries.size(); ++j) {
    auto it = by_query.find(queries[j].record.id);
    expected[j] = PairDigest(it == by_query.end() ? std::vector<IdPair>{}
                                                  : it->second);
  }
  uint64_t mismatched = 0;
  uint64_t compared = 0;
  for (size_t c = 0; c < conns; ++c) {
    for (size_t k = 0; k < stats[c].digests.size(); ++k) {
      if (!stats[c].acked[k]) continue;
      ++compared;
      mismatched +=
          stats[c].digests[k] != expected[(c + k * conns) % queries.size()];
    }
  }
  out.checks.push_back(
      {"every wire reply equals in-process MatchBatch",
       mismatched == 0 && compared > 0,
       StrFormat("%llu of %llu replies differ",
                 static_cast<unsigned long long>(mismatched),
                 static_cast<unsigned long long>(compared))});
  double recall = 0, precision = 0;
  uint64_t planted = 0;
  PlantedQuality(queries, reference, &recall, &precision, &planted);

  // --- End-to-end metrics ------------------------------------------------
  Samples match_us = Merge(stats, &ConnectionStats::match_us);
  const uint64_t completed = out.attempted - out.failed;
  const double qps = static_cast<double>(completed) / elapsed_s;
  PerSecond per_second = SplitPerSecond(
      stats, deadline_ns - static_cast<uint64_t>(run.seconds * 1e9),
      run.seconds);
  out.end_to_end.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  out.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
  out.end_to_end.Set("throughput_per_s", per_second.ops.Median(), "1/s",
                     per_second.samples);
  out.end_to_end.Set("op_p50_us", per_second.p50_us.Median(), "us",
                     per_second.samples);
  out.end_to_end.Set("op_p99_us", per_second.p99_us.Median(), "us",
                     per_second.samples);
  out.end_to_end.Set("recall", recall, "ratio", planted);
  out.end_to_end.Set("precision", precision, "ratio", reference.size());
  out.detail.Set("qps", qps, "1/s", completed);
  out.detail.Set("match_p50_us", match_us.Median(), "us", match_us.size());
  out.detail.Set("match_p99_us", match_us.Percentile(0.99), "us",
                 match_us.size());
  out.detail.Set("error_rate",
                 static_cast<double>(out.failed) /
                     static_cast<double>(std::max<uint64_t>(1, out.attempted)),
                 "ratio", out.attempted);

  DeclarePerLayer(&out.per_layer);
  if (!run.trace) {
    TearDown(&fixture, snapshot_path, "");
    return out;
  }

  // --- Traced run: per-layer metrics --------------------------------------
  MetricTable& layers = out.per_layer;
  SpanRecorder* spans = run.spans;
  SetNetFailures(shed, deadline, reconnects, out.attempted, &layers);
  layers.Set("service.insert_batch_s", insert_batch_s.Median(), "s",
             insert_batch_s.size());

  const std::vector<LoopSpec> pass =
      FixedPass(conns, 0, kPassOps, stream_op);
  const ServiceMetrics before = service->metrics();
  InProcessStats in_process = RunInProcess(service, pass, spans);
  SetServiceFunnel(before, service->metrics(), &layers);
  Samples& service_match = in_process.match_us;
  layers.Set("service.match_p50_us", service_match.Median(), "us",
             service_match.size());
  layers.Set("service.match_p99_us", service_match.Percentile(0.99), "us",
             service_match.size());
  layers.Set("net.wire_us", match_us.Median() - service_match.Median(), "us",
             match_us.size());

  layers.Set("telemetry.trace_overhead",
             TracedWirePass(service, run, pass, &layers) / match_us.Median() -
                 1.0,
             "ratio", kPassOps);

  {
    cbvlink::ThreadPool pool(run.pool_threads);
    std::vector<Record> records = registry;
    records.insert(records.end(), query_records.begin(), query_records.end());
    std::vector<EncodedRecord> encoded =
        MeasureTextAndEmbedding(service->encoder(), records,
                                kEncodeLatencySamples, &pool,
                                spans, &layers);
    if (encoded.size() == records.size()) {
      const std::vector<EncodedRecord> registry_encoded(
          encoded.begin(), encoded.begin() + registry.size());
      const std::vector<EncodedRecord> probes(
          encoded.begin() + registry.size(), encoded.end());
      encoded.clear();
      const std::vector<IdPair> offline =
          MeasureOfflineBlocking(config, registry_encoded, probes,
                                 service->encoder(), &pool, spans, &layers);
      out.checks.push_back(
          {"offline Matcher with the service's LSH family returns the served "
           "pairs",
           PairDigest(offline) == PairDigest(reference),
           StrFormat("%zu offline vs %zu served pairs", offline.size(),
                     reference.size())});
    }
  }

  {
    ScopedSpan span(spans, "io.snapshot_load");
    const uint64_t start = NowNs();
    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::RestoreFromFile(snapshot_path);
    layers.Set("io.snapshot_load_s", SecondsSince(start), "s", 1);
    out.checks.push_back(
        {"snapshot restores the registry",
         restored.ok() && restored.value()->size() == registry.size(),
         restored.ok() ? "" : restored.status().ToString()});
  }
  TearDown(&fixture, snapshot_path, "");
  return out;
}

RunResult RunServeChurn(const RunConfig& run) {
  RunResult out;
  const std::string snapshot_path = run.work_dir + "/serve_churn.cbvs";
  const std::string journal_path = run.work_dir + "/serve_churn.journal";
  Result<cbvlink::NcvrGenerator> generator = cbvlink::NcvrGenerator::Create();
  if (!generator.ok()) {
    out.checks.push_back({"generator", false, generator.status().ToString()});
    return out;
  }
  const cbvlink::NcvrGenerator& gen = generator.value();
  const CbvHbConfig config = PlConfig(gen.schema());
  const size_t conns = run.connections;

  // --- Inputs: registry, then one op stream per connection --------------
  // Connection c owns the registry ids with id % C == c and inserts fresh
  // ids above the registry, so each stream's effect is independent of
  // how the connections interleave.
  Rng rng(run.seed);
  std::vector<Record> registry;
  for (size_t i = 0; i < kChurnRegistry; ++i) {
    registry.push_back(gen.Generate(i, rng));
  }
  std::vector<LiveModel> initial(conns);
  for (const Record& record : registry) initial[record.id % conns].Put(record);
  const size_t ops_per_connection = std::max<size_t>(
      static_cast<size_t>(run.seconds * kChurnOpsPerConnectionSecond),
      2 * kPassOps / conns);
  std::vector<std::vector<Op>> streams(conns);
  for (size_t c = 0; c < conns; ++c) {
    Rng op_rng(run.seed * 1000003 + c + 1);
    LiveModel model = initial[c];
    streams[c].resize(ops_per_connection);
    for (size_t k = 0; k < ops_per_connection; ++k) {
      Op& op = streams[c][k];
      const RecordId fresh_id = kChurnRegistry + k * conns + c;
      const double u = op_rng.NextDouble();
      if (u < 0.4) {
        op.kind = OpKind::kMatch;
        const RecordId query_id = kQueryIdBase + k * conns + c;
        if (op_rng.NextBool(0.5)) {
          op.source = model.Pick(op_rng);
          op.record = PerturbPl(model.Get(op.source), query_id, op_rng);
        } else {
          op.record = gen.Generate(query_id, op_rng);
        }
      } else if (u < 0.6 ||
                 (u >= 0.8 && model.size() <= kMinLivePerConnection)) {
        op.kind = OpKind::kInsert;
        op.record = gen.Generate(fresh_id, op_rng);
      } else if (u < 0.8) {
        op.kind = OpKind::kUpdate;
        const RecordId id = model.Pick(op_rng);
        op.record = PerturbPl(model.Get(id), id, op_rng);
      } else {
        op.kind = OpKind::kDelete;
        op.record.id = model.Pick(op_rng);
      }
      model.Apply(op);
    }
  }
  out.provenance.emplace_back("registry_records",
                              std::to_string(kChurnRegistry));
  out.provenance.emplace_back("ops_per_connection",
                              std::to_string(ops_per_connection));
  out.provenance.emplace_back("connections", std::to_string(conns));
  out.provenance.emplace_back("server_workers", std::to_string(conns));
  out.provenance.emplace_back("service_pool_threads",
                              std::to_string(run.pool_threads));
  out.provenance.emplace_back(
      "load", "closed loop, 40% match / 20% insert / 20% update / 20% delete");
  out.provenance.emplace_back("journal_fsync", "never (fsync_every = 0)");
  out.provenance.emplace_back("compactor", "background, dead ratio 0.25");

  // --- Set-up, repeated -------------------------------------------------
  Samples setup_s;
  Fixture fixture;
  for (size_t rep = 0; rep < kChurnSetupReps; ++rep) {
    TearDown(&fixture, snapshot_path, journal_path);
    double insert_s = 0;
    const uint64_t start = NowNs();
    const Status status = SetUp(config, run, registry, snapshot_path,
                                journal_path, &fixture, &insert_s);
    setup_s.Add(SecondsSince(start));
    if (!status.ok()) {
      out.checks.push_back({"set-up", false, status.ToString()});
      return out;
    }
  }
  LinkageService* service = fixture.service.get();

  // --- Timed loop ----------------------------------------------------------
  auto stream_op = [&](size_t c, size_t k) -> const Op& {
    return streams[c][k];
  };
  std::vector<LoopSpec> specs(conns);
  const uint64_t deadline_ns =
      NowNs() + static_cast<uint64_t>(run.seconds * 1e9);
  for (size_t c = 0; c < conns; ++c) {
    specs[c].op_at = [&, c](size_t k) -> const Op& { return stream_op(c, k); };
    specs[c].limit = ops_per_connection;
    specs[c].deadline_ns = deadline_ns;
  }
  const uint64_t compactions_before = service->metrics().compactions;
  double elapsed_s = 0;
  std::vector<ConnectionStats> stats =
      RunConnections(fixture.server->port(), specs, nullptr, &elapsed_s);
  uint64_t shed = 0, deadline = 0, reconnects = 0;
  CountFailures(stats, &out, &shed, &deadline, &reconnects);
  bool exhausted = false;
  for (const ConnectionStats& s : stats) {
    exhausted = exhausted || s.acked.size() == ops_per_connection;
  }
  if (exhausted) {
    std::fprintf(stderr, "cbvbench: serve_churn ran out of pre-generated "
                         "ops before the deadline\n");
  }
  fixture.server->Shutdown();
  service->StopBackgroundCompaction();
  const uint64_t compactions =
      service->metrics().compactions - compactions_before;

  // --- Correctness -----------------------------------------------------------
  // 1. The final live set equals the op model over the acknowledged ops.
  std::vector<Record> live_records;
  for (size_t c = 0; c < conns; ++c) {
    LiveModel model = initial[c];
    for (size_t k = 0; k < stats[c].acked.size(); ++k) {
      if (stats[c].acked[k]) model.Apply(streams[c][k]);
    }
    for (const auto& [id, record] : model.records()) {
      live_records.push_back(record);
    }
  }
  std::sort(live_records.begin(), live_records.end(),
            [](const Record& x, const Record& y) { return x.id < y.id; });
  const std::vector<EncodedRecord> before_shutdown = LiveImage(*service);
  Result<std::vector<EncodedRecord>> model_image =
      service->encoder().EncodeAll(live_records);
  out.checks.push_back(
      {"final live set equals the seeded op model",
       model_image.ok() && SameImage(before_shutdown, model_image.value()),
       StrFormat("%zu live in service, %zu in model", before_shutdown.size(),
                 live_records.size())});

  // 2. Recovery: snapshot + journal replay reproduces the final state.
  double snapshot_load_s = 0;
  double replay_s = 0;
  {
    const uint64_t start = NowNs();
    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::RestoreFromFile(snapshot_path);
    snapshot_load_s = SecondsSince(start);
    const uint64_t replay_start = NowNs();
    Result<cbvlink::JournalReplayStats> replayed =
        restored.ok() ? restored.value()->ReplayJournalFile(journal_path)
                      : Result<cbvlink::JournalReplayStats>(restored.status());
    replay_s = SecondsSince(replay_start);
    // Diagnostic for a failure: delete/update frames whose sequence is
    // below one journaled before them (replay skips those as already
    // covered), and how many live records differ after recovery.
    uint64_t frames = 0;
    uint64_t out_of_order = 0;
    uint64_t max_sequence = 0;
    const Result<cbvlink::JournalReplayStats> scanned = cbvlink::ReplayJournal(
        journal_path, [&](const cbvlink::MutationOp& op) {
          ++frames;
          if (op.sequence != 0) {
            out_of_order += op.sequence < max_sequence ? 1 : 0;
            max_sequence = std::max(max_sequence, op.sequence);
          }
          return Status::OK();
        });
    size_t differing = 0;
    if (replayed.ok()) {
      const std::vector<EncodedRecord> after = LiveImage(*restored.value());
      std::unordered_map<RecordId, const cbvlink::BitVector*> bits_after;
      for (const EncodedRecord& record : after) {
        bits_after[record.id] = &record.bits;
      }
      for (const EncodedRecord& record : before_shutdown) {
        auto it = bits_after.find(record.id);
        differing += it == bits_after.end() || !(*it->second == record.bits);
      }
      differing += after.size() > before_shutdown.size()
                       ? after.size() - before_shutdown.size()
                       : 0;
    }
    out.checks.push_back(
        {"snapshot + journal replay equals the pre-shutdown state",
         replayed.ok() && scanned.ok() && differing == 0,
         replayed.ok()
             ? StrFormat("%zu live records differ after recovery; %llu of "
                         "%llu journal frames carry a sequence below an "
                         "earlier frame's",
                         differing,
                         static_cast<unsigned long long>(out_of_order),
                         static_cast<unsigned long long>(frames))
             : replayed.status().ToString()});
  }

  // 3. A quiescent match pass equals a fresh service over the live records.
  std::vector<Op> quiescent;
  {
    Rng q_rng(run.seed ^ 0x9e3779b97f4a7c15ULL);
    const size_t step = std::max<size_t>(1, live_records.size() /
                                                (kQuiescentQueries / 2));
    for (size_t i = 0; i < live_records.size(); i += step) {
      Op op;
      op.source = live_records[i].id;
      op.record = PerturbPl(live_records[i],
                            kQueryIdBase * 2 + quiescent.size(), q_rng);
      quiescent.push_back(std::move(op));
    }
    while (quiescent.size() < kQuiescentQueries) {
      Op op;
      op.record = gen.Generate(kQueryIdBase * 2 + quiescent.size(), q_rng);
      quiescent.push_back(std::move(op));
    }
  }
  std::vector<Record> quiescent_records;
  for (const Op& op : quiescent) quiescent_records.push_back(op.record);
  std::vector<IdPair> served;
  std::vector<IdPair> fresh_pairs;
  const Status compacted = service->Compact();
  const Status served_ok = service->MatchBatch(quiescent_records, &served);
  {
    Result<std::unique_ptr<LinkageService>> fresh =
        CreateService(config, run, registry);
    Status fresh_ok = fresh.ok() ? fresh.value()->InsertBatch(live_records)
                                 : fresh.status();
    if (fresh_ok.ok()) {
      fresh_ok = fresh.value()->MatchBatch(quiescent_records, &fresh_pairs);
    }
    std::sort(served.begin(), served.end());
    std::sort(fresh_pairs.begin(), fresh_pairs.end());
    out.checks.push_back(
        {"quiescent matches equal a fresh service over the live records",
         compacted.ok() && served_ok.ok() && fresh_ok.ok() &&
             served == fresh_pairs,
         StrFormat("%zu served vs %zu fresh pairs", served.size(),
                   fresh_pairs.size())});
  }
  double recall = 0, precision = 0;
  uint64_t planted = 0;
  PlantedQuality(quiescent, served, &recall, &precision, &planted);

  // --- End-to-end metrics ------------------------------------------------
  Samples all_us = Merge(stats, &ConnectionStats::all_us);
  Samples match_us = Merge(stats, &ConnectionStats::match_us);
  Samples write_us = Merge(stats, &ConnectionStats::write_us);
  const uint64_t completed = out.attempted - out.failed;
  const double qps = static_cast<double>(completed) / elapsed_s;
  PerSecond per_second = SplitPerSecond(
      stats, deadline_ns - static_cast<uint64_t>(run.seconds * 1e9),
      run.seconds);
  out.end_to_end.Set("setup_s", setup_s.Median(), "s", setup_s.size());
  out.end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
  out.end_to_end.Set("throughput_per_s", per_second.ops.Median(), "1/s",
                     per_second.samples);
  out.end_to_end.Set("op_p50_us", per_second.p50_us.Median(), "us",
                     per_second.samples);
  out.end_to_end.Set("op_p99_us", per_second.p99_us.Median(), "us",
                     per_second.samples);
  out.end_to_end.Set("recall", recall, "ratio", planted);
  out.end_to_end.Set("precision", precision, "ratio", served.size());
  out.detail.Set("qps", qps, "1/s", completed);
  out.detail.Set("op_p99_us_whole_run", all_us.Percentile(0.99), "us",
                 all_us.size());
  out.detail.Set("match_p50_us", match_us.Median(), "us", match_us.size());
  out.detail.Set("match_p99_us", match_us.Percentile(0.99), "us",
                 match_us.size());
  out.detail.Set("write_p50_us", write_us.Median(), "us", write_us.size());
  out.detail.Set("write_p99_us", write_us.Percentile(0.99), "us",
                 write_us.size());
  out.detail.Set("recover_s", snapshot_load_s + replay_s, "s", 1);
  out.detail.Set("compactions", static_cast<double>(compactions), "count", 1);
  out.detail.Set("error_rate",
                 static_cast<double>(out.failed) /
                     static_cast<double>(std::max<uint64_t>(1, out.attempted)),
                 "ratio", out.attempted);

  DeclarePerLayer(&out.per_layer);
  if (!run.trace) {
    TearDown(&fixture, snapshot_path, journal_path);
    return out;
  }

  // --- Traced run: per-layer metrics --------------------------------------
  MetricTable& layers = out.per_layer;
  SpanRecorder* spans = run.spans;
  SetNetFailures(shed, deadline, reconnects, out.attempted, &layers);
  layers.Set("service.compactions", static_cast<double>(compactions), "count",
             1);
  layers.Set("io.snapshot_load_s", snapshot_load_s, "s", 1);
  layers.Set("io.replay_s", replay_s, "s", 1);
  TearDown(&fixture, snapshot_path, journal_path);

  // The same op streams in process, on a copy with no journal or server;
  // then an explicit Compact() at the dead ratio they leave.
  Result<std::unique_ptr<LinkageService>> copy =
      CreateService(config, run, registry);
  if (!copy.ok() || !copy.value()->InsertBatch(registry).ok()) {
    out.checks.push_back({"in-process copy", false, "set-up failed"});
    return out;
  }
  {
    const std::vector<LoopSpec> pass = FixedPass(conns, 0, kPassOps, stream_op);
    const ServiceMetrics before = copy.value()->metrics();
    InProcessStats in_process = RunInProcess(copy.value().get(), pass, spans);
    SetServiceFunnel(before, copy.value()->metrics(), &layers);
    Samples& service_match = in_process.match_us;
    Samples& inserts = in_process.insert_us;
    Samples& updates = in_process.update_us;
    Samples& deletes = in_process.delete_us;
    layers.Set("service.match_p50_us", service_match.Median(), "us",
               service_match.size());
    layers.Set("service.match_p99_us", service_match.Percentile(0.99), "us",
               service_match.size());
    layers.Set("service.insert_us", inserts.Median(), "us", inserts.size());
    layers.Set("service.update_us", updates.Median(), "us", updates.size());
    layers.Set("service.delete_us", deletes.Median(), "us", deletes.size());
    layers.Set("net.wire_us", match_us.Median() - service_match.Median(), "us",
               match_us.size());
    out.checks.push_back(
        {"in-process op stream succeeds", in_process.failed == 0,
         StrFormat("%llu failed",
                   static_cast<unsigned long long>(in_process.failed))});
    ScopedSpan span(spans, "service.Compact");
    const uint64_t start = NowNs();
    const Status compact = copy.value()->Compact();
    layers.Set("service.compact_ms", SecondsSince(start) * 1e3, "ms", 1);
    if (!compact.ok()) {
      out.checks.push_back({"explicit Compact()", false, compact.ToString()});
    }
  }
  // Traced wire pass: the next ops of each stream against the copy.
  layers.Set("telemetry.trace_overhead",
             TracedWirePass(copy.value().get(), run,
                            FixedPass(conns, kPassOps / conns, kPassOps,
                                      stream_op),
                            &layers) /
                     all_us.Median() -
                 1.0,
             "ratio", kPassOps);
  {
    // Journal appends of connection 0's write ops, same fsync policy.
    std::vector<cbvlink::MutationOp> mutations;
    uint64_t sequence = 0;
    for (size_t k = 0; k < kPassOps && k < streams[0].size(); ++k) {
      const Op& op = streams[0][k];
      if (op.kind == OpKind::kInsert) {
        mutations.push_back(cbvlink::MutationOp::Insert(op.record));
      } else if (op.kind == OpKind::kUpdate) {
        mutations.push_back(cbvlink::MutationOp::Update(op.record, ++sequence));
      } else if (op.kind == OpKind::kDelete) {
        mutations.push_back(
            cbvlink::MutationOp::Delete(op.record.id, ++sequence));
      }
    }
    MeasureJournalAppends(mutations, run.work_dir, spans, &layers);
  }
  {
    cbvlink::ThreadPool pool(run.pool_threads);
    std::vector<Record> records = registry;
    const size_t first_probe = records.size();
    for (size_t c = 0; c < conns; ++c) {
      for (size_t k = 0; k < kPassOps / conns; ++k) {
        if (streams[c][k].kind == OpKind::kMatch) {
          records.push_back(streams[c][k].record);
        }
      }
    }
    std::vector<EncodedRecord> encoded = MeasureTextAndEmbedding(
        copy.value()->encoder(), records, kEncodeLatencySamples, &pool, spans,
        &layers);
    if (encoded.size() == records.size()) {
      const std::vector<EncodedRecord> registry_encoded(
          encoded.begin(), encoded.begin() + first_probe);
      const std::vector<EncodedRecord> probes(encoded.begin() + first_probe,
                                              encoded.end());
      MeasureOfflineBlocking(config, registry_encoded, probes,
                             copy.value()->encoder(), &pool, spans, &layers);
    }
  }
  return out;
}

}  // namespace cbvbench
