#include "src/service/linkage_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_set>

#include "src/common/failpoint.h"
#include "src/common/hamming_kernels.h"
#include "src/common/str.h"
#include "src/rules/rule_parser.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace cbvlink {

namespace {

/// Records per write-lock hold in InsertBatch: bounds how long one batch
/// keeps Matches waiting.
constexpr size_t kInsertSlice = 1024;

/// Log2 bucket-occupancy bins exported by CollectTelemetry.
constexpr size_t kOccupancySlots = 16;

void AtomicMinRelaxed(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur > value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxRelaxed(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

/// Cross-checks a decoded snapshot before any of it is acted on: a
/// snapshot that passed the CRC can still be semantically inconsistent
/// (hand-edited, produced by a buggy writer, or a v1 file with flipped
/// bits predating checksums).
Status ValidateSnapshot(const ServiceSnapshot& snapshot) {
  if (snapshot.attributes.empty()) {
    return Status::InvalidArgument("snapshot has no attributes");
  }
  if (snapshot.expected_qgrams.size() != snapshot.attributes.size()) {
    return Status::InvalidArgument(
        "snapshot expected_qgrams/attribute count mismatch");
  }
  for (double b : snapshot.expected_qgrams) {
    if (!std::isfinite(b) || b <= 0) {
      return Status::InvalidArgument(
          "snapshot expected q-gram counts must be finite and positive");
    }
  }
  if (!std::isfinite(snapshot.delta) || snapshot.delta <= 0 ||
      snapshot.delta >= 1) {
    return Status::InvalidArgument(
        "snapshot delta must be finite and in (0, 1)");
  }
  if (!std::isfinite(snapshot.sizing_max_collisions) ||
      snapshot.sizing_max_collisions <= 0) {
    return Status::InvalidArgument(
        "snapshot sizing_max_collisions must be finite and positive");
  }
  if (!std::isfinite(snapshot.sizing_confidence_ratio) ||
      snapshot.sizing_confidence_ratio <= 0 ||
      snapshot.sizing_confidence_ratio > 1) {
    return Status::InvalidArgument(
        "snapshot sizing_confidence_ratio must be finite and in (0, 1]");
  }
  std::unordered_set<RecordId> stored;
  stored.reserve(snapshot.records.size());
  for (const EncodedRecord& record : snapshot.records) {
    if (!stored.insert(record.id).second) {
      return Status::InvalidArgument(
          "snapshot contains duplicate record ids");
    }
  }
  for (RecordId id : snapshot.tombstones) {
    if (stored.contains(id)) {
      return Status::InvalidArgument(
          "snapshot tombstones a record id it also stores");
    }
  }
  return Status::OK();
}

/// InvalidArgument unless every snapshot record is `bits` wide.
Status CheckRecordWidths(const ServiceSnapshot& snapshot, size_t bits) {
  for (const EncodedRecord& record : snapshot.records) {
    if (record.bits.size() != bits) {
      return Status::InvalidArgument(
          "snapshot record width does not match the service's encoder");
    }
  }
  return Status::OK();
}

/// True when `a` and `b` describe the same encoder, LSH family and rule
/// (their data is not compared).
bool SameConfiguration(const ServiceSnapshot& a, const ServiceSnapshot& b) {
  return a.attributes == b.attributes &&
         a.expected_qgrams == b.expected_qgrams &&
         a.rule_text == b.rule_text && a.record_K == b.record_K &&
         a.record_theta == b.record_theta && a.delta == b.delta &&
         a.sizing_max_collisions == b.sizing_max_collisions &&
         a.sizing_confidence_ratio == b.sizing_confidence_ratio &&
         a.seed == b.seed;
}

}  // namespace

struct LinkageService::IndexEpoch {
  explicit IndexEpoch(RecordLevelBlocker record_blocker)
      : blocker(std::move(record_blocker)) {}

  bool IsLive(RecordId id) const {
    const uint32_t dense = store.DenseIndex(id);
    return dense != VectorStore::kNotFound && !store.IsDead(dense);
  }

  /// Stores `record` under its id — Remove + Add rewrites a live slot in
  /// place and resurrects a dead one, so no dense index moves — then
  /// indexes its blocking keys under that slot.
  void Upsert(const EncodedRecord& record) {
    store.Remove(record.id);
    blocker.Insert(record, store.Add(record));
  }

  /// Every live record, ordered by id.
  std::vector<EncodedRecord> LiveRecords() const {
    std::vector<EncodedRecord> out;
    out.reserve(store.live_size());
    for (uint32_t dense = 0; dense < store.size(); ++dense) {
      if (!store.IsDead(dense)) {
        out.push_back(EncodedRecord{store.IdAt(dense), store.VectorAt(dense)});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const EncodedRecord& a, const EncodedRecord& b) {
                return a.id < b.id;
              });
    return out;
  }

  /// Readers hold it shared for one probe; writers hold it unique for
  /// one store + tables update.
  mutable std::shared_mutex mu;
  VectorStore store;
  RecordLevelBlocker blocker;
  const Matcher matcher{&blocker, &store};
};

LinkageService::LinkageService(CbvHbConfig config,
                               LinkageServiceOptions options)
    : config_(std::move(config)),
      options_(options),
      epoch_(std::chrono::steady_clock::now()) {}

Result<std::unique_ptr<LinkageService>> LinkageService::Create(
    CbvHbConfig config, LinkageServiceOptions options,
    const std::vector<Record>& calibration_sample) {
  if (config.attribute_level_blocking) {
    return Status::InvalidArgument(
        "LinkageService indexes record-level HB blocking; "
        "attribute-level structures are not supported");
  }
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(config));
  if (config.expected_qgrams.empty()) {
    if (calibration_sample.empty()) {
      return Status::InvalidArgument(
          "linkage service needs expected_qgrams or a calibration sample");
    }
    config.expected_qgrams =
        EstimateExpectedQGrams(config.schema, calibration_sample);
  }
  std::unique_ptr<LinkageService> service(
      new LinkageService(std::move(config), options));
  Status init = service->Init();
  if (!init.ok()) return init;
  return service;
}

Status LinkageService::Init() {
  // BuildCbvHbParts fixes the draw order, so Restore() and an offline
  // engine with the same config reproduce this encoder and these
  // blocking keys from the seed.
  Rng rng(config_.seed);
  Result<CbvHbParts> built =
      BuildCbvHbParts(config_, config_.expected_qgrams, rng);
  if (!built.ok()) return built.status();
  CbvHbParts& parts = built.value();
  encoder_.emplace(std::move(parts.encoder));
  classifier_ = std::move(parts.classifier);
  index_ = std::make_shared<IndexEpoch>(
      std::get<RecordLevelBlocker>(std::move(parts.blocker)));

  const ExecutionOptions& exec = options_.execution;
  if (exec.pool != nullptr) {
    pool_ = exec.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(exec.num_threads);
    pool_ = owned_pool_.get();
  }

  // Every series the service writes lives in its own registry, so two
  // services in one process keep separate numbers.
  t_query_latency_ = registry_.GetHistogram("query_latency_us");
  t_insert_latency_ = registry_.GetHistogram("insert_latency_us");
  t_batch_latency_ = registry_.GetHistogram("batch_latency_us");
  t_queries_ = registry_.GetCounter("service_queries_total");
  t_inserts_ = registry_.GetCounter("service_inserts_total");
  t_deletes_ = registry_.GetCounter("service_deletes_total");
  t_updates_ = registry_.GetCounter("service_updates_total");
  t_compactions_ = registry_.GetCounter("compaction_runs_total");
  t_compaction_reclaimed_ = registry_.GetCounter("compaction_reclaimed_total");
  t_compaction_pause_ = registry_.GetHistogram("compaction_pause_us");
  t_candidates_ = registry_.GetCounter("service_candidates_total");
  t_comparisons_ = registry_.GetCounter("service_comparisons_total");
  t_matches_ = registry_.GetCounter("service_matches_total");
  t_restore_fallbacks_ =
      registry_.GetCounter("service_restore_fallbacks_total");
  t_skipped_rows_ = registry_.GetCounter("service_skipped_rows_total");
  return Status::OK();
}

LinkageService::~LinkageService() { StopBackgroundCompaction(); }

uint64_t LinkageService::NowNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void LinkageService::RecordSpan(uint64_t start, uint64_t end,
                                std::atomic<uint64_t>* nanos,
                                std::atomic<uint64_t>* first_start,
                                std::atomic<uint64_t>* last_end) {
  nanos->fetch_add(end - start, std::memory_order_relaxed);
  AtomicMinRelaxed(first_start, start);
  AtomicMaxRelaxed(last_end, end);
}

void LinkageService::WithWriteLock(FunctionRef<void(IndexEpoch&)> fn) {
  std::shared_lock compaction_guard(compaction_mu_);
  // Stable without index_mu_: a swap needs compaction_mu_ unique.
  IndexEpoch& index = *index_;
  std::unique_lock lock(index.mu);
  fn(index);
}

Status LinkageService::InsertUnjournaled(const Record& record) {
  CBVLINK_FAILPOINT("service.insert");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  telemetry::TraceSpan insert_span("insert");
  WithWriteLock([&](IndexEpoch& index) { index.Upsert(encoded.value()); });
  insert_span.End();
  const uint64_t end = NowNanos();
  RecordSpan(start, end, &insert_nanos_, &first_insert_start_ns_,
             &last_insert_end_ns_);
  t_inserts_->Add(1);
  t_insert_latency_->Record((end - start) / 1000);
  return Status::OK();
}

Status LinkageService::Insert(const Record& record) {
  CBVLINK_RETURN_NOT_OK(InsertUnjournaled(record));
  return JournalAppend(record);
}

Status LinkageService::JournalAppend(const Record& record) {
  std::shared_ptr<Journal> journal = this->journal();
  if (journal == nullptr) return Status::OK();
  telemetry::TraceSpan span("journal");
  const uint64_t before = span.active() ? journal->EndOffset() : 0;
  Status st = journal->AppendInsert(record);
  if (span.active() && st.ok()) {
    // Approximate under concurrent appends (the delta may include a
    // neighbour's frame); exact enough to explain an fsync stall.
    span.Annotate("bytes", journal->EndOffset() - before);
  }
  return st;
}

Status LinkageService::JournalAppend(const MutationOp& op) {
  std::shared_ptr<Journal> journal = this->journal();
  if (journal == nullptr) return Status::OK();
  telemetry::TraceSpan span("journal");
  return journal->Append(op);
}

Status LinkageService::DeleteUnjournaled(RecordId id, uint64_t* sequence) {
  CBVLINK_FAILPOINT("service.delete");
  bool removed = false;
  WithWriteLock([&](IndexEpoch& index) {
    removed = index.store.Remove(id);
    // Stamp the acknowledgement sequence AFTER the state change and under
    // the write lock: a snapshot reads the floor under the same lock, so
    // floor >= seq implies the removal is in the export.
    if (removed) {
      *sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
  });
  if (!removed) {
    return Status::NotFound(
        StrFormat("record %llu is not live", static_cast<unsigned long long>(id)));
  }
  t_deletes_->Add(1);
  return Status::OK();
}

Status LinkageService::UpdateUnjournaled(const Record& record,
                                         uint64_t* sequence) {
  CBVLINK_FAILPOINT("service.update");
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  bool live = false;
  WithWriteLock([&](IndexEpoch& index) {
    live = index.IsLive(record.id);
    if (!live) return;
    // Rewrite the slot, then index the new blocking keys.  Keys from the
    // previous bits stay until compaction; they only ever produce
    // candidates that classify on the new bits.
    index.Upsert(encoded.value());
    *sequence = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  });
  if (!live) {
    return Status::NotFound(StrFormat(
        "record %llu is not live", static_cast<unsigned long long>(record.id)));
  }
  t_updates_->Add(1);
  return Status::OK();
}

Status LinkageService::Delete(RecordId id) {
  uint64_t sequence = 0;
  CBVLINK_RETURN_NOT_OK(DeleteUnjournaled(id, &sequence));
  return JournalAppend(MutationOp::Delete(id, sequence));
}

Status LinkageService::Update(const Record& record) {
  uint64_t sequence = 0;
  CBVLINK_RETURN_NOT_OK(UpdateUnjournaled(record, &sequence));
  return JournalAppend(MutationOp::Update(record, sequence));
}

Status LinkageService::DeleteBatch(const std::vector<RecordId>& ids) {
  std::shared_ptr<Journal> journal = this->journal();
  for (RecordId id : ids) {
    uint64_t sequence = 0;
    CBVLINK_RETURN_NOT_OK(DeleteUnjournaled(id, &sequence));
    if (journal != nullptr) {
      CBVLINK_RETURN_NOT_OK(journal->Append(MutationOp::Delete(id, sequence)));
    }
  }
  if (journal != nullptr && journal->options().fsync_every != 0) {
    CBVLINK_RETURN_NOT_OK(journal->Sync());
  }
  return Status::OK();
}

Status LinkageService::UpdateBatch(const std::vector<Record>& records) {
  std::shared_ptr<Journal> journal = this->journal();
  for (const Record& record : records) {
    uint64_t sequence = 0;
    CBVLINK_RETURN_NOT_OK(UpdateUnjournaled(record, &sequence));
    if (journal != nullptr) {
      CBVLINK_RETURN_NOT_OK(
          journal->Append(MutationOp::Update(record, sequence)));
    }
  }
  if (journal != nullptr && journal->options().fsync_every != 0) {
    CBVLINK_RETURN_NOT_OK(journal->Sync());
  }
  return Status::OK();
}

bool LinkageService::SkipReplayed(RecordId id, uint64_t sequence) {
  if (sequence == 0) return false;  // unsequenced frames always apply
  if (sequence <= replay_floor_) return true;  // the snapshot covers it
  uint64_t& newest = replayed_sequence_[id];
  if (sequence <= newest) return true;  // a newer frame for `id` applied
  newest = sequence;
  AtomicMaxRelaxed(&sequence_, sequence);
  return false;
}

Result<bool> LinkageService::ApplyMutation(const MutationOp& op) {
  switch (op.kind) {
    case MutationKind::kInsert: {
      // Replay dedupe by id: the restored snapshot (or an earlier frame)
      // already carries the record.  Re-inserting would resurrect a
      // tombstone the journal deletes later — the skip is what keeps
      // replay order and live order equivalent.
      if (Contains(op.record.id)) return false;
      CBVLINK_RETURN_NOT_OK(InsertUnjournaled(op.record));
      return true;
    }
    case MutationKind::kDelete: {
      bool applied = false;
      WithWriteLock([&](IndexEpoch& index) {
        if (SkipReplayed(op.record.id, op.sequence)) return;
        applied = index.store.Remove(op.record.id);  // unknown id: no-op
      });
      if (applied) t_deletes_->Add(1);
      return applied;
    }
    case MutationKind::kUpdate: {
      Result<EncodedRecord> encoded = encoder_->Encode(op.record);
      if (!encoded.ok()) return encoded.status();
      // Upsert: in replay order the record existed when the update was
      // acknowledged, but a snapshot/journal overlap can present the
      // update before the insert frame is deduped — applying it as an
      // insert converges to the same state.
      bool applied = false;
      WithWriteLock([&](IndexEpoch& index) {
        if (SkipReplayed(op.record.id, op.sequence)) return;
        index.Upsert(encoded.value());
        applied = true;
      });
      if (applied) t_updates_->Add(1);
      return applied;
    }
  }
  return Status::InvalidArgument("unknown mutation kind");
}

void LinkageService::AttachJournal(std::shared_ptr<Journal> journal) {
  std::scoped_lock lock(journal_mu_);
  journal_ = std::move(journal);
}

std::shared_ptr<Journal> LinkageService::journal() const {
  std::scoped_lock lock(journal_mu_);
  return journal_;
}

bool LinkageService::Contains(RecordId id) const {
  const std::shared_ptr<IndexEpoch> index = PinIndex();
  std::shared_lock lock(index->mu);
  return index->IsLive(id);
}

size_t LinkageService::size() const {
  const std::shared_ptr<IndexEpoch> index = PinIndex();
  std::shared_lock lock(index->mu);
  return index->store.live_size();
}

size_t LinkageService::tombstone_count() const {
  const std::shared_ptr<IndexEpoch> index = PinIndex();
  std::shared_lock lock(index->mu);
  return index->store.dead_count();
}

size_t LinkageService::blocking_groups() const {
  return PinIndex()->blocker.L();
}

Result<JournalReplayStats> LinkageService::ReplayJournalFile(
    const std::string& path) {
  uint64_t applied = 0;
  Result<JournalReplayStats> replayed =
      ReplayJournal(path, [this, &applied](const MutationOp& op) {
        Result<bool> changed = ApplyMutation(op);
        if (!changed.ok()) return changed.status();
        if (changed.value()) ++applied;
        return Status::OK();
      });
  if (!replayed.ok()) return replayed;
  JournalReplayStats stats = replayed.value();
  stats.applied = applied;
  return stats;
}

Result<uint64_t> LinkageService::MergeSnapshotRecords(
    const ServiceSnapshot& snapshot) {
  CBVLINK_RETURN_NOT_OK(ValidateSnapshot(snapshot));
  // Records encoded by another hash family would silently mix with ours.
  if (!SameConfiguration(snapshot, ExportConfiguration())) {
    return Status::InvalidArgument(
        "snapshot configuration does not match this service's");
  }
  CBVLINK_RETURN_NOT_OK(CheckRecordWidths(snapshot, encoder_->total_bits()));
  std::unordered_set<RecordId> known;
  known.reserve(snapshot.records.size() + snapshot.tombstones.size());
  for (const EncodedRecord& record : snapshot.records) known.insert(record.id);
  known.insert(snapshot.tombstones.begin(), snapshot.tombstones.end());
  uint64_t inserted = 0;
  uint64_t updated = 0;
  uint64_t deleted = 0;
  WithWriteLock([&](IndexEpoch& index) {
    // Upsert every record that is absent here or whose bits differ (the
    // primary updated it after this follower last saw it).
    for (const EncodedRecord& record : snapshot.records) {
      const bool live = index.IsLive(record.id);
      const std::vector<uint64_t>& words = record.bits.words();
      if (live && std::equal(words.begin(), words.end(),
                             index.store.WordsAt(
                                 index.store.DenseIndex(record.id)))) {
        continue;
      }
      index.Upsert(record);
      ++(live ? updated : inserted);
    }
    // Reconcile deletions.  The snapshot is newer than every local frame
    // (it is fetched precisely because the local cursor fell behind), so
    // its verdict on each id is authoritative: tombstoned there -> dead
    // here; live neither there nor in its tombstones -> the primary
    // deleted it and compaction already cleared the tombstone -> dead
    // here too.
    for (RecordId id : snapshot.tombstones) deleted += index.store.Remove(id);
    for (uint32_t dense = 0; dense < index.store.size(); ++dense) {
      const RecordId id = index.store.IdAt(dense);
      if (!index.store.IsDead(dense) && !known.contains(id)) {
        deleted += index.store.Remove(id);
      }
    }
    replay_floor_ = std::max(replay_floor_, snapshot.last_sequence);
    std::erase_if(replayed_sequence_, [this](const auto& entry) {
      return entry.second <= replay_floor_;
    });
    AtomicMaxRelaxed(&sequence_, snapshot.last_sequence);
  });
  t_inserts_->Add(inserted);
  t_updates_->Add(updated);
  t_deletes_->Add(deleted);
  return inserted + updated + deleted;
}

Status LinkageService::Compact() {
  // Exclusive against mutators (they hold compaction_mu_ shared): from
  // here to the epoch swap the live set is frozen, so the rebuilt epoch
  // covers exactly the survivors.  Match never takes this lock — readers
  // keep serving the old epoch throughout; this exclusive section is the
  // "compaction pause" and it stalls writes only.
  const uint64_t pause_start = NowNanos();
  std::unique_lock compaction_guard(compaction_mu_);
  const IndexEpoch& old = *index_;
  // Deterministic rebuild: BulkInsert over id-sorted survivors produces
  // the same buckets a fresh build of the live set would.
  const std::vector<EncodedRecord> survivors = old.LiveRecords();
  auto fresh = std::make_shared<IndexEpoch>(old.blocker.EmptyCopy());
  CBVLINK_RETURN_NOT_OK(fresh->store.AddAll(survivors));
  fresh->blocker.BulkInsert(survivors, pool_);
  const size_t before = old.blocker.TotalEntries();
  const size_t after = fresh->blocker.TotalEntries();
  const uint64_t reclaimed = before > after ? before - after : 0;
  {
    // Publish the new epoch.  In-flight Matches pinned the old
    // shared_ptr and drain on it; the old epoch is retired when the last
    // pin drops.
    std::unique_lock swap_lock(index_mu_);
    index_ = std::move(fresh);
  }
  t_compactions_->Add(1);
  t_compaction_reclaimed_->Add(reclaimed);
  t_compaction_pause_->Record((NowNanos() - pause_start) / 1000);
  return Status::OK();
}

void LinkageService::CompactorLoop() {
  std::unique_lock lock(compactor_mu_);
  while (!compactor_stop_) {
    compactor_cv_.wait_for(lock, options_.compaction_interval,
                           [this] { return compactor_stop_; });
    if (compactor_stop_) break;
    const ServiceMetrics m = metrics();
    if (m.tombstones == 0) continue;
    const double ratio = static_cast<double>(m.tombstones) /
                         static_cast<double>(m.tombstones + m.live_records);
    if (ratio < options_.compaction_dead_ratio) continue;
    lock.unlock();
    Status st = Compact();
    if (!st.ok()) {
      std::fprintf(stderr, "cbvlink: background compaction failed: %s\n",
                   st.ToString().c_str());
    }
    lock.lock();
  }
}

void LinkageService::StartBackgroundCompaction() {
  std::scoped_lock lock(compactor_mu_);
  if (compactor_.joinable()) return;
  compactor_stop_ = false;
  compactor_ = std::thread([this] { CompactorLoop(); });
}

void LinkageService::StopBackgroundCompaction() {
  std::thread worker;
  {
    std::scoped_lock lock(compactor_mu_);
    compactor_stop_ = true;
    worker = std::move(compactor_);
  }
  compactor_cv_.notify_all();
  if (worker.joinable()) worker.join();
}

void LinkageService::Probe(const EncodedRecord& b,
                           std::vector<IdPair>* out) const {
  CBVLINK_FAILPOINT_DELAY("index.collect");
  // Per-thread probe state; the stamp array grows to the largest store
  // this thread has probed.
  thread_local Matcher::Scratch scratch;
  MatchStats stats;
  const size_t first = out->size();
  {
    // Pin the epoch for the whole probe: the compactor may publish a
    // successor mid-call, but this Match keeps reading the epoch it
    // started on.  The shared lock only waits out a writer's one-record
    // update.
    const std::shared_ptr<IndexEpoch> index = PinIndex();
    std::shared_lock lock(index->mu);
    telemetry::TraceSpan candidates_span("candidates");
    index->matcher.Collect(b.bits, &scratch, &stats);
    candidates_span.Annotate("occurrences", stats.candidate_occurrences);
    candidates_span.Annotate("candidates", scratch.num_staged());
    candidates_span.End();

    telemetry::TraceSpan compare_span("compare");
    index->matcher.Compare(b, classifier_, &scratch, out, &stats);
    compare_span.Annotate("compared", stats.comparisons);
    compare_span.Annotate("matched", stats.matches);
  }
  // Registry-id order makes a query's output independent of bucket
  // order, so it is byte-identical across compaction and restore.
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
  // Match-funnel telemetry: candidates -> comparisons -> matches.  The
  // ratios are the paper's RR/PQ analogues at serving time (a drifting
  // comparisons/candidates ratio means the Eq. 2 tables stopped
  // discriminating).
  t_candidates_->Add(stats.candidate_occurrences);
  t_comparisons_->Add(stats.comparisons);
  t_matches_->Add(stats.matches);
}

Status LinkageService::Match(const Record& record,
                             std::vector<IdPair>* out) const {
  CBVLINK_FAILPOINT("service.match");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  Probe(encoded.value(), out);
  const uint64_t end = NowNanos();
  RecordSpan(start, end, &query_nanos_, &first_query_start_ns_,
             &last_query_end_ns_);
  t_queries_->Add(1);
  t_query_latency_->Record((end - start) / 1000);
  return Status::OK();
}

Status LinkageService::MatchAndInsert(const Record& record,
                                      std::vector<IdPair>* out) {
  CBVLINK_FAILPOINT("service.match");
  CBVLINK_FAILPOINT("service.insert");
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<EncodedRecord> encoded = encoder_->Encode(record);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  Probe(encoded.value(), out);
  const uint64_t mid = NowNanos();
  RecordSpan(start, mid, &query_nanos_, &first_query_start_ns_,
             &last_query_end_ns_);
  t_queries_->Add(1);
  t_query_latency_->Record((mid - start) / 1000);
  telemetry::TraceSpan insert_span("insert");
  WithWriteLock([&](IndexEpoch& index) { index.Upsert(encoded.value()); });
  insert_span.End();
  const uint64_t end = NowNanos();
  RecordSpan(mid, end, &insert_nanos_, &first_insert_start_ns_,
             &last_insert_end_ns_);
  t_inserts_->Add(1);
  t_insert_latency_->Record((end - mid) / 1000);
  return JournalAppend(record);
}

Status LinkageService::InsertBatch(const std::vector<Record>& records) {
  CBVLINK_FAILPOINT("service.insert");
  telemetry::ScopedTimer batch_timer(t_batch_latency_);
  const uint64_t start = NowNanos();
  telemetry::TraceSpan encode_span("encode");
  Result<std::vector<EncodedRecord>> encoded =
      encoder_->EncodeAll(records, pool_);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  // Index on this thread, in record order.  The pool must not be used
  // under the write lock: its workers may be blocked on the epoch lock
  // serving another caller's MatchBatch.
  telemetry::TraceSpan insert_span("insert");
  const std::vector<EncodedRecord>& rows = encoded.value();
  for (size_t begin = 0; begin < rows.size(); begin += kInsertSlice) {
    const size_t end = std::min(rows.size(), begin + kInsertSlice);
    WithWriteLock([&](IndexEpoch& index) {
      for (size_t i = begin; i < end; ++i) index.Upsert(rows[i]);
    });
  }
  insert_span.Annotate("records", rows.size());
  insert_span.End();
  RecordSpan(start, NowNanos(), &insert_nanos_, &first_insert_start_ns_,
             &last_insert_end_ns_);
  t_inserts_->Add(rows.size());
  // Journal in record order, then sync once at the batch boundary so the
  // whole batch is durable before the caller's acknowledgement even
  // under a relaxed per-append fsync policy.
  std::shared_ptr<Journal> journal = this->journal();
  if (journal != nullptr) {
    telemetry::TraceSpan journal_span("journal");
    const uint64_t before = journal_span.active() ? journal->EndOffset() : 0;
    for (const Record& record : records) {
      CBVLINK_RETURN_NOT_OK(journal->AppendInsert(record));
    }
    if (journal->options().fsync_every != 0) {
      CBVLINK_RETURN_NOT_OK(journal->Sync());
    }
    if (journal_span.active()) {
      journal_span.Annotate("records", records.size());
      journal_span.Annotate("bytes", journal->EndOffset() - before);
    }
  }
  return Status::OK();
}

Status LinkageService::MatchBatch(const std::vector<Record>& records,
                                  std::vector<IdPair>* out) {
  std::mutex mu;
  Status first_error;
  telemetry::ScopedTimer batch_timer(t_batch_latency_);
  const telemetry::TraceContext parent_ctx = telemetry::CurrentTraceContext();
  pool_->ParallelFor(records.size(),
                     [&](size_t /*chunk*/, size_t begin, size_t end) {
                       telemetry::ScopedTraceContext scope(
                           parent_ctx.collector, parent_ctx.parent_span_id);
                       telemetry::TraceSpan chunk_span("match_chunk");
                       chunk_span.Annotate("begin", begin);
                       chunk_span.Annotate("count", end - begin);
                       std::vector<IdPair> local;
                       for (size_t i = begin; i < end; ++i) {
                         Status st = Match(records[i], &local);
                         if (!st.ok()) {
                           std::scoped_lock lock(mu);
                           if (first_error.ok()) first_error = st;
                           return;
                         }
                       }
                       std::scoped_lock lock(mu);
                       out->insert(out->end(), local.begin(), local.end());
                     });
  return first_error;
}

ServiceSnapshot LinkageService::ExportConfiguration() const {
  ServiceSnapshot snapshot;
  for (const AttributeSpec& attr : config_.schema.attributes) {
    snapshot.attributes.push_back(SnapshotAttribute{
        attr.name, attr.alphabet->symbols(), attr.qgram.q, attr.qgram.pad});
  }
  snapshot.expected_qgrams = config_.expected_qgrams;
  snapshot.rule_text = config_.rule.ToString();
  snapshot.record_K = config_.record_K;
  snapshot.record_theta = config_.record_theta;
  snapshot.delta = config_.delta;
  snapshot.sizing_max_collisions = config_.sizing.max_collisions;
  snapshot.sizing_confidence_ratio = config_.sizing.confidence_ratio;
  snapshot.seed = config_.seed;
  return snapshot;
}

ServiceSnapshot LinkageService::ExportSnapshot() const {
  ServiceSnapshot snapshot = ExportConfiguration();
  // Shared against the compactor, so no epoch swap lands mid-export, and
  // the epoch lock shared, so no mutation does: the sequence floor, the
  // records and the tombstones are one consistent cut.  Writers wait for
  // the in-memory copy; readers do not.
  std::shared_lock compaction_guard(compaction_mu_);
  const std::shared_ptr<IndexEpoch> index = PinIndex();
  std::shared_lock lock(index->mu);
  snapshot.last_sequence = sequence_.load(std::memory_order_relaxed);
  snapshot.records = index->LiveRecords();
  snapshot.tombstones = index->store.DeadIds();
  std::sort(snapshot.tombstones.begin(), snapshot.tombstones.end());
  return snapshot;
}

Status LinkageService::SaveSnapshot(std::ostream& out) const {
  return WriteServiceSnapshot(ExportSnapshot(), out);
}

Status LinkageService::SaveSnapshotToFile(const std::string& path) const {
  // Capture the journal mark BEFORE exporting: every frame below the
  // mark was applied before the export began and is therefore in the
  // snapshot, so dropping [0, mark) can never lose an acknowledged
  // insert.  Frames past the mark are kept even when the export also
  // caught them — replay's id-dedupe makes the overlap harmless.
  std::shared_ptr<Journal> journal = this->journal();
  const uint64_t mark = journal != nullptr ? journal->EndOffset() : 0;
  CBVLINK_RETURN_NOT_OK(WriteServiceSnapshotToFile(ExportSnapshot(), path));
  if (journal != nullptr) {
    CBVLINK_RETURN_NOT_OK(journal->DropCommitted(mark));
  }
  return Status::OK();
}

Result<std::unique_ptr<LinkageService>> LinkageService::Restore(
    const ServiceSnapshot& snapshot) {
  CBVLINK_RETURN_NOT_OK(ValidateSnapshot(snapshot));
  Result<Rule> rule = ParseRule(snapshot.rule_text);
  if (!rule.ok()) return rule.status();

  // Rebuild the schema over owned alphabets (the snapshot stores each
  // alphabet by value).
  std::vector<std::unique_ptr<Alphabet>> alphabets;
  CbvHbConfig config;
  for (const SnapshotAttribute& attr : snapshot.attributes) {
    alphabets.push_back(std::make_unique<Alphabet>(attr.alphabet_symbols));
    config.schema.attributes.push_back(AttributeSpec{
        attr.name, alphabets.back().get(),
        QGramOptions{static_cast<size_t>(attr.qgram_q), attr.qgram_pad}});
  }
  config.rule = std::move(rule).value();
  config.expected_qgrams = snapshot.expected_qgrams;
  config.record_K = static_cast<size_t>(snapshot.record_K);
  config.record_theta = static_cast<size_t>(snapshot.record_theta);
  config.delta = snapshot.delta;
  config.sizing.max_collisions = snapshot.sizing_max_collisions;
  config.sizing.confidence_ratio = snapshot.sizing_confidence_ratio;
  config.seed = snapshot.seed;

  Result<std::unique_ptr<LinkageService>> created = Create(std::move(config));
  if (!created.ok()) return created.status();
  LinkageService& service = *created.value();
  service.owned_alphabets_ = std::move(alphabets);

  const size_t expected_bits = service.encoder_->total_bits();
  CBVLINK_RETURN_NOT_OK(CheckRecordWidths(snapshot, expected_bits));
  // Widths validated; nothing else can see the service yet, so load
  // without locks.  The tables are rebuilt from the records, so a
  // restored index holds no stale entries, exactly as after a compaction.
  IndexEpoch& index = *service.index_;
  CBVLINK_RETURN_NOT_OK(index.store.AddAll(snapshot.records));
  // Mutation state (version 3+; defaults for older snapshots): restored
  // tombstones keep deleted records dead across the restart — as dead
  // slots, whose words are never compared — and the sequence floor lets
  // journal replay skip delete/update frames the snapshot already
  // reflects.
  const BitVector unused(expected_bits);
  for (RecordId id : snapshot.tombstones) {
    index.store.Add(EncodedRecord{id, unused});
    index.store.Remove(id);
  }
  index.blocker.BulkInsert(snapshot.records, service.pool_);
  service.restored_records_ = snapshot.records.size();
  service.sequence_.store(snapshot.last_sequence, std::memory_order_relaxed);
  service.replay_floor_ = snapshot.last_sequence;
  return created;
}

Result<std::unique_ptr<LinkageService>> LinkageService::RestoreFromFile(
    const std::string& path) {
  Status primary_error;
  {
    Result<ServiceSnapshot> snapshot = ReadServiceSnapshotFromFile(path);
    if (snapshot.ok()) {
      Result<std::unique_ptr<LinkageService>> service =
          Restore(snapshot.value());
      if (service.ok()) return service;
      primary_error = service.status();
    } else {
      primary_error = snapshot.status();
    }
  }
  // Primary unreadable or invalid: the atomic saver keeps the previous
  // good snapshot hard-linked at path.bak — the newest committed state
  // that can still be valid.  (path.tmp is deliberately not a candidate:
  // rename is the commit point, so tmp contents were never committed.)
  Result<ServiceSnapshot> backup =
      ReadServiceSnapshotFromFile(SnapshotBackupPath(path));
  if (backup.ok()) {
    Result<std::unique_ptr<LinkageService>> service =
        Restore(backup.value());
    if (service.ok()) {
      service.value()->t_restore_fallbacks_->Add(1);
      return service;
    }
  }
  return primary_error;
}

ServiceMetrics LinkageService::metrics() const {
  ServiceMetrics m;
  m.inserts = restored_records_ + t_inserts_->Value();
  m.deletes = t_deletes_->Value();
  m.updates = t_updates_->Value();
  {
    const std::shared_ptr<IndexEpoch> index = PinIndex();
    std::shared_lock lock(index->mu);
    m.live_records = index->store.live_size();
    m.tombstones = index->store.dead_count();
  }
  m.compactions = t_compactions_->Value();
  m.compaction_reclaimed = t_compaction_reclaimed_->Value();
  m.queries = t_queries_->Value();
  m.candidate_occurrences = t_candidates_->Value();
  m.comparisons = t_comparisons_->Value();
  m.matches = t_matches_->Value();
  m.restore_fallbacks = t_restore_fallbacks_->Value();
  m.skipped_rows = t_skipped_rows_->Value();
  m.insert_seconds =
      static_cast<double>(insert_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  m.query_seconds =
      static_cast<double>(query_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  const auto wall_span = [](const std::atomic<uint64_t>& first,
                            const std::atomic<uint64_t>& last) {
    const uint64_t start = first.load(std::memory_order_relaxed);
    const uint64_t end = last.load(std::memory_order_relaxed);
    return end > start ? static_cast<double>(end - start) * 1e-9 : 0.0;
  };
  m.insert_wall_seconds =
      wall_span(first_insert_start_ns_, last_insert_end_ns_);
  m.query_wall_seconds = wall_span(first_query_start_ns_, last_query_end_ns_);
  return m;
}

void LinkageService::RecordSkippedRows(uint64_t n) { t_skipped_rows_->Add(n); }

telemetry::Registry::Snapshot LinkageService::CollectTelemetry() const {
  telemetry::Registry& reg = registry_;

  // Which Hamming kernel set the process dispatches to (scalar / avx2 /
  // avx512): the named series is set to 1, so a scrape can alert on an
  // unexpected downgrade after a deploy or host move.
  reg.GetGauge(telemetry::LabeledName("hamming_kernel_active", "kernel",
                                      ActiveKernels().name))
      ->Set(1.0);
  const ServiceMetrics m = metrics();
  reg.GetGauge("service_records")->Set(static_cast<double>(m.live_records));
  reg.GetGauge("service_query_wall_seconds")->Set(m.query_wall_seconds);
  reg.GetGauge("service_insert_wall_seconds")->Set(m.insert_wall_seconds);
  reg.GetGauge("service_queries_per_second")->Set(m.QueriesPerSecond());

  // Mutation-lifecycle gauges: live vs dead is the compactor's trigger
  // ratio, surfaced so operators can see reclaim pressure build.
  const double live = static_cast<double>(m.live_records);
  const double dead = static_cast<double>(m.tombstones);
  reg.GetGauge("index_live")->Set(live);
  reg.GetGauge("index_dead")->Set(dead);
  reg.GetGauge("compaction_tombstone_ratio")
      ->Set(dead + live == 0 ? 0.0 : dead / (dead + live));

  // Per-table LSH health, copied out under one shared hold of the epoch
  // lock and published after it drops.
  struct TableHealth {
    size_t buckets, entries, max_bucket;
    double mean_bucket;
  };
  std::vector<TableHealth> health;
  // Cross-table occupancy: bin k counts buckets of size in
  // [2^k, 2^(k+1)).  All bins are always exported so a scrape sees the
  // full distribution shape, including its zeros.
  std::vector<uint64_t> occupancy(kOccupancySlots, 0);
  size_t K = 0;
  {
    const std::shared_ptr<IndexEpoch> index = PinIndex();
    std::shared_lock lock(index->mu);
    K = index->blocker.K();
    for (const BlockingTable& table : index->blocker.tables()) {
      health.push_back(TableHealth{table.NumBuckets(), table.NumEntries(),
                                   table.MaxBucketSize(),
                                   table.MeanBucketSize()});
      const std::vector<uint64_t> bins =
          table.OccupancyHistogram(kOccupancySlots);
      for (size_t bin = 0; bin < kOccupancySlots; ++bin) {
        occupancy[bin] += bins[bin];
      }
    }
  }
  reg.GetGauge("lsh_tables")->Set(static_cast<double>(health.size()));
  reg.GetGauge("lsh_k")->Set(static_cast<double>(K));
  for (size_t l = 0; l < health.size(); ++l) {
    const TableHealth& table = health[l];
    const std::string label = StrFormat("%zu", l);
    reg.GetGauge(telemetry::LabeledName("lsh_table_buckets", "table", label))
        ->Set(static_cast<double>(table.buckets));
    reg.GetGauge(telemetry::LabeledName("lsh_table_entries", "table", label))
        ->Set(static_cast<double>(table.entries));
    reg.GetGauge(
           telemetry::LabeledName("lsh_table_max_bucket", "table", label))
        ->Set(static_cast<double>(table.max_bucket));
    reg.GetGauge(
           telemetry::LabeledName("lsh_table_mean_bucket", "table", label))
        ->Set(table.mean_bucket);
  }
  for (size_t bin = 0; bin < kOccupancySlots; ++bin) {
    reg.GetGauge(telemetry::LabeledName("lsh_bucket_occupancy", "size_log2",
                                        StrFormat("%zu", bin)))
        ->Set(static_cast<double>(occupancy[bin]));
  }
  return telemetry::MergeSnapshots(telemetry::Registry::Global().Collect(),
                                   registry_.Collect());
}

}  // namespace cbvlink
