// Crash-safety tests for the append-only insert journal (src/io/journal.h):
// round trips, fsync policies, a corruption sweep (truncation at every
// offset, single-byte flips), failpoint-driven kill-during-append, epoch
// rotation, and replay equivalence against direct service inserts.

#include "src/io/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/failpoint.h"
#include "src/datagen/generators.h"
#include "src/service/linkage_service.h"
#include "src/telemetry/metrics.h"
#include "tests/test_paths.h"

namespace cbvlink {
namespace {

Record MakeRecord(RecordId id) {
  Record r;
  r.id = id;
  r.fields = {"JOHN" + std::to_string(id), "SMITH", "DURHAM", "27701"};
  return r;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Replays `path` collecting the records.
std::vector<Record> ReplayAll(const std::string& path,
                              JournalReplayStats* stats) {
  std::vector<Record> records;
  Result<JournalReplayStats> result =
      ReplayJournal(path, [&records](const MutationOp& op) {
        records.push_back(op.record);
        return Status::OK();
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && stats != nullptr) *stats = result.value();
  return records;
}

TEST(JournalTest, OpenCreatesHeaderOnlyFile) {
  const std::string path = UniqueTempPath("journal_create.cbvj");
  Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal.value()->EndOffset(), kJournalHeaderSize);
  EXPECT_EQ(journal.value()->epoch(), 0u);
  EXPECT_EQ(journal.value()->appended_frames(), 0u);
  journal.value().reset();

  EXPECT_EQ(ReadFileBytes(path).size(), kJournalHeaderSize);
  JournalReplayStats stats;
  EXPECT_TRUE(ReplayAll(path, &stats).empty());
  EXPECT_TRUE(stats.existed);
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(JournalTest, MissingFileReplaysAsNonexistent) {
  JournalReplayStats stats;
  EXPECT_TRUE(ReplayAll(UniqueTempPath("journal_missing.cbvj"), &stats).empty());
  EXPECT_FALSE(stats.existed);
}

TEST(JournalTest, AppendThenReplayRoundTrip) {
  const std::string path = UniqueTempPath("journal_roundtrip.cbvj");
  Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  for (RecordId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
  }
  EXPECT_EQ(journal.value()->appended_frames(), 5u);
  const uint64_t end = journal.value()->EndOffset();
  journal.value().reset();

  JournalReplayStats stats;
  const std::vector<Record> replayed = ReplayAll(path, &stats);
  ASSERT_EQ(replayed.size(), 5u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    const Record expected = MakeRecord(static_cast<RecordId>(i + 1));
    EXPECT_EQ(replayed[i].id, expected.id);
    EXPECT_EQ(replayed[i].fields, expected.fields);
  }
  EXPECT_EQ(stats.frames, 5u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_EQ(stats.valid_bytes, end);
  EXPECT_FALSE(stats.tail_truncated);
}

TEST(JournalTest, ReopenResumesAppendingAtTheEnd) {
  const std::string path = UniqueTempPath("journal_reopen.cbvj");
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(1)).ok());
  }
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    // appended_frames counts this handle's appends, not history.
    EXPECT_EQ(journal.value()->appended_frames(), 0u);
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(2)).ok());
  }
  const std::vector<Record> replayed = ReplayAll(path, nullptr);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].id, 1u);
  EXPECT_EQ(replayed[1].id, 2u);
}

TEST(JournalTest, FsyncPolicyCadence) {
  telemetry::Registry::Global().ResetForTest();
  telemetry::Counter* fsyncs =
      telemetry::Registry::Global().GetCounter("journal_fsyncs_total");

  // fsync_every = 1: one fsync per append.
  {
    Result<std::unique_ptr<Journal>> journal =
        Journal::Open(UniqueTempPath("journal_fsync1.cbvj"), {.fsync_every = 1});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(1)).ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(2)).ok());
    EXPECT_EQ(fsyncs->Value(), 2u);
  }

  // fsync_every = 3: only the third append syncs; a manual Sync() flushes
  // the pending tail, and a second Sync() with nothing pending is free.
  {
    telemetry::Registry::Global().ResetForTest();
    Result<std::unique_ptr<Journal>> journal =
        Journal::Open(UniqueTempPath("journal_fsync3.cbvj"), {.fsync_every = 3});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(1)).ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(2)).ok());
    EXPECT_EQ(fsyncs->Value(), 0u);
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(3)).ok());
    EXPECT_EQ(fsyncs->Value(), 1u);
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(4)).ok());
    ASSERT_TRUE(journal.value()->Sync().ok());
    EXPECT_EQ(fsyncs->Value(), 2u);
    ASSERT_TRUE(journal.value()->Sync().ok());
    EXPECT_EQ(fsyncs->Value(), 2u);
  }

  // fsync_every = 0: appends never sync (the OS decides).
  {
    telemetry::Registry::Global().ResetForTest();
    Result<std::unique_ptr<Journal>> journal =
        Journal::Open(UniqueTempPath("journal_fsync0.cbvj"), {.fsync_every = 0});
    ASSERT_TRUE(journal.ok());
    for (RecordId id = 1; id <= 8; ++id) {
      ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
    }
    EXPECT_EQ(fsyncs->Value(), 0u);
  }
  telemetry::Registry::Global().ResetForTest();
}

// The central crash-safety property: for EVERY possible truncation point
// of a valid journal, replay recovers exactly the frames that lie fully
// before the cut, flags the torn tail, and Open() resumes appending from
// the same boundary.
TEST(JournalTest, CorruptionSweepTruncationAtEveryOffset) {
  const std::string path = UniqueTempPath("journal_sweep_base.cbvj");
  std::vector<uint64_t> boundaries = {kJournalHeaderSize};
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (RecordId id = 1; id <= 4; ++id) {
      ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
      boundaries.push_back(journal.value()->EndOffset());
    }
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), boundaries.back());

  const std::string cut_path = UniqueTempPath("journal_sweep_cut.cbvj");
  for (size_t cut = kJournalHeaderSize; cut <= bytes.size(); ++cut) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));

    // How many frames end at or before the cut, and where the last one ends.
    uint64_t expect_frames = 0;
    uint64_t expect_valid = kJournalHeaderSize;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) {
        expect_frames = b;
        expect_valid = boundaries[b];
      }
    }

    JournalReplayStats stats;
    const std::vector<Record> replayed = ReplayAll(cut_path, &stats);
    ASSERT_EQ(replayed.size(), expect_frames) << "cut at " << cut;
    EXPECT_EQ(stats.valid_bytes, expect_valid) << "cut at " << cut;
    EXPECT_EQ(stats.tail_truncated, cut != expect_valid) << "cut at " << cut;
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i].id, i + 1) << "cut at " << cut;
    }

    // Open() must truncate the torn tail and land appends cleanly.
    Result<std::unique_ptr<Journal>> reopened = Journal::Open(cut_path);
    ASSERT_TRUE(reopened.ok()) << "cut at " << cut;
    EXPECT_EQ(reopened.value()->EndOffset(), expect_valid) << "cut at " << cut;
    ASSERT_TRUE(reopened.value()->AppendInsert(MakeRecord(99)).ok());
    reopened.value().reset();
    const std::vector<Record> after = ReplayAll(cut_path, nullptr);
    ASSERT_EQ(after.size(), expect_frames + 1) << "cut at " << cut;
    EXPECT_EQ(after.back().id, 99u) << "cut at " << cut;
  }
}

// Flip every single byte of the frame region (one at a time): replay must
// stop before the frame containing the flip — the CRC (or the length
// bound) catches it — and never emit a wrong record.
TEST(JournalTest, CorruptionSweepSingleByteFlips) {
  const std::string path = UniqueTempPath("journal_flip_base.cbvj");
  std::vector<uint64_t> boundaries = {kJournalHeaderSize};
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (RecordId id = 1; id <= 3; ++id) {
      ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
      boundaries.push_back(journal.value()->EndOffset());
    }
  }
  const std::string bytes = ReadFileBytes(path);

  const std::string flip_path = UniqueTempPath("journal_flip.cbvj");
  for (size_t pos = kJournalHeaderSize; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteFileBytes(flip_path, mutated);

    // Frames strictly before the flipped frame survive.
    uint64_t expect_frames = 0;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= pos) expect_frames = b;
    }

    std::vector<Record> replayed;
    Result<JournalReplayStats> stats =
        ReplayJournal(flip_path, [&replayed](const MutationOp& op) {
          replayed.push_back(op.record);
          return Status::OK();
        });
    ASSERT_TRUE(stats.ok()) << "flip at " << pos;
    ASSERT_EQ(replayed.size(), expect_frames) << "flip at " << pos;
    EXPECT_TRUE(stats.value().tail_truncated) << "flip at " << pos;
    for (size_t i = 0; i < replayed.size(); ++i) {
      EXPECT_EQ(replayed[i].id, i + 1) << "flip at " << pos;
    }
  }
}

// Delete/update frames round-trip with their kinds and acknowledgement
// sequences intact; a delete frame carries only the id.
TEST(JournalTest, MutationFramesRoundTrip) {
  const std::string path = UniqueTempPath("journal_mutation_roundtrip.cbvj");
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(MutationOp::Insert(MakeRecord(1))).ok());
    ASSERT_TRUE(journal.value()->Append(MutationOp::Delete(1, 7)).ok());
    ASSERT_TRUE(
        journal.value()->Append(MutationOp::Update(MakeRecord(2), 8)).ok());
    EXPECT_EQ(journal.value()->appended_frames(), 3u);
  }

  std::vector<MutationOp> ops;
  Result<JournalReplayStats> stats = ReplayJournal(path, [&ops](const MutationOp& op) {
    ops.push_back(op);
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, MutationKind::kInsert);
  EXPECT_EQ(ops[0].record.fields, MakeRecord(1).fields);
  EXPECT_EQ(ops[0].sequence, 0u);
  EXPECT_EQ(ops[1].kind, MutationKind::kDelete);
  EXPECT_EQ(ops[1].record.id, 1u);
  EXPECT_TRUE(ops[1].record.fields.empty());
  EXPECT_EQ(ops[1].sequence, 7u);
  EXPECT_EQ(ops[2].kind, MutationKind::kUpdate);
  EXPECT_EQ(ops[2].record.id, 2u);
  EXPECT_EQ(ops[2].record.fields, MakeRecord(2).fields);
  EXPECT_EQ(ops[2].sequence, 8u);
}

// The truncation and flip sweeps, repeated over a journal that mixes all
// three op frames: the new delete/update frames must be exactly as
// crash-safe as inserts — any cut or flip loses only the torn tail.
TEST(JournalTest, CorruptionSweepMixedOpFrames) {
  const std::string path = UniqueTempPath("journal_mixed_base.cbvj");
  std::vector<uint64_t> boundaries = {kJournalHeaderSize};
  const std::vector<MutationOp> appended = {
      MutationOp::Insert(MakeRecord(1)),
      MutationOp::Delete(1, 1),
      MutationOp::Update(MakeRecord(2), 2),
      MutationOp::Delete(12345678, 3),
  };
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    for (const MutationOp& op : appended) {
      ASSERT_TRUE(journal.value()->Append(op).ok());
      boundaries.push_back(journal.value()->EndOffset());
    }
  }
  const std::string bytes = ReadFileBytes(path);

  auto expect_prefix = [&](const std::vector<MutationOp>& ops, size_t n,
                           const std::string& label) {
    ASSERT_EQ(ops.size(), n) << label;
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i].kind, appended[i].kind) << label;
      EXPECT_EQ(ops[i].record.id, appended[i].record.id) << label;
      EXPECT_EQ(ops[i].sequence, appended[i].sequence) << label;
    }
  };

  const std::string mutated_path = UniqueTempPath("journal_mixed_mutated.cbvj");
  // Truncation at every offset.
  for (size_t cut = kJournalHeaderSize; cut <= bytes.size(); ++cut) {
    WriteFileBytes(mutated_path, bytes.substr(0, cut));
    size_t expect_frames = 0;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= cut) expect_frames = b;
    }
    std::vector<MutationOp> ops;
    Result<JournalReplayStats> stats =
        ReplayJournal(mutated_path, [&ops](const MutationOp& op) {
          ops.push_back(op);
          return Status::OK();
        });
    ASSERT_TRUE(stats.ok()) << "cut at " << cut;
    expect_prefix(ops, expect_frames, "cut at " + std::to_string(cut));
  }
  // Single-byte flips at every offset (including each frame's op byte and
  // sequence field).
  for (size_t pos = kJournalHeaderSize; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    WriteFileBytes(mutated_path, mutated);
    size_t expect_frames = 0;
    for (size_t b = 1; b < boundaries.size(); ++b) {
      if (boundaries[b] <= pos) expect_frames = b;
    }
    std::vector<MutationOp> ops;
    Result<JournalReplayStats> stats =
        ReplayJournal(mutated_path, [&ops](const MutationOp& op) {
          ops.push_back(op);
          return Status::OK();
        });
    ASSERT_TRUE(stats.ok()) << "flip at " << pos;
    EXPECT_TRUE(stats.value().tail_truncated) << "flip at " << pos;
    expect_prefix(ops, expect_frames, "flip at " + std::to_string(pos));
  }
}

TEST(JournalTest, FlippedHeaderMagicIsRejected) {
  const std::string path = UniqueTempPath("journal_badmagic.cbvj");
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(1)).ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
  WriteFileBytes(path, bytes);

  EXPECT_FALSE(Journal::Open(path).ok());
  Result<JournalReplayStats> replay =
      ReplayJournal(path, [](const MutationOp&) { return Status::OK(); });
  EXPECT_FALSE(replay.ok());
}

// Kill-during-append drill: the journal.append short_write failpoint
// persists a torn frame prefix exactly like a crash mid-pwrite, the
// handle reports the failure, and the next Open() truncates the torn
// bytes so recovery sees only acknowledged inserts.
TEST(JournalTest, FailpointKillDuringAppendLeavesRecoverableTail) {
  const std::string path = UniqueTempPath("journal_torn.cbvj");
  uint64_t end_before_kill = 0;
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(1)).ok());
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(2)).ok());
    end_before_kill = journal.value()->EndOffset();

    // The "crash": only the first 5 bytes of the next frame hit disk.
    Failpoints::Activate("journal.append", FailpointAction::kShortWrite, 5);
    const Status torn = journal.value()->AppendInsert(MakeRecord(3));
    Failpoints::DeactivateAll();
    EXPECT_FALSE(torn.ok());
    // The handle's end offset stays at the last valid boundary.
    EXPECT_EQ(journal.value()->EndOffset(), end_before_kill);
  }

  // The torn bytes really are on disk (a crash would leave them too)...
  EXPECT_EQ(ReadFileBytes(path).size(), end_before_kill + 5);

  // ...replay stops cleanly at the last valid frame...
  JournalReplayStats stats;
  const std::vector<Record> replayed = ReplayAll(path, &stats);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(stats.valid_bytes, end_before_kill);
  EXPECT_TRUE(stats.tail_truncated);

  // ...and Open() truncates them so new appends extend a clean prefix.
  Result<std::unique_ptr<Journal>> reopened = Journal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->EndOffset(), end_before_kill);
  ASSERT_TRUE(reopened.value()->AppendInsert(MakeRecord(3)).ok());
  const uint64_t end_after_append = reopened.value()->EndOffset();
  EXPECT_GT(end_after_append, end_before_kill);
  reopened.value().reset();
  EXPECT_EQ(ReadFileBytes(path).size(), end_after_append);
  const std::vector<Record> after = ReplayAll(path, nullptr);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].id, 3u);
}

TEST(JournalTest, FailpointAppendErrorDoesNotPoisonTheTail) {
  const std::string path = UniqueTempPath("journal_apperr.cbvj");
  Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(1)).ok());
  const uint64_t end = journal.value()->EndOffset();

  Failpoints::Activate("journal.append", FailpointAction::kError);
  EXPECT_FALSE(journal.value()->AppendInsert(MakeRecord(2)).ok());
  Failpoints::DeactivateAll();
  EXPECT_EQ(journal.value()->EndOffset(), end);

  ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(3)).ok());
  journal.value().reset();
  const std::vector<Record> replayed = ReplayAll(path, nullptr);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].id, 1u);
  EXPECT_EQ(replayed[1].id, 3u);
}

TEST(JournalTest, DropCommittedRotatesEpochAndKeepsTheTail) {
  telemetry::Registry::Global().ResetForTest();
  const std::string path = UniqueTempPath("journal_rotate.cbvj");
  Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  std::vector<uint64_t> boundaries;
  for (RecordId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
    boundaries.push_back(journal.value()->EndOffset());
  }

  // Past-the-end mark is rejected.
  EXPECT_FALSE(journal.value()->DropCommitted(boundaries.back() + 1).ok());

  // Drop the first three frames: epoch bumps, only 4 and 5 remain.
  ASSERT_TRUE(journal.value()->DropCommitted(boundaries[2]).ok());
  EXPECT_EQ(journal.value()->epoch(), 1u);
  EXPECT_EQ(journal.value()->EndOffset(),
            kJournalHeaderSize + (boundaries[4] - boundaries[2]));
  EXPECT_EQ(telemetry::Registry::Global()
                .GetCounter("journal_rotations_total")
                ->Value(),
            1u);

  // The rotated journal still appends and replays: 4, 5, then 6.
  ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(6)).ok());
  journal.value().reset();
  JournalReplayStats stats;
  const std::vector<Record> replayed = ReplayAll(path, &stats);
  EXPECT_EQ(stats.epoch, 1u);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0].id, 4u);
  EXPECT_EQ(replayed[1].id, 5u);
  EXPECT_EQ(replayed[2].id, 6u);

  // Dropping everything leaves a header-only epoch-2 journal.
  Result<std::unique_ptr<Journal>> reopened = Journal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->epoch(), 1u);
  ASSERT_TRUE(reopened.value()->DropCommitted(reopened.value()->EndOffset()).ok());
  EXPECT_EQ(reopened.value()->epoch(), 2u);
  EXPECT_EQ(reopened.value()->EndOffset(), kJournalHeaderSize);
  telemetry::Registry::Global().ResetForTest();
}

// Regression: DropCommitted swaps in the rotated file's fd, which must
// stay readable — ReadSegment (replication fetch) and the next
// rotation's tail copy both pread it without reopening the journal.
TEST(JournalTest, RotatedJournalStaysReadableWithoutReopen) {
  const std::string path = UniqueTempPath("journal_rotate_read.cbvj");
  Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  std::vector<uint64_t> boundaries;
  for (RecordId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
    boundaries.push_back(journal.value()->EndOffset());
  }

  // Rotate keeping frames 3 and 4 as the uncovered tail.
  ASSERT_TRUE(journal.value()->DropCommitted(boundaries[1]).ok());
  ASSERT_EQ(journal.value()->epoch(), 1u);

  // ReadSegment on the post-rotation fd must serve the tail frames.
  std::string segment;
  uint64_t seg_end = 0;
  uint64_t epoch = 0;
  ASSERT_TRUE(journal.value()
                  ->ReadSegment(kJournalHeaderSize, 1u << 20, &segment,
                                &seg_end, &epoch)
                  .ok());
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(seg_end, journal.value()->EndOffset());
  JournalFrameDecoder decoder;
  decoder.Feed(segment);
  Record record;
  ASSERT_EQ(decoder.Pop(&record), JournalFrameDecoder::Next::kRecord);
  EXPECT_EQ(record.id, 3u);
  ASSERT_EQ(decoder.Pop(&record), JournalFrameDecoder::Next::kRecord);
  EXPECT_EQ(record.id, 4u);
  EXPECT_EQ(decoder.Pop(&record), JournalFrameDecoder::Next::kNeedMore);

  // A second tailed rotation on the same handle preads the same fd for
  // its tail copy: append 5, drop through frame 4, keep 5.
  const uint64_t before_5 = journal.value()->EndOffset();
  ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(5)).ok());
  ASSERT_TRUE(journal.value()->DropCommitted(before_5).ok());
  EXPECT_EQ(journal.value()->epoch(), 2u);
  journal.value().reset();

  JournalReplayStats stats;
  const std::vector<Record> replayed = ReplayAll(path, &stats);
  EXPECT_EQ(stats.epoch, 2u);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].id, 5u);
}

TEST(JournalTest, ReadSegmentServesRawBytesWithCursorMetadata) {
  const std::string path = UniqueTempPath("journal_segment.cbvj");
  Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
  ASSERT_TRUE(journal.ok());
  for (RecordId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(journal.value()->AppendInsert(MakeRecord(id)).ok());
  }
  const uint64_t end = journal.value()->EndOffset();

  // Chunked reads reassemble to the exact on-disk frame bytes, and a
  // JournalFrameDecoder fed those chunks decodes every record — the
  // replication follower's exact read path.
  std::string assembled;
  JournalFrameDecoder decoder;
  uint64_t cursor = kJournalHeaderSize;
  while (cursor < end) {
    std::string segment;
    uint64_t seg_end = 0;
    uint64_t epoch = 0;
    ASSERT_TRUE(
        journal.value()->ReadSegment(cursor, 7, &segment, &seg_end, &epoch).ok());
    ASSERT_FALSE(segment.empty());
    EXPECT_EQ(seg_end, end);
    EXPECT_EQ(epoch, 0u);
    decoder.Feed(segment);
    assembled += segment;
    cursor += segment.size();
  }
  EXPECT_EQ(assembled, ReadFileBytes(path).substr(kJournalHeaderSize));
  Record record;
  for (RecordId id = 1; id <= 3; ++id) {
    ASSERT_EQ(decoder.Pop(&record), JournalFrameDecoder::Next::kRecord);
    EXPECT_EQ(record.id, id);
  }
  EXPECT_EQ(decoder.Pop(&record), JournalFrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.consumed_bytes(), end - kJournalHeaderSize);

  // Reads at or past the end return empty with the metadata intact.
  std::string segment;
  uint64_t seg_end = 0;
  uint64_t epoch = 0;
  ASSERT_TRUE(journal.value()->ReadSegment(end, 1024, &segment, &seg_end, &epoch).ok());
  EXPECT_TRUE(segment.empty());
  EXPECT_EQ(seg_end, end);
}

// --- Service-level replay equivalence -------------------------------------

CbvHbConfig BaseConfig(const Schema& schema) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  config.seed = 5;
  return config;
}

std::vector<Record> GenerateRecords(const NcvrGenerator& gen, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(gen.Generate(i, rng));
  }
  return records;
}

std::string SnapshotBytes(LinkageService* service) {
  std::ostringstream out;
  EXPECT_TRUE(service->SaveSnapshot(out).ok());
  return out.str();
}

// The satellite's core assertion: a service rebuilt by replaying the
// journal is byte-identical (as a snapshot stream) to one built by the
// same direct inserts.
TEST(JournalTest, ReplayedServiceIsByteIdenticalToDirectInserts) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 30, 7);

  const std::string path = UniqueTempPath("journal_equiv.cbvj");
  Result<std::unique_ptr<LinkageService>> primary =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(primary.ok());
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok());
    primary.value()->AttachJournal(std::move(journal.value()));
  }
  for (const Record& r : records) {
    ASSERT_TRUE(primary.value()->Insert(r).ok());
  }

  Result<std::unique_ptr<LinkageService>> replayed =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(replayed.ok());
  Result<JournalReplayStats> stats =
      replayed.value()->ReplayJournalFile(path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().frames, records.size());
  EXPECT_EQ(stats.value().applied, records.size());
  EXPECT_EQ(replayed.value()->size(), records.size());

  EXPECT_EQ(SnapshotBytes(primary.value().get()),
            SnapshotBytes(replayed.value().get()));
}

// Crash window between snapshot commit and journal rotation: replaying a
// journal whose every frame the snapshot already covers applies nothing.
TEST(JournalTest, ReplayDedupesFramesTheSnapshotAlreadyCovers) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 10, 11);

  const std::string journal_path = UniqueTempPath("journal_dedupe.cbvj");
  const std::string stale_copy = UniqueTempPath("journal_dedupe_stale.cbvj");
  const std::string snapshot_path = UniqueTempPath("journal_dedupe.cbvs");

  Result<std::unique_ptr<LinkageService>> primary =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(primary.ok());
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    primary.value()->AttachJournal(std::move(journal.value()));
  }
  for (const Record& r : records) {
    ASSERT_TRUE(primary.value()->Insert(r).ok());
  }

  // The stale copy stands in for "crashed after the snapshot rename but
  // before DropCommitted": every frame duplicates snapshot contents.
  WriteFileBytes(stale_copy, ReadFileBytes(journal_path));
  ASSERT_TRUE(primary.value()->SaveSnapshotToFile(snapshot_path).ok());
  // The live journal did rotate (the normal path).
  EXPECT_EQ(primary.value()->journal()->epoch(), 1u);
  EXPECT_EQ(primary.value()->journal()->EndOffset(), kJournalHeaderSize);

  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::RestoreFromFile(snapshot_path);
  ASSERT_TRUE(restored.ok());
  Result<JournalReplayStats> stats =
      restored.value()->ReplayJournalFile(stale_copy);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().frames, records.size());
  EXPECT_EQ(stats.value().applied, 0u);  // every id deduped
  EXPECT_EQ(restored.value()->size(), records.size());

  EXPECT_EQ(SnapshotBytes(primary.value().get()),
            SnapshotBytes(restored.value().get()));
}

// Full recovery drill at the service level: snapshot + journal tail +
// torn final append == exactly the acknowledged inserts.
TEST(JournalTest, SnapshotPlusJournalTailRecoversAcknowledgedInserts) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = GenerateRecords(gen.value(), 12, 3);

  const std::string journal_path = UniqueTempPath("journal_recovery.cbvj");
  const std::string snapshot_path = UniqueTempPath("journal_recovery.cbvs");

  Result<std::unique_ptr<LinkageService>> primary =
      LinkageService::Create(BaseConfig(gen.value().schema()));
  ASSERT_TRUE(primary.ok());
  {
    Result<std::unique_ptr<Journal>> journal = Journal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    primary.value()->AttachJournal(std::move(journal.value()));
  }

  // 8 inserts, snapshot, 4 more, then a torn 13th append (crash).
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(primary.value()->Insert(records[i]).ok());
  }
  ASSERT_TRUE(primary.value()->SaveSnapshotToFile(snapshot_path).ok());
  for (size_t i = 8; i < 12; ++i) {
    ASSERT_TRUE(primary.value()->Insert(records[i]).ok());
  }
  Failpoints::Activate("journal.append", FailpointAction::kShortWrite, 9);
  Record unacked = records[0];
  unacked.id = 9000;
  EXPECT_FALSE(primary.value()->Insert(unacked).ok());
  Failpoints::DeactivateAll();

  // "Restart": snapshot restore + journal tail replay.
  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::RestoreFromFile(snapshot_path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->size(), 8u);
  Result<JournalReplayStats> stats =
      restored.value()->ReplayJournalFile(journal_path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().frames, 4u);
  EXPECT_EQ(stats.value().applied, 4u);
  EXPECT_TRUE(stats.value().tail_truncated);
  EXPECT_EQ(restored.value()->size(), 12u);
  EXPECT_FALSE(restored.value()->Contains(9000));
  for (const Record& r : records) {
    EXPECT_TRUE(restored.value()->Contains(r.id));
  }
}

}  // namespace
}  // namespace cbvlink
