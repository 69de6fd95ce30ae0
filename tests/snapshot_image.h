// Byte-level helpers for service-snapshot images in tests.
//
// The writer fills the version-3 legacy slots with constants (shard
// count 16, bucket cap 0, overflow policy 0, an empty bucket block; see
// src/io/serialization.h).  Snapshots written before those slots fell
// out of use carry real values there, and the reader must still accept
// or reject them.  These helpers build such images from a writer image:
// they patch fields at their fixed offsets, splice in a bucket block,
// and reseal the CRC32C trailer.

#ifndef CBVLINK_TESTS_SNAPSHOT_IMAGE_H_
#define CBVLINK_TESTS_SNAPSHOT_IMAGE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/io/serialization.h"

namespace cbvlink {

/// Fixed offsets in every snapshot version: magic and version, then
/// seed, K, theta and three doubles (u64 each), then the legacy slots.
constexpr size_t kSnapshotVersionOffset = 4;
constexpr size_t kSnapshotShardsOffset = 56;
constexpr size_t kSnapshotBucketCapOffset = 64;
constexpr size_t kSnapshotPolicyOffset = 72;

/// One bucket of the legacy bucket block.
struct LegacyBucket {
  uint64_t group = 0;
  uint64_t key = 0;
  bool overflowed = false;
  std::vector<RecordId> ids;
};

/// Appends `value` as `bytes` little-endian bytes.
inline void AppendLe(std::string* out, uint64_t value, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

/// Overwrites `bytes` little-endian bytes of `image` at `offset`.
inline void PatchLe(std::string* image, size_t offset, uint64_t value,
                    size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    (*image)[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

/// Recomputes the CRC32C trailer over everything before it.
inline void ResealCrc(std::string* image) {
  const size_t body = image->size() - 4;
  PatchLe(image, body, Crc32c(image->data(), body), 4);
}

/// The writer's (version-3) image of `snapshot`.
inline std::string WriterImage(const ServiceSnapshot& snapshot) {
  std::ostringstream out;
  EXPECT_TRUE(WriteServiceSnapshot(snapshot, out).ok());
  return out.str();
}

/// Offset of the bucket count in a writer image of `snapshot`: it sits
/// before the mutation block (floor, tombstone count, tombstone ids) and
/// the CRC trailer.
inline size_t BucketCountOffset(const std::string& image,
                                const ServiceSnapshot& snapshot) {
  return image.size() - 4 - 8 * (2 + snapshot.tombstones.size()) - 8;
}

/// A legacy image of `snapshot` as an older writer produced it: shard
/// count, bucket cap and overflow policy set as given, `buckets` as the
/// bucket block, and for `version` 2 no mutation block (`snapshot` must
/// then have no tombstones and a zero floor).
inline std::string LegacyImage(const ServiceSnapshot& snapshot,
                               const std::vector<LegacyBucket>& buckets,
                               uint32_t version = 3, uint64_t shards = 8,
                               uint64_t bucket_cap = 128,
                               uint32_t policy = 1) {
  EXPECT_TRUE(version >= 3 || (snapshot.tombstones.empty() &&
                               snapshot.last_sequence == 0));
  std::string image = WriterImage(snapshot);
  PatchLe(&image, kSnapshotVersionOffset, version, 4);
  PatchLe(&image, kSnapshotShardsOffset, shards, 8);
  PatchLe(&image, kSnapshotBucketCapOffset, bucket_cap, 8);
  PatchLe(&image, kSnapshotPolicyOffset, policy, 4);
  const size_t count_at = BucketCountOffset(image, snapshot);
  std::string block;
  AppendLe(&block, buckets.size(), 8);
  for (const LegacyBucket& bucket : buckets) {
    AppendLe(&block, bucket.group, 8);
    AppendLe(&block, bucket.key, 8);
    AppendLe(&block, bucket.overflowed ? 1 : 0, 4);
    AppendLe(&block, bucket.ids.size(), 8);
    for (RecordId id : bucket.ids) AppendLe(&block, id, 8);
  }
  // Keep the mutation block (version 3) and the trailer, which is
  // resealed below.
  const std::string tail = version >= 3 ? image.substr(count_at + 8)
                                         : image.substr(image.size() - 4);
  image = image.substr(0, count_at) + block + tail;
  ResealCrc(&image);
  return image;
}

/// Reads `image` with ReadServiceSnapshot.
inline Result<ServiceSnapshot> ReadImage(const std::string& image) {
  std::istringstream in(image);
  return ReadServiceSnapshot(in);
}

}  // namespace cbvlink

#endif  // CBVLINK_TESTS_SNAPSHOT_IMAGE_H_
