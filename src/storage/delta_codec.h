#ifndef MOC_STORAGE_DELTA_CODEC_H_
#define MOC_STORAGE_DELTA_CODEC_H_

/**
 * @file
 * Changed-chunk delta encoding for per-expert checkpoint blobs.
 *
 * Content-hash dedup (PR 4) only skips *unchanged* experts; a hot expert
 * that changed 1% of its weights still re-persisted 100% of its bytes.
 * Delta encoding closes that gap: the blob is cut into fixed-size chunks,
 * each chunk's identity (CRC-32C + XXH64, see util/hash.h for why one
 * 32-bit hash is not an identity) is compared against the previous sealed
 * generation's blob, and only the changed chunks are persisted — a bitmap
 * plus their payloads, stored under `<key>@<iter>.delta`.
 *
 * HashChunks is the save path's one identity pass over a shard: it walks
 * the chunk grid once and, per cache-hot chunk, computes the chunk id and
 * extends the whole-blob CRC-32C. With delta on, the persist pipeline's
 * dedup test is built from that pass alone (same size, same whole CRC-32C,
 * no chunk id changed), so no byte is hashed twice before the write.
 *
 * A delta record names the iteration it applies on top of (`base`), so
 * restore reconstructs the logical blob by walking the chain down to a full
 * write and applying records upward. Chains are bounded by the persist
 * pipeline (`max_delta_chain`): a forced full write caps both restore cost
 * and the blast radius of a damaged base — `moc_cli fsck` verifies every
 * link and a generation whose chain is broken is not a restart target.
 *
 * Record wire format (all little-endian, written and read with
 * util/byte_codec.h):
 *
 *   "MOCD" | u32 version=1 | u64 logical_bytes | u64 base_iteration |
 *   u32 chunk_bytes | u32 num_chunks | u32 changed_count |
 *   bitmap[ceil(num_chunks/8)] | changed chunk payloads (ascending index;
 *   the last chunk of the blob may be short)
 */

#include <cstdint>
#include <string>
#include <vector>

#include "storage/object_store.h"

namespace moc {

/** Content identity of one chunk: two structurally unrelated hashes. */
struct ChunkId {
    std::uint32_t crc = 0;
    std::uint64_t xxh = 0;

    bool operator==(const ChunkId& o) const {
        return crc == o.crc && xxh == o.xxh;
    }
    bool operator!=(const ChunkId& o) const { return !(*this == o); }
};

/**
 * Per-chunk identities (CRC-32C, XXH64) of @p blob cut into @p chunk_bytes
 * chunks. When @p whole_crc is non-null it receives the CRC-32C of the
 * whole blob, extended chunk by chunk in the same pass.
 */
std::vector<ChunkId> HashChunks(const Blob& blob, std::size_t chunk_bytes,
                                std::uint32_t* whole_crc = nullptr);

/** Parsed header + layout of one delta record. */
struct DeltaRecord {
    Bytes logical_bytes = 0;
    /** Iteration of the version this record applies on top of. */
    std::size_t base_iteration = 0;
    std::size_t chunk_bytes = 0;
    std::size_t num_chunks = 0;
    /** Changed chunk indices, ascending. */
    std::vector<std::uint32_t> changed;
    /** Offset of the first chunk payload inside the record. */
    std::size_t payload_offset = 0;
};

/**
 * Encodes the chunks of @p blob whose index appears in @p changed
 * (ascending, deduplicated) as a delta record against @p base_iteration.
 * @p blob must cut into exactly the same chunk grid as the base — the
 * pipeline forces a full write when sizes differ.
 */
Blob EncodeDelta(const Blob& blob, const std::vector<std::uint32_t>& changed,
                 std::size_t chunk_bytes, std::size_t base_iteration);

/**
 * Parses and validates a delta record's header, bitmap, and payload length.
 * @throws DecodeError on anything malformed (bad magic, version, geometry
 * that doesn't add up, truncated or over-long payload).
 */
DeltaRecord ParseDelta(const Blob& record);

/**
 * Reconstructs the logical blob: @p base overwritten with the changed
 * chunks of @p record. The base is taken by value and patched in place, so
 * a caller walking a chain moves each level's result into the next and
 * the blob is copied once, not once per level.
 * @throws DecodeError on a malformed record (as ParseDelta);
 * std::invalid_argument when @p base does not match the record's geometry
 * (wrong size — the chain is inconsistent).
 */
Blob ApplyDelta(const Blob& record, Blob base);

/**
 * Store key of one delta record: "<key>@<iteration>.delta", beside the full
 * blobs' VersionedShardKey namespace.
 */
std::string DeltaShardKey(const std::string& key, std::size_t iteration);

}  // namespace moc

#endif  // MOC_STORAGE_DELTA_CODEC_H_
