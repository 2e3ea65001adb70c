#include "storage/delta_codec.h"

#include <cstring>
#include <stdexcept>

#include "storage/manifest.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/hash.h"

namespace moc {

namespace {

constexpr char kMagic[4] = {'M', 'O', 'C', 'D'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4 + 4 + 4;

[[noreturn]] void
Malformed(const std::string& what) {
    throw DecodeError("delta record: " + what);
}

std::size_t
NumChunks(std::size_t size, std::size_t chunk_bytes) {
    // Not (size + chunk_bytes - 1) / chunk_bytes: a hostile logical size
    // near 2^64 would wrap that sum to a tiny chunk count.
    return size / chunk_bytes + (size % chunk_bytes != 0 ? 1 : 0);
}

/** Byte length of chunk @p index of a @p size-byte blob (last may be short). */
std::size_t
ChunkLen(std::size_t size, std::size_t chunk_bytes, std::size_t index) {
    const std::size_t offset = index * chunk_bytes;
    return offset + chunk_bytes <= size ? chunk_bytes : size - offset;
}

}  // namespace

std::vector<ChunkId>
HashChunks(const Blob& blob, std::size_t chunk_bytes, std::uint32_t* whole_crc) {
    if (chunk_bytes == 0) {
        throw std::invalid_argument("chunk_bytes must be > 0");
    }
    const std::size_t n = NumChunks(blob.size(), chunk_bytes);
    std::vector<ChunkId> ids;
    ids.reserve(n);
    std::uint32_t whole = 0;
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t len = ChunkLen(blob.size(), chunk_bytes, c);
        const std::uint8_t* p = blob.data() + c * chunk_bytes;
        ids.push_back(ChunkId{Crc32c(p, len), Xxh64(p, len)});
        // The chunk is still in cache: extending the whole-blob CRC here
        // costs no second walk over memory.
        if (whole_crc != nullptr) {
            whole = Crc32cUpdate(whole, p, len);
        }
    }
    if (whole_crc != nullptr) {
        *whole_crc = whole;
    }
    return ids;
}

Blob
EncodeDelta(const Blob& blob, const std::vector<std::uint32_t>& changed,
            std::size_t chunk_bytes, std::size_t base_iteration) {
    const std::size_t num_chunks = NumChunks(blob.size(), chunk_bytes);
    const std::size_t bitmap_bytes = (num_chunks + 7) / 8;
    std::size_t payload = 0;
    for (std::size_t i = 0; i < changed.size(); ++i) {
        if (changed[i] >= num_chunks || (i > 0 && changed[i] <= changed[i - 1])) {
            throw std::invalid_argument(
                "changed chunk indices must be ascending and in range");
        }
        payload += ChunkLen(blob.size(), chunk_bytes, changed[i]);
    }
    ByteWriter w(kHeaderBytes + bitmap_bytes + payload);
    w.Raw(kMagic, sizeof(kMagic));
    w.U32(kVersion);
    w.U64(blob.size());
    w.U64(base_iteration);
    w.U32(static_cast<std::uint32_t>(chunk_bytes));
    w.U32(static_cast<std::uint32_t>(num_chunks));
    w.U32(static_cast<std::uint32_t>(changed.size()));
    // The bitmap byte by byte: `changed` is ascending, so each byte's bits
    // are the next run of indices below its upper bound.
    std::size_t next = 0;
    for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
        std::uint8_t bits = 0;
        for (; next < changed.size() && changed[next] / 8 == byte; ++next) {
            bits |= static_cast<std::uint8_t>(1U << (changed[next] % 8));
        }
        w.U8(bits);
    }
    for (const std::uint32_t c : changed) {
        w.Raw(blob.data() + std::size_t{c} * chunk_bytes,
              ChunkLen(blob.size(), chunk_bytes, c));
    }
    return w.Take();
}

DeltaRecord
ParseDelta(const Blob& record) {
    ByteReader r(record);
    if (std::memcmp(r.Raw(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
        Malformed("bad magic");
    }
    if (r.U32() != kVersion) {
        Malformed("unknown version");
    }
    DeltaRecord d;
    d.logical_bytes = r.U64();
    d.base_iteration = static_cast<std::size_t>(r.U64());
    d.chunk_bytes = r.U32();
    d.num_chunks = r.U32();
    const std::size_t changed_count = r.U32();
    if (d.chunk_bytes == 0) {
        Malformed("zero chunk size");
    }
    if (d.num_chunks != NumChunks(d.logical_bytes, d.chunk_bytes)) {
        Malformed("chunk count does not match logical size");
    }
    if (changed_count > d.num_chunks) {
        Malformed("more changed chunks than chunks");
    }
    const std::uint8_t* bitmap = r.Raw((d.num_chunks + 7) / 8);
    std::size_t payload = 0;
    d.changed.reserve(changed_count);
    for (std::size_t c = 0; c < d.num_chunks; ++c) {
        if ((bitmap[c / 8] >> (c % 8)) & 1U) {
            d.changed.push_back(static_cast<std::uint32_t>(c));
            payload += ChunkLen(d.logical_bytes, d.chunk_bytes, c);
        }
    }
    if (d.changed.size() != changed_count) {
        Malformed("bitmap popcount disagrees with changed_count");
    }
    d.payload_offset = r.offset();
    if (r.remaining() != payload) {
        Malformed("payload length does not match bitmap");
    }
    return d;
}

Blob
ApplyDelta(const Blob& record, Blob base) {
    const DeltaRecord r = ParseDelta(record);
    if (base.size() != r.logical_bytes) {
        throw std::invalid_argument(
            "delta record: base size " + std::to_string(base.size()) +
            " does not match logical size " + std::to_string(r.logical_bytes));
    }
    std::size_t src = r.payload_offset;
    for (const std::uint32_t c : r.changed) {
        const std::size_t len = ChunkLen(r.logical_bytes, r.chunk_bytes, c);
        std::memcpy(base.data() + std::size_t{c} * r.chunk_bytes,
                    record.data() + src, len);
        src += len;
    }
    return base;
}

std::string
DeltaShardKey(const std::string& key, std::size_t iteration) {
    return VersionedShardKey(key, iteration) + ".delta";
}

}  // namespace moc
