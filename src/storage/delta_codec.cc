#include "storage/delta_codec.h"

#include <cstring>
#include <stdexcept>

#include "storage/manifest.h"
#include "util/crc32.h"
#include "util/hash.h"

namespace moc {

namespace {

constexpr char kMagic[4] = {'M', 'O', 'C', 'D'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4 + 4 + 4;

void
PutU32(Blob& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void
PutU64(Blob& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint32_t
GetU32(const Blob& in, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
    }
    return v;
}

std::uint64_t
GetU64(const Blob& in, std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    }
    return v;
}

[[noreturn]] void
Malformed(const std::string& what) {
    throw std::invalid_argument("delta record: " + what);
}

std::size_t
NumChunks(std::size_t size, std::size_t chunk_bytes) {
    return size == 0 ? 0 : (size + chunk_bytes - 1) / chunk_bytes;
}

/** Byte length of chunk @p index of a @p size-byte blob (last may be short). */
std::size_t
ChunkLen(std::size_t size, std::size_t chunk_bytes, std::size_t index) {
    const std::size_t offset = index * chunk_bytes;
    return offset + chunk_bytes <= size ? chunk_bytes : size - offset;
}

}  // namespace

std::vector<ChunkId>
HashChunks(const Blob& blob, std::size_t chunk_bytes) {
    if (chunk_bytes == 0) {
        throw std::invalid_argument("chunk_bytes must be > 0");
    }
    const std::size_t n = NumChunks(blob.size(), chunk_bytes);
    std::vector<ChunkId> ids;
    ids.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
        const std::size_t len = ChunkLen(blob.size(), chunk_bytes, c);
        const std::uint8_t* p = blob.data() + c * chunk_bytes;
        ids.push_back(ChunkId{Crc32c(p, len), Fnv1a64(p, len)});
    }
    return ids;
}

Blob
EncodeDelta(const Blob& blob, const std::vector<std::uint32_t>& changed,
            std::size_t chunk_bytes, std::size_t base_iteration) {
    const std::size_t num_chunks = NumChunks(blob.size(), chunk_bytes);
    Blob out;
    const std::size_t bitmap_bytes = (num_chunks + 7) / 8;
    std::size_t payload = 0;
    for (const std::uint32_t c : changed) {
        payload += ChunkLen(blob.size(), chunk_bytes, c);
    }
    out.reserve(kHeaderBytes + bitmap_bytes + payload);
    out.insert(out.end(), kMagic, kMagic + 4);
    PutU32(out, kVersion);
    PutU64(out, blob.size());
    PutU64(out, base_iteration);
    PutU32(out, static_cast<std::uint32_t>(chunk_bytes));
    PutU32(out, static_cast<std::uint32_t>(num_chunks));
    PutU32(out, static_cast<std::uint32_t>(changed.size()));
    out.resize(out.size() + bitmap_bytes, 0);
    std::uint8_t* bitmap = out.data() + kHeaderBytes;
    std::uint32_t prev = 0;
    bool first = true;
    for (const std::uint32_t c : changed) {
        if (c >= num_chunks || (!first && c <= prev)) {
            throw std::invalid_argument(
                "changed chunk indices must be ascending and in range");
        }
        bitmap[c / 8] |= static_cast<std::uint8_t>(1U << (c % 8));
        prev = c;
        first = false;
    }
    for (const std::uint32_t c : changed) {
        const std::uint8_t* p = blob.data() + std::size_t{c} * chunk_bytes;
        out.insert(out.end(), p,
                   p + ChunkLen(blob.size(), chunk_bytes, c));
    }
    return out;
}

DeltaRecord
ParseDelta(const Blob& record) {
    if (record.size() < kHeaderBytes) {
        Malformed("truncated header");
    }
    if (std::memcmp(record.data(), kMagic, 4) != 0) {
        Malformed("bad magic");
    }
    if (GetU32(record, 4) != kVersion) {
        Malformed("unknown version");
    }
    DeltaRecord r;
    r.logical_bytes = GetU64(record, 8);
    r.base_iteration = static_cast<std::size_t>(GetU64(record, 16));
    r.chunk_bytes = GetU32(record, 24);
    r.num_chunks = GetU32(record, 28);
    const std::size_t changed_count = GetU32(record, 32);
    if (r.chunk_bytes == 0) {
        Malformed("zero chunk size");
    }
    if (r.num_chunks != NumChunks(r.logical_bytes, r.chunk_bytes)) {
        Malformed("chunk count does not match logical size");
    }
    if (changed_count > r.num_chunks) {
        Malformed("more changed chunks than chunks");
    }
    const std::size_t bitmap_bytes = (r.num_chunks + 7) / 8;
    if (record.size() < kHeaderBytes + bitmap_bytes) {
        Malformed("truncated bitmap");
    }
    const std::uint8_t* bitmap = record.data() + kHeaderBytes;
    std::size_t payload = 0;
    r.changed.reserve(changed_count);
    for (std::size_t c = 0; c < r.num_chunks; ++c) {
        if ((bitmap[c / 8] >> (c % 8)) & 1U) {
            r.changed.push_back(static_cast<std::uint32_t>(c));
            payload += ChunkLen(r.logical_bytes, r.chunk_bytes, c);
        }
    }
    if (r.changed.size() != changed_count) {
        Malformed("bitmap popcount disagrees with changed_count");
    }
    r.payload_offset = kHeaderBytes + bitmap_bytes;
    if (record.size() != r.payload_offset + payload) {
        Malformed("payload length does not match bitmap");
    }
    return r;
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
