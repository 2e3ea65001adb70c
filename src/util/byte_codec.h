#ifndef MOC_UTIL_BYTE_CODEC_H_
#define MOC_UTIL_BYTE_CODEC_H_

/**
 * @file
 * The one byte codec of every binary format the system persists or sends:
 * tensor records and parameter lists (tensor/serialize.h,
 * core/moc_system.h), delta records (storage/delta_codec.h), the FileStore
 * CRC trailer, transport frames (net/frame.h) and their payloads.
 *
 * ByteWriter appends little-endian integers and doubles, u32-length-
 * prefixed strings and raw byte ranges to a growing blob — the
 * writePod/writeString idiom. ByteReader walks the same layout over a
 * borrowed byte range (a whole Blob or a record inside one) without
 * copying it. Every read is bounds-checked as `remaining() < n`, which
 * cannot wrap however hostile `n` is, and every failed read throws one
 * DecodeError. Format-level checks (magic, version, CRC, geometry) throw
 * DecodeError too, so a caller tells damaged bytes from a caller-contract
 * failure (std::invalid_argument) by type alone.
 *
 * Header-only so the field accessors inline into the save and restore
 * paths: a fixed-width read or write compiles to one load or store.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace moc {

/** Bytes that do not decode: truncated, trailing, or malformed. */
class DecodeError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/** Largest string ByteWriter::Str accepts; also the transport's frame
    payload cap (net::kMaxPayload). */
inline constexpr std::size_t kMaxCodecString = 16u << 20;

/** Appends fixed-width little-endian fields to a blob. */
class ByteWriter {
  public:
    ByteWriter() = default;
    /** Reserves @p capacity bytes, so a writer sized up front allocates once. */
    explicit ByteWriter(std::size_t capacity) { bytes_.reserve(capacity); }

    void U8(std::uint8_t v) { bytes_.push_back(v); }
    void U32(std::uint32_t v) { Put(v); }
    void U64(std::uint64_t v) { Put(v); }
    void I64(std::int64_t v) { Put(static_cast<std::uint64_t>(v)); }
    void F64(double v) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        Put(bits);
    }

    /** A u32 length, then the bytes. @throws std::invalid_argument past
        kMaxCodecString. */
    void Str(std::string_view s) {
        if (s.size() > kMaxCodecString) {
            throw std::invalid_argument("codec string too large");
        }
        U32(static_cast<std::uint32_t>(s.size()));
        // resize + memcpy, not Raw's range insert: GCC 12 at -O2/-O3
        // reports a false -Warray-bounds on an inlined insert of a string
        // literal's constant size.
        if (!s.empty()) {
            const std::size_t at = bytes_.size();
            bytes_.resize(at + s.size());
            std::memcpy(bytes_.data() + at, s.data(), s.size());
        }
    }

    /** @p len bytes verbatim, with no length prefix. A range insert into
        reserved capacity writes each byte once. */
    void Raw(const void* data, std::size_t len) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        bytes_.insert(bytes_.end(), p, p + len);
    }

    std::size_t size() const { return bytes_.size(); }
    /** The bytes written so far, e.g. for a CRC over a finished prefix. */
    const std::uint8_t* data() const { return bytes_.data(); }
    std::vector<std::uint8_t> Take() { return std::move(bytes_); }

  private:
    template <typename T>
    void Put(T v) {
        const std::size_t at = bytes_.size();
        bytes_.resize(at + sizeof(T));
        std::uint8_t* p = bytes_.data() + at;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    std::vector<std::uint8_t> bytes_;
};

/** Reads ByteWriter's layout from a borrowed byte range. */
class ByteReader {
  public:
    ByteReader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}
    explicit ByteReader(const std::vector<std::uint8_t>& bytes)
        : ByteReader(bytes.data(), bytes.size()) {}
    /** The reader borrows its input; a temporary would dangle. */
    explicit ByteReader(std::vector<std::uint8_t>&&) = delete;

    std::uint8_t U8() { return Get<std::uint8_t>(); }
    std::uint32_t U32() { return Get<std::uint32_t>(); }
    std::uint64_t U64() { return Get<std::uint64_t>(); }
    std::int64_t I64() { return static_cast<std::int64_t>(Get<std::uint64_t>()); }
    double F64() {
        const std::uint64_t bits = Get<std::uint64_t>();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** A u32-length-prefixed string; the length is checked before any
        allocation. */
    std::string Str() {
        const std::uint32_t len = U32();
        const std::uint8_t* p = Raw(len);
        return std::string(reinterpret_cast<const char*>(p), len);
    }

    /** Skips @p n bytes and returns where they start, inside the input. */
    const std::uint8_t* Raw(std::size_t n) {
        Need(n);
        const std::uint8_t* p = data_ + offset_;
        offset_ += n;
        return p;
    }

    /**
     * A u32 element count whose elements take at least @p min_bytes_each
     * bytes apiece: a count the remaining bytes cannot hold throws before
     * the caller sizes anything from it.
     */
    std::uint32_t Count(std::size_t min_bytes_each) {
        const std::uint32_t n = U32();
        if (n > remaining() / min_bytes_each) {
            throw DecodeError("element count exceeds the remaining bytes");
        }
        return n;
    }

    std::size_t offset() const { return offset_; }
    std::size_t remaining() const { return size_ - offset_; }

    /** @throws DecodeError unless every input byte was read. */
    void ExpectEnd() const {
        if (remaining() != 0) {
            throw DecodeError(std::to_string(remaining()) +
                              " trailing bytes after the last field");
        }
    }

  private:
    void Need(std::size_t n) const {
        if (remaining() < n) {
            Truncated(n);
        }
    }

    /** Out of line and cold, so the inlined fast path stays a compare. */
    [[noreturn, gnu::noinline, gnu::cold]] void Truncated(std::size_t n) const {
        throw DecodeError("truncated: " + std::to_string(n) +
                          " bytes wanted, " + std::to_string(remaining()) +
                          " left");
    }

    template <typename T>
    T Get() {
        const std::uint8_t* p = Raw(sizeof(T));
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
        }
        return v;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t offset_ = 0;
};

}  // namespace moc

#endif  // MOC_UTIL_BYTE_CODEC_H_
