#ifndef MOC_UTIL_HASH_H_
#define MOC_UTIL_HASH_H_

/**
 * @file
 * 64-bit content hashing: XXH64 (the identity hash) and FNV-1a 64.
 *
 * CRC-32C alone is not a content *identity*: it is a 32-bit error-detecting
 * code, and two different expert blobs collide with probability ~2^-32 —
 * far too likely across millions of dedup decisions. Content-addressed
 * paths (whole-blob dedup, per-chunk delta diffing) therefore key on the
 * pair (CRC-32C, XXH64) plus the byte size: the two hashes have unrelated
 * structure (one linear over GF(2), one built from multiplies and rotates
 * mod 2^64), so a simultaneous collision requires ~2^96 luck. CRC-32C
 * alone remains fine for what it was designed for — detecting *corruption*
 * of bytes whose identity is already known.
 *
 * XXH64 is written here from the published specification (seed 0 only):
 * four independent 64-bit lanes over 32-byte stripes, then 8/4/1-byte
 * tails and a final avalanche. On a 4-vCPU x86-64 VM it hashes 16 MiB at
 * 5–8 GB/s; bytewise FNV-1a, one serially dependent multiply per byte,
 * manages 0.6–0.7 GB/s there. Neither value is ever persisted, so the
 * choice changes speed only. FNV-1a 64 stays for small non-identity uses
 * (per-key PRNG seeds).
 */

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace moc {

inline constexpr std::uint64_t kFnv1a64Offset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001B3ULL;

/** Incremental FNV-1a 64: feed @p state from a previous call (start with
    kFnv1a64Offset). */
inline std::uint64_t
Fnv1a64Update(std::uint64_t state, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state ^= p[i];
        state *= kFnv1a64Prime;
    }
    return state;
}

/** FNV-1a 64-bit hash of @p data[0..len). */
inline std::uint64_t
Fnv1a64(const void* data, std::size_t len) {
    return Fnv1a64Update(kFnv1a64Offset, data, len);
}

namespace xxh64_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t
Rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
}

/** Little-endian loads at any alignment. */
inline std::uint64_t
Load64(const unsigned char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

inline std::uint32_t
Load32(const unsigned char* p) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap32(v);
#endif
    return v;
}

inline std::uint64_t
Round(std::uint64_t acc, std::uint64_t lane) {
    return Rotl(acc + lane * kP2, 31) * kP1;
}

inline std::uint64_t
MergeRound(std::uint64_t acc, std::uint64_t v) {
    return (acc ^ Round(0, v)) * kP1 + kP4;
}

}  // namespace xxh64_detail

/** XXH64 (seed 0) of @p data[0..len); any alignment. */
inline std::uint64_t
Xxh64(const void* data, std::size_t len) {
    using namespace xxh64_detail;
    const auto* p = static_cast<const unsigned char*>(data);
    const unsigned char* const end = p + len;
    std::uint64_t h = kP5;
    if (len >= 32) {
        std::uint64_t v1 = kP1 + kP2;
        std::uint64_t v2 = kP2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kP1;
        for (; end - p >= 32; p += 32) {
            v1 = Round(v1, Load64(p));
            v2 = Round(v2, Load64(p + 8));
            v3 = Round(v3, Load64(p + 16));
            v4 = Round(v4, Load64(p + 24));
        }
        h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
        h = MergeRound(h, v1);
        h = MergeRound(h, v2);
        h = MergeRound(h, v3);
        h = MergeRound(h, v4);
    }
    h += static_cast<std::uint64_t>(len);
    for (; end - p >= 8; p += 8) {
        h = Rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
    }
    if (end - p >= 4) {
        h = Rotl(h ^ (std::uint64_t{Load32(p)} * kP1), 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p) {
        h = Rotl(h ^ (std::uint64_t{*p} * kP5), 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

}  // namespace moc

#endif  // MOC_UTIL_HASH_H_
