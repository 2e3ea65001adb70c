#include "util/crc32.h"

#include <array>
#include <cstring>

#include "util/crc32_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define MOC_CRC32C_HW 1
#endif

namespace moc {

namespace {

/**
 * Slice-by-8 table set: table[0] is the classic bytewise table; table[k]
 * advances a byte through k additional zero bytes, so eight lookups fold
 * eight message bytes into the register per iteration instead of one.
 * Same polynomial, bit-identical outputs to the bytewise loop (locked in
 * by the golden-vector and cross-check tests) — only the checkpoint
 * critical path's cost per byte changes.
 */
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

SliceTables
MakeTables(std::uint32_t poly) {
    SliceTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1U) ? poly ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = tables[0][i];
        for (std::size_t t = 1; t < 8; ++t) {
            c = tables[0][c & 0xFFU] ^ (c >> 8);
            tables[t][i] = c;
        }
    }
    return tables;
}

std::uint32_t
TableUpdate(const SliceTables& t, std::uint32_t crc, const void* data,
            std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    crc = ~crc;
    // Byte-at-a-time until the hot loop can take full 8-byte strides.
    while (len >= 8) {
        // Bytes are composed manually (not a uint64 load): alignment- and
        // endianness-independent, and the optimizer fuses the loads anyway.
        crc = t[7][(crc ^ p[0]) & 0xFFU] ^ t[6][((crc >> 8) ^ p[1]) & 0xFFU] ^
              t[5][((crc >> 16) ^ p[2]) & 0xFFU] ^
              t[4][((crc >> 24) ^ p[3]) & 0xFFU] ^ t[3][p[4]] ^ t[2][p[5]] ^
              t[1][p[6]] ^ t[0][p[7]];
        p += 8;
        len -= 8;
    }
    for (std::size_t i = 0; i < len; ++i) {
        crc = t[0][(crc ^ p[i]) & 0xFFU] ^ (crc >> 8);
    }
    return ~crc;
}

const SliceTables&
CastagnoliTables() {
    static const auto tables = MakeTables(0x82F63B78U);
    return tables;
}

#ifdef MOC_CRC32C_HW

/**
 * The linear map "feed N zero bytes through the (uninverted) CRC
 * register", tabulated per register byte: Shift(x) is four lookups. It is
 * what lets three streams hashed independently be joined into one CRC:
 * crc(A || B) = Shift_|B|(crc(A)) ^ crc_from_zero(B). MakeShiftTable
 * builds it for N = @p block from the images of the 32 register bits.
 */
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

ShiftTable
MakeShiftTable(std::size_t block) {
    const auto& t0 = CastagnoliTables()[0];
    std::array<std::uint32_t, 32> basis{};
    for (std::size_t bit = 0; bit < 32; ++bit) {
        std::uint32_t c = 1U << bit;
        for (std::size_t i = 0; i < block; ++i) {
            c = t0[c & 0xFFU] ^ (c >> 8);
        }
        basis[bit] = c;
    }
    ShiftTable table{};
    for (std::size_t k = 0; k < 4; ++k) {
        for (std::uint32_t v = 0; v < 256; ++v) {
            std::uint32_t c = 0;
            for (std::size_t bit = 0; bit < 8; ++bit) {
                if ((v >> bit) & 1U) {
                    c ^= basis[8 * k + bit];
                }
            }
            table[k][v] = c;
        }
    }
    return table;
}

std::uint64_t
Shift(const ShiftTable& t, std::uint64_t crc) {
    return t[0][crc & 0xFFU] ^ t[1][(crc >> 8) & 0xFFU] ^
           t[2][(crc >> 16) & 0xFFU] ^ t[3][(crc >> 24) & 0xFFU];
}

std::uint64_t
Load64(const unsigned char* p) {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * Consumes whole 3 × kBlock runs of @p p: the SSE4.2 crc32 instruction has
 * a three-cycle latency but issues every cycle, so three independent
 * streams keep it busy where one stream would wait on its own result.
 */
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) std::uint64_t
ThreeStreams(const ShiftTable& shift, std::uint64_t crc,
             const unsigned char*& p, std::size_t& len) {
    while (len >= 3 * kBlock) {
        std::uint64_t crc1 = 0;
        std::uint64_t crc2 = 0;
        const unsigned char* const end = p + kBlock;
        do {
            crc = _mm_crc32_u64(crc, Load64(p));
            crc1 = _mm_crc32_u64(crc1, Load64(p + kBlock));
            crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlock));
            p += 8;
        } while (p < end);
        crc = Shift(shift, crc) ^ crc1;
        crc = Shift(shift, crc) ^ crc2;
        p += 2 * kBlock;
        len -= 3 * kBlock;
    }
    return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t
HardwareUpdate(std::uint32_t crc, const void* data, std::size_t len) {
    static const ShiftTable long_shift =
        MakeShiftTable(crc32_internal::kLongBlock);
    static const ShiftTable short_shift =
        MakeShiftTable(crc32_internal::kShortBlock);
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t c = ~crc;
    c = ThreeStreams<crc32_internal::kLongBlock>(long_shift, c, p, len);
    c = ThreeStreams<crc32_internal::kShortBlock>(short_shift, c, p, len);
    for (; len >= 8; len -= 8, p += 8) {
        c = _mm_crc32_u64(c, Load64(p));
    }
    for (; len > 0; --len) {
        c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    }
    return ~static_cast<std::uint32_t>(c);
}

#endif  // MOC_CRC32C_HW

using UpdateFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

UpdateFn
ChooseCrc32c() {
#ifdef MOC_CRC32C_HW
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
        return HardwareUpdate;
    }
#endif
    return crc32_internal::Crc32cSliceBy8Update;
}

/** The CRC-32C implementation this CPU runs, chosen on first use. */
UpdateFn
Crc32cImpl() {
    static const UpdateFn impl = ChooseCrc32c();
    return impl;
}

}  // namespace

namespace crc32_internal {

std::uint32_t
Crc32cSliceBy8Update(std::uint32_t crc, const void* data, std::size_t len) {
    return TableUpdate(CastagnoliTables(), crc, data, len);
}

bool
Crc32cHardwareDispatched() {
    return Crc32cImpl() != Crc32cSliceBy8Update;
}

}  // namespace crc32_internal

std::uint32_t
Crc32Update(std::uint32_t crc, const void* data, std::size_t len) {
    static const auto tables = MakeTables(0xEDB88320U);
    return TableUpdate(tables, crc, data, len);
}

std::uint32_t
Crc32(const void* data, std::size_t len) {
    return Crc32Update(0, data, len);
}

std::uint32_t
Crc32cUpdate(std::uint32_t crc, const void* data, std::size_t len) {
    return Crc32cImpl()(crc, data, len);
}

std::uint32_t
Crc32c(const void* data, std::size_t len) {
    return Crc32cUpdate(0, data, len);
}

}  // namespace moc
