#include "util/crc32.h"

#include <array>
#include <cstring>

#include "util/crc32_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#include <smmintrin.h>
#include <wmmintrin.h>
#define MOC_CRC_X86 1
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
IeeeTables() {
    static const auto tables = MakeTables(0xEDB88320U);
    return tables;
}

const SliceTables&
CastagnoliTables() {
    static const auto tables = MakeTables(0x82F63B78U);
    return tables;
}

#ifdef MOC_CRC_X86

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

/**
 * One 128-bit fold step: multiplies the two halves of @p x by the fold
 * constants in @p k (low half by k's low, high by k's high), which moves
 * x forward by the distance the constants encode, and adds @p data there.
 */
__attribute__((target("pclmul,sse4.1"))) __m128i
Fold(__m128i x, __m128i k, __m128i data) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         data);
}

__attribute__((target("pclmul,sse4.1"))) __m128i
Load128(const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/**
 * Carry-less-multiply folding for the reflected IEEE polynomial (Gopal et
 * al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ";
 * constants as in Linux's crc32-pclmul_asm.S). Four 128-bit lanes fold
 * 64 bytes per step, fold into one lane, take 16 bytes per step, then
 * reduce 128 → 64 → 32 bits and finish with a Barrett reduction. Takes
 * and returns the uninverted register; @p len is a multiple of 16, >= 64.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
ClmulFold(std::uint32_t crc, const unsigned char* p, std::size_t len) {
    const __m128i r2r1 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i r4r3 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i r5 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i mu_poly = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
    const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

    __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = Load128(p + 16);
    __m128i x3 = Load128(p + 32);
    __m128i x4 = Load128(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = Fold(x1, r2r1, Load128(p));
        x2 = Fold(x2, r2r1, Load128(p + 16));
        x3 = Fold(x3, r2r1, Load128(p + 32));
        x4 = Fold(x4, r2r1, Load128(p + 48));
    }
    x1 = Fold(x1, r4r3, x2);
    x1 = Fold(x1, r4r3, x3);
    x1 = Fold(x1, r4r3, x4);
    for (; len >= 16; p += 16, len -= 16) {
        x1 = Fold(x1, r4r3, Load128(p));
    }
    // 128 → 64 bits: the low half times R4, added to the high half; this
    // also appends the 32 zero bits the final reduction expects.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, r4r3, 0x10));
    // 64 → 32 bits (R5).
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), r5,
                                            0x00));
    // Bit-reflected Barrett reduction modulo P, with µ = x^64 / P.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), mu_poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), mu_poly, 0x00);
    return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/** IEEE CRC-32 with PCLMULQDQ over whole 16-byte blocks; the sub-64-byte
    inputs and the tail go through the slice-by-8 tables. */
std::uint32_t
ClmulCrc32Update(std::uint32_t crc, const void* data, std::size_t len) {
    if (len < 64) {
        return crc32_internal::Crc32SliceBy8Update(crc, data, len);
    }
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t blocks = len & ~std::size_t{15};
    const std::uint32_t reg = ClmulFold(~crc, p, blocks);
    return crc32_internal::Crc32SliceBy8Update(~reg, p + blocks, len - blocks);
}

#endif  // MOC_CRC_X86

using UpdateFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

UpdateFn
ChooseCrc32() {
#ifdef MOC_CRC_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
        return ClmulCrc32Update;
    }
#endif
    return crc32_internal::Crc32SliceBy8Update;
}

UpdateFn
ChooseCrc32c() {
#ifdef MOC_CRC_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
        return HardwareUpdate;
    }
#endif
    return crc32_internal::Crc32cSliceBy8Update;
}

/** The CRC-32 implementation this CPU runs, chosen on first use. */
UpdateFn
Crc32Impl() {
    static const UpdateFn impl = ChooseCrc32();
    return impl;
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
Crc32SliceBy8Update(std::uint32_t crc, const void* data, std::size_t len) {
    return TableUpdate(IeeeTables(), crc, data, len);
}

bool
Crc32HardwareDispatched() {
    return Crc32Impl() != Crc32SliceBy8Update;
}

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
    return Crc32Impl()(crc, data, len);
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
