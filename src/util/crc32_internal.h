#ifndef MOC_UTIL_CRC32_INTERNAL_H_
#define MOC_UTIL_CRC32_INTERNAL_H_

/**
 * @file
 * The CRC-32 and CRC-32C implementations behind util/crc32.h's dispatch,
 * exposed for the cross-check tests only. Production code calls
 * Crc32/Crc32Update and Crc32c/Crc32cUpdate.
 */

#include <cstddef>
#include <cstdint>

namespace moc::crc32_internal {

/**
 * Bytes per stream in the CRC-32C hardware path's two interleave tiers: a run of
 * 3 × kLongBlock bytes is hashed as three independent streams and
 * combined, then 3 × kShortBlock runs, then one stream for the tail.
 */
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/** Portable slice-by-8 IEEE CRC-32; the fallback on CPUs without PCLMULQDQ. */
std::uint32_t Crc32SliceBy8Update(std::uint32_t crc, const void* data,
                                  std::size_t len);

/** True when Crc32Update dispatches to the PCLMULQDQ path on this CPU. */
bool Crc32HardwareDispatched();

/** Portable slice-by-8 CRC-32C; the fallback on CPUs without SSE4.2. */
std::uint32_t Crc32cSliceBy8Update(std::uint32_t crc, const void* data,
                                   std::size_t len);

/** True when Crc32cUpdate dispatches to the SSE4.2 path on this CPU. */
bool Crc32cHardwareDispatched();

}  // namespace moc::crc32_internal

#endif  // MOC_UTIL_CRC32_INTERNAL_H_
