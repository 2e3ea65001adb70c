#ifndef MOC_UTIL_CRC32_H_
#define MOC_UTIL_CRC32_H_

/**
 * @file
 * CRC-32 in two polynomials.
 *
 * Crc32 (IEEE 802.3, 0xEDB88320) is the wire-format checksum: tensor
 * blobs and FileStore files carry it as a trailer next to the bytes it
 * covers, so bit rot in transit or at rest is detected on parse.
 *
 * Crc32c (Castagnoli, 0x82F63B78) is the *verification* checksum: the
 * value a manifest records for a shard and later compares against
 * re-read bytes. It MUST be a different polynomial than the trailers
 * embedded inside the blob. CRC is linear over GF(2), and running a CRC
 * across `message || crc(message)` drives the register into a constant
 * state independent of the message — so an outer IEEE CRC over a blob
 * whose sections each end with their own IEEE trailer never sees the
 * payload at all. Two same-shaped blobs from different training
 * iterations then collide, and a lost write that leaves stale
 * same-shaped bytes in place passes verification. A second polynomial
 * breaks the cancellation: the embedded trailer is no longer the outer
 * register's own image of the section.
 *
 * Implementations. Crc32 is portable slice-by-8 everywhere. Crc32c is
 * chosen once per process, on first use, by asking the CPU
 * (`__builtin_cpu_supports("sse4.2")`):
 *  - x86-64 with SSE4.2: the `crc32` instruction over three interleaved
 *    streams (runs of 3 × 8 KiB, then 3 × 256 B, then one stream for the
 *    tail), joined by precomputed zero-byte shift tables. On a 4-vCPU
 *    x86-64 VM it hashes 16 MiB at 8–10 GB/s, slice-by-8 at 1.3 GB/s.
 *  - anything else: the same slice-by-8 tables as Crc32, with the
 *    Castagnoli polynomial.
 * Both produce bit-identical values at every length, split and alignment
 * (tests/util_test.cc cross-checks them against a bytewise reference via
 * util/crc32_internal.h). There is no flag or environment variable: the
 * choice changes speed, never a checksum.
 */

#include <cstddef>
#include <cstdint>

namespace moc {

/** Computes the CRC-32 (IEEE) of @p data[0..len). */
std::uint32_t Crc32(const void* data, std::size_t len);

/** Incremental form: feed @p crc from a previous call (start with 0). */
std::uint32_t Crc32Update(std::uint32_t crc, const void* data, std::size_t len);

/** Computes the CRC-32C (Castagnoli) of @p data[0..len). Thread-safe. */
std::uint32_t Crc32c(const void* data, std::size_t len);

/** Incremental CRC-32C: feed @p crc from a previous call (start with 0). */
std::uint32_t Crc32cUpdate(std::uint32_t crc, const void* data,
                           std::size_t len);

}  // namespace moc

#endif  // MOC_UTIL_CRC32_H_
