/**
 * @file
 * A string length beyond the remaining bytes makes ByteReader::Str throw
 * before it allocates anything for the string.
 *
 * To see allocations, this file replaces the global operator new/delete.
 * It is its own executable so the replacement stays out of moc_tests: a
 * sanitizer build of the main suite keeps its own allocator and with it
 * the new/delete mismatch checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "util/byte_codec.h"

namespace {

/** The largest heap allocation this thread has asked for since reset. */
thread_local std::size_t t_largest_allocation = 0;

[[gnu::noinline]] void*
RecordedMalloc(std::size_t size) noexcept {
    t_largest_allocation = std::max(t_largest_allocation, size);
    return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void*
RecordedNew(std::size_t size) {
    if (void* p = RecordedMalloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

}  // namespace

// Recording replacements of every non-aligned global allocation function,
// over malloc/free, so each new pairs with the matching delete; the
// aligned forms keep their default (also paired) implementations. Out of
// line: inlined, GCC would pair a `new` it sees with the `free` below and
// warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) { return RecordedNew(n); }
[[gnu::noinline]] void* operator new[](std::size_t n) { return RecordedNew(n); }
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return RecordedMalloc(n); }
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return RecordedMalloc(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace moc {
namespace {

TEST(ByteCodec, StringLengthBeyondRemainingThrowsWithoutAllocating) {
    ByteWriter w;
    w.U32(0xFFFFFFF0U);  // claims ~4 GiB
    w.Raw("abc", 3);
    const std::vector<std::uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    t_largest_allocation = 0;
    EXPECT_THROW(r.Str(), DecodeError);
    // The exception and its message allocate a few bytes; the string none.
    EXPECT_LT(t_largest_allocation, 4096U);
}

}  // namespace
}  // namespace moc
