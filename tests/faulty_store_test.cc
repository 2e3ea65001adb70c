/**
 * @file
 * Unit tests for the FaultyStore injector: inert until armed, seeded
 * determinism, every fault class observable, metadata path unfaulted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "storage/faulty_store.h"
#include "storage/memory_store.h"
#include "storage/store_error.h"

namespace moc {
namespace {

Blob
Pattern(std::size_t size) {
    Blob blob(size);
    for (std::size_t i = 0; i < size; ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    return blob;
}

/**
 * "k<i>". Built by appending: GCC 12 at -O3 reports a false -Wrestrict on
 * `"k" + std::to_string(i)`, which fails the -Werror Release build.
 */
std::string
Key(int i) {
    return std::string("k").append(std::to_string(i));
}

/** Bits differing between two equal-length blobs. */
std::size_t
BitDiff(const Blob& a, const Blob& b) {
    std::size_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint8_t x = a[i] ^ b[i];
        while (x != 0) {
            diff += x & 1u;
            x >>= 1u;
        }
    }
    return diff;
}

TEST(FaultyStore, InertUntilArmed) {
    MemoryStore base;
    FaultyStore store(base, /*seed=*/1);
    EXPECT_FALSE(store.armed());
    store.Put("k", Pattern(64));
    EXPECT_EQ(*store.Get("k"), Pattern(64));
    EXPECT_EQ(store.injected().Total(), 0u);
}

TEST(FaultyStore, ArmRejectsBadProbabilities) {
    MemoryStore base;
    FaultyStore store(base, 1);
    StorageFaultProfile profile;
    profile.bit_flip = 1.5;
    EXPECT_THROW(store.Arm(profile), std::invalid_argument);
    profile.bit_flip = 0.5;
    profile.latency_spike_seconds = -1.0;
    EXPECT_THROW(store.Arm(profile), std::invalid_argument);
}

TEST(FaultyStore, TransientWriteThrowsTyped) {
    MemoryStore base;
    FaultyStore store(base, 2);
    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    store.Arm(profile);
    try {
        store.Put("k", Pattern(16));
        FAIL() << "expected an injected transient error";
    } catch (const StoreError& e) {
        EXPECT_EQ(e.kind(), StoreErrorKind::kTransient);
        EXPECT_EQ(e.key(), "k");
    }
    EXPECT_FALSE(base.Contains("k"));
    EXPECT_EQ(store.injected().transient_errors, 1u);
}

TEST(FaultyStore, LostWriteReportsSuccessStoresNothing) {
    MemoryStore base;
    FaultyStore store(base, 3);
    StorageFaultProfile profile;
    profile.lost_write = 1.0;
    store.Arm(profile);
    store.Put("k", Pattern(16));  // no throw
    EXPECT_FALSE(base.Contains("k"));
    EXPECT_EQ(store.injected().lost_writes, 1u);
}

TEST(FaultyStore, TornWriteTruncates) {
    MemoryStore base;
    FaultyStore store(base, 4);
    StorageFaultProfile profile;
    profile.torn_write = 1.0;
    store.Arm(profile);
    store.Put("k", Pattern(128));
    ASSERT_TRUE(base.Contains("k"));
    EXPECT_LT(base.Get("k")->size(), 128u);
    EXPECT_EQ(store.injected().torn_writes, 1u);
}

TEST(FaultyStore, BitFlipDamagesExactlyOneBit) {
    MemoryStore base;
    FaultyStore store(base, 5);
    StorageFaultProfile profile;
    profile.bit_flip = 1.0;
    store.Arm(profile);
    store.Put("k", Pattern(128));
    const Blob stored = *base.Get("k");
    ASSERT_EQ(stored.size(), 128u);
    EXPECT_EQ(BitDiff(stored, Pattern(128)), 1u);
    EXPECT_EQ(store.injected().bit_flips, 1u);
}

TEST(FaultyStore, ReadCorruptionLeavesStoreIntact) {
    MemoryStore base;
    FaultyStore store(base, 6);
    store.Put("k", Pattern(64));
    StorageFaultProfile profile;
    profile.read_corrupt = 1.0;
    store.Arm(profile);
    const Blob read = *store.Get("k");
    EXPECT_EQ(BitDiff(read, Pattern(64)), 1u);
    store.Disarm();
    EXPECT_EQ(*store.Get("k"), Pattern(64));  // the bytes at rest are fine
    EXPECT_EQ(store.injected().corrupt_reads, 1u);
}

TEST(FaultyStore, MetadataOpsPassThroughWhileArmed) {
    MemoryStore base;
    FaultyStore store(base, 7);
    store.Put("a/b", Pattern(8));
    StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    profile.get_transient_error = 1.0;
    store.Arm(profile);
    EXPECT_TRUE(store.Contains("a/b"));
    EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a/b"}));
    EXPECT_EQ(store.Count(), 1u);
    EXPECT_EQ(store.TotalBytes(), 8u);
    store.Erase("a/b");
    EXPECT_FALSE(base.Contains("a/b"));
}

TEST(FaultyStore, SameSeedSameFaultSequence) {
    // The whole fault stream is a pure function of (seed, op sequence).
    const auto run = [](std::uint64_t seed) {
        MemoryStore base;
        FaultyStore store(base, seed);
        StorageFaultProfile profile;
        profile.put_transient_error = 0.3;
        profile.torn_write = 0.3;
        profile.bit_flip = 0.2;
        store.Arm(profile);
        std::string trace;
        for (int i = 0; i < 64; ++i) {
            try {
                store.Put(Key(i), Pattern(32));
                const auto blob = base.Get(Key(i));
                trace += blob && blob->size() == 32 ? 'o' : 't';
            } catch (const StoreError&) {
                trace += 'x';
            }
        }
        return trace;
    };
    EXPECT_EQ(run(42), run(42));
    EXPECT_NE(run(42), run(43));  // astronomically unlikely to collide
}

}  // namespace
}  // namespace moc
