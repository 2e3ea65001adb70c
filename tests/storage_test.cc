/**
 * @file
 * Unit tests for the storage module: memory/persistent stores, node-failure
 * semantics, the I/O cost model, and the two-level checkpoint manifest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "storage/manifest.h"
#include "storage/memory_store.h"
#include "storage/persistent_store.h"

namespace moc {
namespace {

Blob
MakeBlob(std::size_t size, std::uint8_t fill) {
    return Blob(size, fill);
}

// ---------- MemoryStore ----------

TEST(MemoryStore, PutGetEraseRoundTrip) {
    MemoryStore store;
    store.Put("a", MakeBlob(10, 1));
    ASSERT_TRUE(store.Contains("a"));
    EXPECT_EQ(store.Get("a")->size(), 10U);
    EXPECT_EQ(store.Count(), 1U);
    store.Erase("a");
    EXPECT_FALSE(store.Contains("a"));
    EXPECT_FALSE(store.Get("a").has_value());
}

TEST(MemoryStore, ReadVisitsTheStoredBlobWithoutCopying) {
    MemoryStore s;
    s.Put("k", Blob{1, 2, 3});
    const std::uint8_t* first = nullptr;
    EXPECT_TRUE(s.Read("k", [&first](const Blob& b) {
        EXPECT_EQ(b, (Blob{1, 2, 3}));
        first = b.data();
    }));
    EXPECT_TRUE(s.Read("k", [first](const Blob& b) { EXPECT_EQ(b.data(), first); }));
    bool called = false;
    EXPECT_FALSE(s.Read("missing", [&called](const Blob&) { called = true; }));
    EXPECT_FALSE(called);
}

TEST(MemoryStore, OverwriteUpdatesByteAccounting) {
    MemoryStore store;
    store.Put("a", MakeBlob(10, 1));
    store.Put("a", MakeBlob(30, 2));
    EXPECT_EQ(store.TotalBytes(), 30U);
    EXPECT_EQ(store.Count(), 1U);
    EXPECT_EQ(store.Get("a")->front(), 2);
}

TEST(MemoryStore, KeysSorted) {
    MemoryStore store;
    store.Put("b", MakeBlob(1, 0));
    store.Put("a", MakeBlob(1, 0));
    store.Put("c", MakeBlob(1, 0));
    EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MemoryStore, ClearDropsEverything) {
    MemoryStore store;
    store.Put("a", MakeBlob(5, 0));
    store.Clear();
    EXPECT_EQ(store.Count(), 0U);
    EXPECT_EQ(store.TotalBytes(), 0U);
}

/**
 * Readers share the store's lock and copy concurrently while a writer
 * overwrites the same key: every read sees one whole blob, never a torn
 * one, and the byte accounting stays exact. Run under TSan in CI.
 */
TEST(MemoryStore, ConcurrentReadersSeeWholeBlobsWhileWriterOverwrites) {
    MemoryStore store;
    store.Put("k", MakeBlob(4096, 0));
    std::atomic<bool> done{false};
    std::atomic<std::size_t> torn{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!done) {
                const auto blob = store.Get("k");
                if (!blob.has_value() || blob->size() != 4096 ||
                    std::count(blob->begin(), blob->end(), blob->front()) !=
                        4096 ||
                    !store.Contains("k") || store.Count() != 1) {
                    ++torn;
                }
            }
        });
    }
    for (int v = 1; v <= 200; ++v) {
        store.Put("k", MakeBlob(4096, static_cast<std::uint8_t>(v)));
    }
    done = true;
    for (auto& reader : readers) {
        reader.join();
    }
    EXPECT_EQ(torn.load(), 0U);
    EXPECT_EQ(store.TotalBytes(), 4096U);
    EXPECT_EQ(store.Get("k")->front(), 200);
}

// ---------- NodeMemoryPool ----------

TEST(NodeMemoryPool, FailWipesOnlyThatNode) {
    NodeMemoryPool pool(3);
    pool.Node(0).Put("x", MakeBlob(5, 0));
    pool.Node(1).Put("x", MakeBlob(5, 0));
    pool.FailNode(0);
    EXPECT_TRUE(pool.IsFailed(0));
    EXPECT_FALSE(pool.Node(0).Contains("x"));
    EXPECT_TRUE(pool.Node(1).Contains("x"));
    EXPECT_EQ(pool.TotalBytes(), 5U);
}

TEST(NodeMemoryPool, RestartClearsFailedFlag) {
    NodeMemoryPool pool(2);
    pool.FailNode(1);
    pool.RestartNode(1);
    EXPECT_FALSE(pool.IsFailed(1));
    pool.Node(1).Put("y", MakeBlob(3, 0));
    EXPECT_TRUE(pool.Node(1).Contains("y"));
}

TEST(NodeMemoryPool, BoundsChecked) {
    NodeMemoryPool pool(2);
    EXPECT_THROW(pool.Node(2), std::invalid_argument);
    EXPECT_THROW(pool.FailNode(5), std::invalid_argument);
}

// ---------- PersistentStore ----------

TEST(PersistentStore, DurableAcrossUse) {
    PersistentStore store;
    store.Put("ckpt/1", MakeBlob(100, 7));
    EXPECT_TRUE(store.Contains("ckpt/1"));
    EXPECT_EQ(store.TotalBytes(), 100U);
    EXPECT_EQ(store.Get("ckpt/1")->at(0), 7);
}

TEST(PersistentStore, TracksBytesWrittenCumulatively) {
    PersistentStore store;
    store.Put("a", MakeBlob(100, 0));
    store.Put("a", MakeBlob(100, 1));  // overwrite still counts as a write
    EXPECT_EQ(store.BytesWritten(), 200U);
    EXPECT_EQ(store.TotalBytes(), 100U);
}

TEST(PersistentStore, IoModelTimes) {
    StorageIoModel io;
    io.write_bandwidth = 100.0;
    io.read_bandwidth = 200.0;
    io.latency = 1.0;
    PersistentStore store(io);
    EXPECT_DOUBLE_EQ(store.WriteTime(100), 2.0);
    EXPECT_DOUBLE_EQ(store.ReadTime(100), 1.5);
}

TEST(PersistentStore, RejectsNonPositiveBandwidth) {
    StorageIoModel io;
    io.write_bandwidth = 0.0;
    EXPECT_THROW(PersistentStore{io}, std::invalid_argument);
}

// ---------- Manifest ----------

TEST(Manifest, PersistLatestSingleVersion) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kPersist, "k", 10, 0, 100);
    manifest.RecordSave(StoreLevel::kPersist, "k", 20, 0, 100);
    const auto v = manifest.Latest(StoreLevel::kPersist, "k");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->iteration, 20U);
}

TEST(Manifest, MemoryKeepsPerNodeReplicas) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kMemory, "k", 10, /*node=*/0, 100);
    manifest.RecordSave(StoreLevel::kMemory, "k", 20, /*node=*/1, 100);
    const auto v = manifest.Latest(StoreLevel::kMemory, "k");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->iteration, 20U);
    EXPECT_EQ(v->node, 1U);
}

TEST(Manifest, DropNodeFallsBackToSurvivingReplica) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kMemory, "k", 10, 0, 100);
    manifest.RecordSave(StoreLevel::kMemory, "k", 20, 1, 100);
    manifest.DropNodeMemory(1);
    const auto v = manifest.Latest(StoreLevel::kMemory, "k");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->iteration, 10U);
    EXPECT_EQ(v->node, 0U);
}

TEST(Manifest, DropNodeRemovesKeyWhenLastReplicaDies) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kMemory, "k", 10, 0, 100);
    manifest.DropNodeMemory(0);
    EXPECT_FALSE(manifest.Latest(StoreLevel::kMemory, "k").has_value());
    EXPECT_TRUE(manifest.KeysAt(StoreLevel::kMemory).empty());
}

TEST(Manifest, DropNodeLeavesPersistUntouched) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kPersist, "k", 10, 0, 100);
    manifest.DropNodeMemory(0);
    EXPECT_TRUE(manifest.Latest(StoreLevel::kPersist, "k").has_value());
}

TEST(Manifest, CompletionMarkers) {
    CheckpointManifest manifest;
    EXPECT_FALSE(manifest.LastCompleteIteration(StoreLevel::kPersist).has_value());
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 32);
    manifest.MarkCheckpointComplete(StoreLevel::kMemory, 48);
    EXPECT_EQ(manifest.LastCompleteIteration(StoreLevel::kPersist).value(), 32U);
    EXPECT_EQ(manifest.LastCompleteIteration(StoreLevel::kMemory).value(), 48U);
}

TEST(Manifest, SameIterationOverwriteAllowed) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kPersist, "k", 10, 0, 100);
    // Replay after recovery rewrites the same iteration: allowed.
    manifest.RecordSave(StoreLevel::kPersist, "k", 10, 0, 120);
    EXPECT_EQ(manifest.Latest(StoreLevel::kPersist, "k")->bytes, 120U);
}

TEST(Manifest, KeysAtListsLevelKeys) {
    CheckpointManifest manifest;
    manifest.RecordSave(StoreLevel::kPersist, "b", 1, 0, 1);
    manifest.RecordSave(StoreLevel::kPersist, "a", 1, 0, 1);
    manifest.RecordSave(StoreLevel::kMemory, "m", 1, 0, 1);
    EXPECT_EQ(manifest.KeysAt(StoreLevel::kPersist),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(manifest.KeysAt(StoreLevel::kMemory),
              (std::vector<std::string>{"m"}));
}

TEST(Manifest, GenerationEligibleOnlyWhenSealedAndAllVerified) {
    CheckpointManifest manifest;
    manifest.RecordPersistVersion("a", 4, 10, 111, /*verified=*/true);
    manifest.RecordPersistVersion("b", 4, 10, 222, /*verified=*/false);
    // Unsealed: not eligible even once every shard verifies.
    EXPECT_TRUE(manifest.EligibleGenerations().empty());
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 4);
    EXPECT_TRUE(manifest.EligibleGenerations().empty());  // b unverified
    manifest.RecordPersistVersion("b", 4, 10, 222, /*verified=*/true);
    EXPECT_EQ(manifest.EligibleGenerations(),
              (std::vector<std::size_t>{4}));
    EXPECT_EQ(manifest.LatestEligibleGeneration().value(), 4U);
}

TEST(Manifest, CorruptShardRemovesGenerationEligibility) {
    CheckpointManifest manifest;
    manifest.RecordPersistVersion("a", 4, 10, 111, true);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 4);
    manifest.RecordPersistVersion("a", 8, 10, 112, true);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 8);
    EXPECT_EQ(manifest.EligibleGenerations(),
              (std::vector<std::size_t>{8, 4}));  // newest first
    manifest.MarkPersistCorrupt("a", 8);
    EXPECT_EQ(manifest.EligibleGenerations(),
              (std::vector<std::size_t>{4}));
    manifest.MarkGenerationCorrupt(4);
    EXPECT_TRUE(manifest.EligibleGenerations().empty());
}

TEST(Manifest, FallbackChainSkipsCorruptAndUnverified) {
    CheckpointManifest manifest;
    manifest.RecordPersistVersion("k", 4, 10, 1, true);
    manifest.RecordPersistVersion("k", 8, 10, 2, false);
    manifest.RecordPersistVersion("k", 12, 10, 3, true);
    manifest.RecordPersistVersion("k", 16, 10, 4, true);
    manifest.MarkPersistCorrupt("k", 16);
    const auto chain = manifest.PersistFallbackChain("k", 16);
    ASSERT_EQ(chain.size(), 2U);  // 16 corrupt, 8 unverified
    EXPECT_EQ(chain[0].iteration, 12U);
    EXPECT_EQ(chain[1].iteration, 4U);
    // max_iteration caps the newest candidate.
    const auto capped = manifest.PersistFallbackChain("k", 8);
    ASSERT_EQ(capped.size(), 1U);
    EXPECT_EQ(capped[0].iteration, 4U);
}

TEST(Manifest, PruneKeepsVersionsBackingNewerGenerations) {
    CheckpointManifest manifest;
    // "full" is rewritten every checkpoint; "pec" only at iteration 4
    // (an unselected expert whose old shard backs later generations).
    for (const std::size_t iter : {4, 8, 12, 16}) {
        manifest.RecordPersistVersion("full", iter, 10, iter, true);
        manifest.MarkCheckpointComplete(StoreLevel::kPersist, iter);
    }
    manifest.RecordPersistVersion("pec", 4, 10, 99, true);
    const auto pruned = manifest.PrunePersistGenerations(2);
    // Keeping generations {16, 12}: full@4 and full@8 go; pec@4 stays
    // because it is still the newest usable version of its key.
    EXPECT_EQ(pruned,
              (std::vector<std::pair<std::string, std::size_t>>{
                  {"full", 4}, {"full", 8}}));
    EXPECT_EQ(manifest.PersistFallbackChain("full", 16).size(), 2U);
    EXPECT_EQ(manifest.PersistFallbackChain("pec", 16).size(), 1U);
}

TEST(Manifest, JsonRoundTripPreservesPersistState) {
    CheckpointManifest manifest;
    manifest.RecordPersistVersion("a", 4, 10, 111, true);
    manifest.RecordPersistVersion("b", 4, 20, 222, false);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 4);
    manifest.RecordPersistVersion("a", 8, 12, 113, true);
    manifest.MarkPersistCorrupt("a", 8);
    manifest.MarkGenerationCorrupt(8);

    CheckpointManifest loaded;
    loaded.LoadFromJson(manifest.ToJson());
    EXPECT_EQ(loaded.ToJson(), manifest.ToJson());
    const auto generations = loaded.Generations();
    ASSERT_EQ(generations.size(), 2U);
    EXPECT_TRUE(generations[0].sealed);
    EXPECT_EQ(generations[0].verified_shards, 1U);  // b stays unverified
    EXPECT_TRUE(generations[1].marked_corrupt);
    EXPECT_EQ(generations[1].corrupt_shards, 1U);
    EXPECT_TRUE(loaded.PersistFallbackChain("a", 8).front().iteration == 4);
    EXPECT_EQ(loaded.LastCompleteIteration(StoreLevel::kPersist).value(), 4U);
}

TEST(Manifest, LoadFromJsonRejectsGarbage) {
    CheckpointManifest manifest;
    EXPECT_THROW(manifest.LoadFromJson("not json"), std::invalid_argument);
    EXPECT_THROW(manifest.LoadFromJson("{\"format\":\"other/9\"}"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace moc
