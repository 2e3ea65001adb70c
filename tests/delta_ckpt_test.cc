/**
 * @file
 * Per-expert delta checkpointing: the changed-chunk codec
 * (storage/delta_codec.h), the persist pipeline's delta path and its chain
 * bound, restore byte-equivalence across multi-generation chains, `moc_cli
 * fsck`'s chain verification, and the dedup-identity regression (a CRC-32C
 * collision must not dedup two different blobs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/cluster_engine.h"
#include "ckpt/persist_pipeline.h"
#include "cli_lib.h"
#include "core/cluster_recovery.h"
#include "storage/delta_codec.h"
#include "storage/faulty_store.h"
#include "storage/file_store.h"
#include "storage/persistent_store.h"
#include "storage/store_error.h"
#include "temp_path.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/rng.h"

namespace moc {
namespace {

AgentCostModel
FastCost() {
    AgentCostModel cost;
    cost.snapshot_bandwidth = 200e6;
    cost.persist_bandwidth = 200e6;
    cost.time_scale = 1.0;
    return cost;
}

/** @p ranks ranks, each holding @p per_rank expert shards of @p bytes,
    plus one non-expert "dense/w" shard per rank. */
ShardPlan
MixedPlan(std::size_t ranks, std::size_t per_rank, Bytes bytes) {
    ShardPlan plan(ranks);
    for (RankId r = 0; r < ranks; ++r) {
        for (std::size_t i = 0; i < per_rank; ++i) {
            plan.Add(r, {"expert/" + std::to_string(r * per_rank + i) + "/w",
                         bytes, false});
        }
        plan.Add(r, {"dense/w", bytes, false});
    }
    return plan;
}

/**
 * Hot-shard content at @p version: the base blob with one 64-byte chunk
 * mutated per version step, cumulatively — consecutive versions differ in
 * exactly one chunk, which is what makes a shard delta-eligible.
 */
Blob
ChurnedBytes(const ShardItem& item, std::size_t version) {
    Blob blob = SyntheticShardBytes(item, 1);
    const std::size_t chunks = std::max<std::size_t>(1, blob.size() / 64);
    for (std::size_t v = 2; v <= version; ++v) {
        const std::size_t off = ((v * 131) % chunks) * 64;
        for (std::size_t i = 0; i < 64 && off + i < blob.size(); ++i) {
            blob[off + i] ^= static_cast<std::uint8_t>(0xA5 ^ v);
        }
    }
    return blob;
}

BlobProvider
ChurnProvider(std::size_t version) {
    return [version](const ShardItem& item) {
        return ChurnedBytes(item, version);
    };
}

// ---------- codec ----------

TEST(DeltaCodec, ChunkHashesDifferPerChunkAndCarryBothHashes) {
    Blob blob(300);
    for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 7);
    }
    const auto ids = HashChunks(blob, 128);
    ASSERT_EQ(ids.size(), 3U);  // 128 + 128 + 44-byte tail
    EXPECT_NE(ids[0], ids[1]);
    for (const auto& id : ids) {
        EXPECT_NE(id.xxh, 0U);
    }
    // The chunk identity matches hashing the slice directly.
    EXPECT_EQ(ids[0].crc, Crc32c(blob.data(), 128));
    EXPECT_EQ(ids[0].xxh, Xxh64(blob.data(), 128));
    EXPECT_EQ(ids[2].crc, Crc32c(blob.data() + 256, 44));
    EXPECT_EQ(ids[2].xxh, Xxh64(blob.data() + 256, 44));
}

TEST(DeltaCodec, ChunkPassAlsoYieldsTheWholeBlobCrc) {
    Blob blob(1000);
    for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    for (const std::size_t chunk : {1UL, 7UL, 64UL, 999UL, 1000UL, 4096UL}) {
        std::uint32_t whole = 0xDEADBEEF;
        const auto ids = HashChunks(blob, chunk, &whole);
        EXPECT_EQ(whole, Crc32c(blob.data(), blob.size())) << chunk;
        EXPECT_EQ(ids, HashChunks(blob, chunk)) << chunk;
    }
    std::uint32_t empty = 0xDEADBEEF;
    EXPECT_TRUE(HashChunks(Blob{}, 64, &empty).empty());
    EXPECT_EQ(empty, 0U);
}

TEST(DeltaCodec, EncodeApplyRoundTripsWithShortTailChunk) {
    Blob base(300);
    for (std::size_t i = 0; i < base.size(); ++i) {
        base[i] = static_cast<std::uint8_t>(i);
    }
    Blob next = base;
    next[5] ^= 0xFF;    // chunk 0
    next[299] ^= 0xFF;  // short tail chunk 2
    const Blob record = EncodeDelta(next, {0, 2}, 128, /*base_iteration=*/7);

    const DeltaRecord parsed = ParseDelta(record);
    EXPECT_EQ(parsed.logical_bytes, 300U);
    EXPECT_EQ(parsed.base_iteration, 7U);
    EXPECT_EQ(parsed.chunk_bytes, 128U);
    EXPECT_EQ(parsed.num_chunks, 3U);
    EXPECT_EQ(parsed.changed, (std::vector<std::uint32_t>{0, 2}));
    // Only chunk 0 (128 B) and the 44-byte tail were shipped.
    EXPECT_LT(record.size(), next.size());

    EXPECT_EQ(ApplyDelta(record, base), next);
}

TEST(DeltaCodec, RejectsMalformedRecords) {
    Blob base(256, 0x11);
    Blob next = base;
    next[0] ^= 1;
    Blob record = EncodeDelta(next, {0}, 128, 3);

    Blob bad_magic = record;
    bad_magic[0] = 'X';
    EXPECT_THROW(ParseDelta(bad_magic), DecodeError);

    Blob truncated(record.begin(), record.begin() + record.size() - 1);
    EXPECT_THROW(ParseDelta(truncated), DecodeError);

    Blob short_header(record.begin(), record.begin() + 10);
    EXPECT_THROW(ParseDelta(short_header), DecodeError);

    // Bitmap popcount disagreeing with changed_count.
    Blob bad_bitmap = record;
    bad_bitmap[36] = 0x03;  // two bits set, header says one chunk changed
    EXPECT_THROW(ParseDelta(bad_bitmap), DecodeError);

    // A base of the wrong size cannot host the record's chunk grid.
    EXPECT_THROW(ApplyDelta(record, Blob(100, 0)), std::invalid_argument);
}

TEST(DeltaCodec, DeltaShardKeyLandsBesideVersionedKeys) {
    EXPECT_EQ(DeltaShardKey("rank0/expert/3/w", 12),
              VersionedShardKey("rank0/expert/3/w", 12) + ".delta");
}

// ---------- pipeline + restore ----------

TEST(DeltaCkpt, ChainOfThreeDeltasRestoresByteIdentical) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterEngineOptions opt;
    opt.delta = true;
    opt.delta_chunk_bytes = 64;
    ClusterCheckpointEngine engine(store, 2, FastCost(), opt);
    // 4 MiB planned -> 4 KiB synthetic -> 64 chunks of 64 B.
    const auto plan = MixedPlan(2, 4, 4 * kMiB);

    ASSERT_TRUE(engine.Execute(plan, ChurnProvider(1), 1).sealed);
    for (std::size_t gen = 2; gen <= 4; ++gen) {
        const auto stats = engine.Execute(plan, ChurnProvider(gen), gen);
        ASSERT_TRUE(stats.sealed) << "gen " << gen;
        // Every shard changed by exactly one chunk: all deltas, no fulls.
        EXPECT_EQ(stats.keys_delta, 10U) << "gen " << gen;
        EXPECT_EQ(stats.keys_persisted, 10U) << "gen " << gen;
        EXPECT_EQ(stats.keys_deduped, 0U) << "gen " << gen;
        EXPECT_GT(stats.bytes_delta_saved, 0U) << "gen " << gen;
        // A one-chunk delta is a small fraction of the 4 KiB blob.
        EXPECT_LT(stats.bytes_persisted, 10U * 1024U) << "gen " << gen;
    }

    // The manifest chains each generation onto the previous one.
    const auto v4 = engine.manifest().FindPersistVersion("rank0/expert/0/w", 4);
    ASSERT_TRUE(v4.has_value());
    ASSERT_TRUE(v4->is_delta());
    EXPECT_EQ(*v4->delta_base, 3U);
    EXPECT_TRUE(store.Contains(DeltaShardKey("rank0/expert/0/w", 4)));
    EXPECT_FALSE(store.Contains(VersionedShardKey("rank0/expert/0/w", 4)));

    // Restore walks the chain back to the generation-1 full writes and
    // reproduces generation 4 byte-for-byte.
    const auto restore = PlanClusterRestore(engine.manifest());
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 4U);
    EXPECT_TRUE(restore->degraded.empty());
    const auto result =
        ExecuteClusterRestore(engine.manifest(), store, *restore);
    EXPECT_TRUE(result.damaged.empty());
    EXPECT_TRUE(result.degraded.empty());
    for (RankId r = 0; r < 2; ++r) {
        for (const auto& item : plan.Items(r)) {
            const std::string key = "rank" + std::to_string(r) + "/" + item.key;
            ASSERT_TRUE(result.blobs.count(key)) << key;
            EXPECT_EQ(result.blobs.at(key), ChurnedBytes(item, 4)) << key;
        }
    }
}

TEST(DeltaCkpt, ChainBoundForcesFullWriteAndResetsChain) {
    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    ClusterEngineOptions opt;
    opt.delta = true;
    opt.delta_chunk_bytes = 64;
    opt.max_delta_chain = 2;
    ClusterCheckpointEngine engine(store, 1, FastCost(), opt);
    const auto plan = MixedPlan(1, 2, 4 * kMiB);  // 3 shards

    ASSERT_TRUE(engine.Execute(plan, ChurnProvider(1), 1).sealed);
    EXPECT_EQ(engine.Execute(plan, ChurnProvider(2), 2).keys_delta, 3U);
    EXPECT_EQ(engine.Execute(plan, ChurnProvider(3), 3).keys_delta, 3U);

    // Chain length 2 == bound: generation 4 is forced full.
    const auto forced = engine.Execute(plan, ChurnProvider(4), 4);
    ASSERT_TRUE(forced.sealed);
    EXPECT_EQ(forced.keys_delta, 0U);
    EXPECT_EQ(forced.forced_full, 3U);
    EXPECT_TRUE(store.Contains(VersionedShardKey("rank0/dense/w", 4)));
    EXPECT_FALSE(store.Contains(DeltaShardKey("rank0/dense/w", 4)));

    // The full write resets the chain: generation 5 deltas again, based
    // on 4.
    const auto next = engine.Execute(plan, ChurnProvider(5), 5);
    EXPECT_EQ(next.keys_delta, 3U);
    const auto v5 = engine.manifest().FindPersistVersion("rank0/dense/w", 5);
    ASSERT_TRUE(v5.has_value());
    ASSERT_TRUE(v5->is_delta());
    EXPECT_EQ(*v5->delta_base, 4U);
}

TEST(DeltaCkpt, ManifestDeltaFieldsSurviveJsonRoundTrip) {
    CheckpointManifest manifest;
    manifest.RecordPersistVersion("k", 1, 4096, 0xAABBCCDD, true);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 1);
    manifest.RecordPersistDelta("k", 2, 4096, 0x11223344, true,
                                /*delta_base=*/1, /*delta_bytes=*/200,
                                /*delta_crc=*/0x55667788);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 2);

    CheckpointManifest reloaded;
    reloaded.LoadFromJson(manifest.ToJson());
    const auto v = reloaded.FindPersistVersion("k", 2);
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->is_delta());
    EXPECT_EQ(*v->delta_base, 1U);
    EXPECT_EQ(v->delta_bytes, 200U);
    EXPECT_EQ(v->delta_crc, 0x55667788U);
    EXPECT_EQ(v->bytes, 4096U);
    EXPECT_EQ(v->crc, 0x11223344U);
}

TEST(DeltaCkpt, PruneKeepsDeltaChainBases) {
    CheckpointManifest manifest;
    manifest.RecordPersistVersion("k", 1, 100, 0x1, true);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 1);
    manifest.RecordPersistDelta("k", 2, 100, 0x2, true, 1, 40, 0x3);
    manifest.MarkCheckpointComplete(StoreLevel::kPersist, 2);

    // Keeping only the newest generation must still keep iteration 1: the
    // kept delta at 2 is unreconstructable without its base.
    const auto pruned = manifest.PrunePersistGenerations(1);
    for (const auto& [key, iteration] : pruned) {
        EXPECT_FALSE(key == "k" && iteration == 1)
            << "pruned the base of a kept delta chain";
    }
    EXPECT_TRUE(manifest.FindPersistVersion("k", 1).has_value());
}

// ---------- dedup identity ----------

/**
 * Crafts a blob that CRC-32C-collides with @p base without being equal to
 * it: flip one leading byte, then solve for the trailing 4 bytes that
 * restore the original CRC. CRC is affine over GF(2) in the message bits,
 * so with everything but the tail fixed, crc(tail) = crc(0) xor L(tail)
 * with L linear and invertible — build L from 32 basis evaluations and
 * Gauss-eliminate.
 */
Blob
CraftCrc32cCollision(const Blob& base) {
    Blob out = base;
    out[0] ^= 0x01;
    const std::size_t tail = out.size() - 4;
    const auto crc_with_tail = [&out, tail](std::uint32_t t) {
        Blob probe = out;
        for (int i = 0; i < 4; ++i) {
            probe[tail + i] = static_cast<std::uint8_t>(t >> (8 * i));
        }
        return Crc32c(probe.data(), probe.size());
    };
    const std::uint32_t target = Crc32c(base.data(), base.size());
    const std::uint32_t f0 = crc_with_tail(0);
    std::array<std::uint32_t, 32> columns;
    for (int i = 0; i < 32; ++i) {
        columns[i] = crc_with_tail(1U << i) ^ f0;
    }
    // Solve sum(columns[i] for chosen i) == target ^ f0 over GF(2).
    std::uint32_t rhs = target ^ f0;
    std::array<std::uint32_t, 32> basis = columns;
    std::array<std::uint32_t, 32> choice;  // tail bits picked per basis row
    for (int i = 0; i < 32; ++i) {
        choice[i] = 1U << i;
    }
    std::uint32_t solution = 0;
    for (int bit = 31; bit >= 0; --bit) {
        int pivot = -1;
        for (int i = 0; i < 32; ++i) {
            if (basis[i] & (1U << bit)) {
                pivot = i;
                break;
            }
        }
        if (pivot < 0) {
            continue;
        }
        for (int i = 0; i < 32; ++i) {
            if (i != pivot && (basis[i] & (1U << bit))) {
                basis[i] ^= basis[pivot];
                choice[i] ^= choice[pivot];
            }
        }
        if (rhs & (1U << bit)) {
            rhs ^= basis[pivot];
            solution ^= choice[pivot];
        }
        basis[pivot] = 0;  // consumed
        choice[pivot] = 0;
    }
    EXPECT_EQ(rhs, 0U) << "CRC tail map unexpectedly singular";
    for (int i = 0; i < 4; ++i) {
        out[tail + i] = static_cast<std::uint8_t>(solution >> (8 * i));
    }
    return out;
}

TEST(DedupIdentity, Crc32cCollisionWithEqualSizeDoesNotDedup) {
    Blob a(64);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const Blob b = CraftCrc32cCollision(a);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_NE(a, b);
    ASSERT_EQ(Crc32c(a.data(), a.size()), Crc32c(b.data(), b.size()))
        << "collision crafting failed";
    // The second identity component tells them apart.
    EXPECT_NE(Xxh64(a.data(), a.size()), Xxh64(b.data(), b.size()));

    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    CheckpointManifest manifest;
    PersistPipeline pipeline(store, manifest, {});

    pipeline.BeginGeneration(1);
    pipeline.Submit("k", a, 1);
    ASSERT_TRUE(pipeline.FinishGeneration().sealed);

    // Same size, same CRC-32C, different content: a single-hash identity
    // dedups this and silently persists the wrong bytes.
    pipeline.BeginGeneration(2);
    pipeline.Submit("k", b, 2);
    const auto stats = pipeline.FinishGeneration();
    ASSERT_TRUE(stats.sealed);
    EXPECT_EQ(stats.shards_deduped, 0U);
    EXPECT_EQ(stats.shards_written, 1U);
    ASSERT_TRUE(store.Contains("k@2"));
    EXPECT_EQ(*store.Get("k@2"), b);
}

TEST(DedupIdentity, ChunkCrc32cCollisionInDeltaModeIsWrittenAsDelta) {
    constexpr std::size_t kChunk = 64;
    Blob a(4 * kChunk);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    // Replace chunk 1 with a CRC-32C-colliding chunk. Equal-length parts
    // with equal CRCs concatenate to an equal CRC, so the whole blob
    // collides too: size and both CRC-32C levels all match the baseline,
    // and only the chunks' XXH64 can tell the blobs apart.
    const Blob chunk1(a.begin() + kChunk, a.begin() + 2 * kChunk);
    const Blob forged = CraftCrc32cCollision(chunk1);
    Blob b = a;
    std::copy(forged.begin(), forged.end(), b.begin() + kChunk);
    ASSERT_NE(a, b);
    ASSERT_EQ(Crc32c(a.data(), a.size()), Crc32c(b.data(), b.size()))
        << "collision crafting failed";

    PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                           .latency = 0.0});
    CheckpointManifest manifest;
    PersistPipelineOptions opt;
    opt.delta = true;
    opt.delta_chunk_bytes = kChunk;
    PersistPipeline pipeline(store, manifest, {}, opt);

    pipeline.BeginGeneration(1);
    pipeline.Submit("k", a, 1);
    ASSERT_TRUE(pipeline.FinishGeneration().sealed);

    pipeline.BeginGeneration(2);
    pipeline.Submit("k", b, 2);
    const auto stats = pipeline.FinishGeneration();
    ASSERT_TRUE(stats.sealed);
    EXPECT_EQ(stats.shards_deduped, 0U);
    EXPECT_EQ(stats.shards_written, 1U);
    EXPECT_EQ(stats.shards_delta, 1U);

    // The record carries exactly the forged chunk.
    const auto record = store.Get(DeltaShardKey("k", 2));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(ParseDelta(*record).changed, std::vector<std::uint32_t>{1});

    // And restore rebuilds the forged bytes, not the baseline's.
    const auto restore = PlanClusterRestore(manifest);
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 2U);
    const auto result = ExecuteClusterRestore(manifest, store, *restore);
    EXPECT_TRUE(result.damaged.empty());
    ASSERT_TRUE(result.blobs.count("k"));
    EXPECT_EQ(result.blobs.at("k"), b);
}

// ---------- fsck ----------

TEST(DeltaFsck, CorruptMidChainBaseIsRepairableAndExcludesDependents) {
    namespace fs = std::filesystem;
    const fs::path dir = UniqueTempPath("moc_delta_fsck");
    fs::remove_all(dir);
    {
        FileStore disk(dir);
        ClusterEngineOptions opt;
        opt.delta = true;
        opt.delta_chunk_bytes = 64;
        opt.max_delta_chain = 2;
        ClusterCheckpointEngine engine(disk, 1, FastCost(), opt);
        const auto plan = MixedPlan(1, 2, 4 * kMiB);
        // gen 1 full; 2-3 deltas; 4 forced full; 5-6 deltas on 4.
        for (std::size_t gen = 1; gen <= 6; ++gen) {
            ASSERT_TRUE(engine.Execute(plan, ChurnProvider(gen), gen).sealed)
                << "gen " << gen;
        }
    }
    {
        std::ostringstream out;
        std::ostringstream err;
        ASSERT_EQ(cli::Main({"fsck", dir.string()}, out, err), 0) << out.str();
    }

    // Corrupt the non-expert shard's generation-4 full blob: the base both
    // delta generations 5 and 6 reconstruct from.
    const fs::path victim =
        dir / "rank0" / "dense" / (std::string("w@4") + ".blob");
    ASSERT_TRUE(fs::exists(victim)) << victim;
    {
        std::ofstream f(victim, std::ios::binary | std::ios::trunc);
        f << "rotten";
    }

    std::ostringstream out;
    std::ostringstream err;
    const fs::path json = dir / "fsck.json";
    EXPECT_EQ(cli::Main({"fsck", dir.string(), "--json", json.string()}, out,
                        err),
              1)
        << out.str();
    const std::string text = out.str();
    // The rotted base is plain damage; its dependents are chain breaks —
    // their own records are intact but unreconstructable.
    EXPECT_NE(text.find("missing version: rank0/dense/w @4"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("broken delta chain: rank0/dense/w @5"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("broken delta chain: rank0/dense/w @6"),
              std::string::npos)
        << text;
    // Generations 4-6 lose the non-expert shard at their own iteration, so
    // none of them is a restart target; restart degrades to generation 3.
    EXPECT_NE(text.find("repairable: restart will degrade to generation 3"),
              std::string::npos)
        << text;

    std::ifstream jf(json);
    const std::string jtext((std::istreambuf_iterator<char>(jf)),
                            std::istreambuf_iterator<char>());
    // Chains report newest-first: @6 (base 5) then @5 (base 4).
    EXPECT_NE(jtext.find("\"delta_chain_breaks\": [{\"key\": "
                         "\"rank0/dense/w\", \"iteration\": 6, \"base\": 5}, "
                         "{\"key\": \"rank0/dense/w\", \"iteration\": 5, "
                         "\"base\": 4}]"),
              std::string::npos)
        << jtext;
    EXPECT_NE(jtext.find("\"restartable_generations\": [1, 2, 3]"),
              std::string::npos)
        << jtext;

    // Degraded restore: the damaged chain falls back to generation 3
    // content for the broken key; every other key restores at 6.
    FileStore disk(dir);
    CheckpointManifest manifest;
    const auto blob = disk.Get("meta/manifest");
    ASSERT_TRUE(blob.has_value());
    manifest.LoadFromJson(std::string(blob->begin(), blob->end()));
    const auto restore = PlanClusterRestore(manifest);
    ASSERT_TRUE(restore.has_value());
    EXPECT_EQ(restore->generation, 6U);
    const auto result = ExecuteClusterRestore(manifest, disk, *restore);
    EXPECT_TRUE(result.damaged.empty());
    ASSERT_EQ(result.degraded.size(), 1U);
    EXPECT_EQ(result.degraded.front().key, "rank0/dense/w");
    const auto plan_items = MixedPlan(1, 2, 4 * kMiB).Items(0);
    for (const auto& item : plan_items) {
        const std::string key = "rank0/" + item.key;
        const std::size_t at = item.key == "dense/w" ? 3 : 6;
        EXPECT_EQ(result.blobs.at(key), ChurnedBytes(item, at)) << key;
    }
    fs::remove_all(dir);
}

// ---------- soak ----------

TEST(DeltaSoak, TwentyFiveSeedsMixDeltasWithFaultChurn) {
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
        PersistentStore store({.write_bandwidth = 1e9, .read_bandwidth = 1e9,
                               .latency = 0.0});
        FaultyStore faulty(store, seed);
        ClusterEngineOptions opt;
        opt.delta = true;
        opt.delta_chunk_bytes = 64;
        opt.max_delta_chain = 1 + seed % 4;
        ClusterCheckpointEngine engine(faulty, 2, FastCost(), opt);
        const auto plan = MixedPlan(2, 3, 1 * kMiB);  // 1 KiB blobs

        // Mutable per-key state: each event leaves some shards untouched
        // (dedup), nudges some by a chunk (delta), and rewrites some
        // (full), then randomly injects write faults that tear the event.
        std::map<std::string, Blob> state;
        for (RankId r = 0; r < 2; ++r) {
            for (const auto& item : plan.Items(r)) {
                state[item.key] = SyntheticShardBytes(item, seed + 1);
            }
        }
        std::map<std::size_t, std::map<std::string, Blob>> sealed_content;
        std::size_t last_sealed = 0;
        const std::size_t events = 6 + seed % 3;
        for (std::size_t gen = 1; gen <= events; ++gen) {
            for (auto& [key, blob] : state) {
                const double roll = rng.Uniform();
                if (roll < 0.3) {
                    continue;  // unchanged -> dedup
                }
                if (roll < 0.45) {  // full rewrite
                    for (auto& byte : blob) {
                        byte = static_cast<std::uint8_t>(rng.Next());
                    }
                    continue;
                }
                const std::size_t chunk =
                    rng.UniformInt(std::max<std::size_t>(1, blob.size() / 64));
                for (std::size_t i = chunk * 64;
                     i < std::min(blob.size(), (chunk + 1) * 64); ++i) {
                    blob[i] ^= static_cast<std::uint8_t>(1 + rng.Next() % 255);
                }
            }
            if (rng.Uniform() < 0.25) {
                StorageFaultProfile profile;
                profile.put_transient_error = 0.5;
                faulty.Arm(profile);
            }
            const BlobProvider provider = [&state](const ShardItem& item) {
                return state.at(item.key);
            };
            const auto stats = engine.Execute(plan, provider, gen);
            faulty.Disarm();
            if (stats.sealed) {
                sealed_content[gen] = state;
                last_sealed = gen;
            }
        }
        ASSERT_GT(last_sealed, 0U) << "seed " << seed;

        // Whatever mix of fulls, deltas, refs, and torn generations the
        // seed produced, restore must reproduce the last *sealed* content
        // byte-for-byte.
        const auto restore = PlanClusterRestore(engine.manifest());
        ASSERT_TRUE(restore.has_value()) << "seed " << seed;
        EXPECT_EQ(restore->generation, last_sealed) << "seed " << seed;
        const auto result =
            ExecuteClusterRestore(engine.manifest(), store, *restore);
        EXPECT_TRUE(result.damaged.empty()) << "seed " << seed;
        const auto& expected = sealed_content.at(last_sealed);
        for (RankId r = 0; r < 2; ++r) {
            for (const auto& item : plan.Items(r)) {
                const std::string key =
                    "rank" + std::to_string(r) + "/" + item.key;
                ASSERT_TRUE(result.blobs.count(key))
                    << "seed " << seed << " " << key;
                EXPECT_EQ(result.blobs.at(key), expected.at(item.key))
                    << "seed " << seed << " " << key;
            }
        }
    }
}

}  // namespace
}  // namespace moc
