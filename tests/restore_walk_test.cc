/**
 * @file
 * ExecuteClusterRestore's verified walk over a 20-shard plan of delta
 * chains: the result equals one single-shard restore per plan entry, in
 * content and order, when blobs are damaged and delta links broken at
 * several plan positions; injected read faults degrade or damage a shard
 * but never return wrong bytes; and an exception the walk cannot absorb
 * as damage reaches the caller. Part of the TSan suite.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/cluster_engine.h"
#include "core/cluster_recovery.h"
#include "storage/delta_codec.h"
#include "storage/faulty_store.h"
#include "storage/manifest.h"
#include "storage/memory_store.h"

namespace moc {
namespace {

constexpr std::size_t kRanks = 4;
constexpr std::size_t kExpertsPerRank = 4;
constexpr std::size_t kGenerations = 5;

/** Hot-shard bytes at @p version: one 64-byte chunk more changes per step. */
Blob
VersionBytes(const ShardItem& item, std::size_t version) {
    Blob blob = SyntheticShardBytes(item, 1);
    const std::size_t chunks = std::max<std::size_t>(1, blob.size() / 64);
    for (std::size_t v = 2; v <= version; ++v) {
        const std::size_t off = ((v * 37 + item.key.size()) % chunks) * 64;
        for (std::size_t i = 0; i < 64 && off + i < blob.size(); ++i) {
            blob[off + i] ^= static_cast<std::uint8_t>(0x5A ^ v);
        }
    }
    return blob;
}

/**
 * 4 ranks × (4 experts + 1 dense) = 20 shards, sealed at generations
 * 1..5: a full write at 1, then a delta chain 2 → 5 on every shard.
 */
class RestoreWalkFixture {
  public:
    RestoreWalkFixture() : plan_(kRanks) {
        for (RankId r = 0; r < kRanks; ++r) {
            for (std::size_t e = 0; e < kExpertsPerRank; ++e) {
                plan_.Add(r, {"expert/" + std::to_string(e) + "/w", 4 * kMiB,
                              false});
            }
            plan_.Add(r, {"dense/w", 4 * kMiB, false});
        }
        AgentCostModel cost;
        cost.time_scale = 0.0;
        ClusterEngineOptions opt;
        opt.delta = true;
        opt.delta_chunk_bytes = 64;
        engine_ = std::make_unique<ClusterCheckpointEngine>(store_, kRanks,
                                                            cost, opt);
        for (std::size_t gen = 1; gen <= kGenerations; ++gen) {
            const auto stats = engine_->Execute(
                plan_,
                [gen](const ShardItem& item) {
                    return VersionBytes(item, gen);
                },
                gen);
            EXPECT_TRUE(stats.sealed) << "generation " << gen;
        }
        for (RankId r = 0; r < kRanks; ++r) {
            for (const auto& item : plan_.Items(r)) {
                items_.emplace("rank" + std::to_string(r) + "/" + item.key,
                               item);
            }
        }
    }

    /** Flips one byte of the blob stored under @p store_key. */
    void Corrupt(const std::string& store_key) {
        auto blob = store_.Get(store_key);
        ASSERT_TRUE(blob.has_value()) << store_key;
        (*blob)[blob->size() / 2] ^= 0x10;
        store_.Put(store_key, std::move(*blob));
    }

    const CheckpointManifest& manifest() const { return engine_->manifest(); }

    ClusterRestorePlan Plan() const {
        auto plan = PlanClusterRestore(manifest());
        EXPECT_TRUE(plan.has_value());
        EXPECT_EQ(plan->generation, kGenerations);
        EXPECT_GE(plan->shards.size(), 16U);
        return *plan;
    }

    /** The bytes @p key held at generation @p version. */
    Blob Expected(const std::string& key, std::size_t version) const {
        return VersionBytes(items_.at(key), version);
    }

    MemoryStore store_;

  private:
    std::unique_ptr<ClusterCheckpointEngine> engine_;
    ShardPlan plan_;
    std::map<std::string, ShardItem> items_;
};

/** The reference: one single-shard restore per plan entry, in plan order. */
ClusterRestoreResult
PerShardRestore(const CheckpointManifest& manifest, const ObjectStore& store,
                const ClusterRestorePlan& plan) {
    ClusterRestoreResult out;
    out.generation = plan.generation;
    for (const auto& shard : plan.shards) {
        ClusterRestorePlan one = plan;
        one.shards = {shard};
        auto part = ExecuteClusterRestore(manifest, store, one);
        out.shards_restored += part.shards_restored;
        out.bytes_read += part.bytes_read;
        out.blobs.merge(part.blobs);
        out.damaged.insert(out.damaged.end(), part.damaged.begin(),
                           part.damaged.end());
        out.degraded.insert(out.degraded.end(), part.degraded.begin(),
                            part.degraded.end());
    }
    return out;
}

void
ExpectSameDegraded(const std::vector<DegradedKey>& a,
                   const std::vector<DegradedKey>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key) << i;
        EXPECT_EQ(a[i].planned_iteration, b[i].planned_iteration) << i;
        EXPECT_EQ(a[i].restored_iteration, b[i].restored_iteration) << i;
        EXPECT_EQ(a[i].reason, b[i].reason) << i;
    }
}

TEST(ClusterRestoreWalk, MatchesPerShardWalkWithDamageAtSeveralPositions) {
    RestoreWalkFixture f;
    const ClusterRestorePlan plan = f.Plan();
    const auto key_at = [&plan](std::size_t i) { return plan.shards[i].key; };
    // Damage at plan positions 0, 5, 9, 14 and 19 (first, middle, last):
    // a corrupt top link falls back to generation 4, a corrupt mid-chain
    // link to 2, a missing link to 3; a corrupt chain root, alone or with
    // a corrupt low link, leaves no verified version.
    f.Corrupt(DeltaShardKey(key_at(0), 5));
    f.Corrupt(DeltaShardKey(key_at(5), 3));
    f.Corrupt(VersionedShardKey(key_at(9), 1));
    f.store_.Erase(DeltaShardKey(key_at(14), 4));
    f.Corrupt(DeltaShardKey(key_at(19), 2));
    f.Corrupt(VersionedShardKey(key_at(19), 1));

    const auto whole = ExecuteClusterRestore(f.manifest(), f.store_, plan);
    const auto per_shard = PerShardRestore(f.manifest(), f.store_, plan);

    EXPECT_EQ(whole.generation, per_shard.generation);
    EXPECT_EQ(whole.shards_restored, per_shard.shards_restored);
    EXPECT_EQ(whole.bytes_read, per_shard.bytes_read);
    EXPECT_EQ(whole.blobs, per_shard.blobs);
    EXPECT_EQ(whole.damaged, per_shard.damaged);
    ExpectSameDegraded(whole.degraded, per_shard.degraded);

    // And the walk itself is right, not merely repeatable.
    EXPECT_EQ(whole.damaged, (std::vector<std::string>{key_at(9), key_at(19)}));
    const std::map<std::string, std::size_t> fallen_to = {
        {key_at(0), 4}, {key_at(5), 2}, {key_at(14), 3}};
    ASSERT_EQ(whole.degraded.size(), fallen_to.size());
    for (const auto& d : whole.degraded) {
        EXPECT_EQ(d.planned_iteration, kGenerations) << d.key;
        EXPECT_EQ(d.restored_iteration, fallen_to.at(d.key)) << d.key;
    }
    for (const auto& [key, blob] : whole.blobs) {
        const auto it = fallen_to.find(key);
        EXPECT_EQ(blob, f.Expected(key, it == fallen_to.end() ? kGenerations
                                                              : it->second))
            << key;
    }
    EXPECT_EQ(whole.blobs.size() + whole.damaged.size(), plan.shards.size());
}

TEST(ClusterRestoreWalk, ReadFaultsNeverReturnWrongBytes) {
    RestoreWalkFixture f;
    const ClusterRestorePlan plan = f.Plan();
    std::size_t faulted_runs = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FaultyStore faulty(f.store_, seed);
        StorageFaultProfile profile;
        profile.get_transient_error = 0.05;
        profile.read_corrupt = 0.05;
        faulty.Arm(profile);
        const auto result = ExecuteClusterRestore(f.manifest(), faulty, plan);
        faulty.Disarm();
        faulted_runs += faulty.injected().Total() > 0 ? 1 : 0;

        std::map<std::string, std::size_t> restored_from;
        for (const auto& d : result.degraded) {
            restored_from[d.key] = d.restored_iteration;
        }
        for (const auto& [key, blob] : result.blobs) {
            const auto it = restored_from.find(key);
            const std::size_t version =
                it == restored_from.end() ? kGenerations : it->second;
            EXPECT_EQ(blob, f.Expected(key, version))
                << "seed " << seed << " key " << key << " version "
                << version;
        }
        EXPECT_EQ(result.blobs.size() + result.damaged.size(),
                  plan.shards.size())
            << "seed " << seed;
    }
    // The profile is dense enough that faults land in most runs.
    EXPECT_GE(faulted_runs, 4U);
}

/** A store whose Get of selected keys throws a non-std exception. */
struct Exploded {};

class ExplodingStore final : public ObjectStore {
  public:
    ExplodingStore(const ObjectStore& base, std::string fuse)
        : base_(base), fuse_(std::move(fuse)) {}

    void Put(const std::string&, Blob) override {}
    std::optional<Blob> Get(const std::string& key) const override {
        if (key.find(fuse_) != std::string::npos) {
            throw Exploded{};
        }
        return base_.Get(key);
    }
    bool Contains(const std::string& key) const override {
        return base_.Contains(key);
    }
    void Erase(const std::string&) override {}
    std::vector<std::string> Keys() const override { return base_.Keys(); }
    Bytes TotalBytes() const override { return base_.TotalBytes(); }
    std::size_t Count() const override { return base_.Count(); }

  private:
    const ObjectStore& base_;
    std::string fuse_;
};

TEST(ClusterRestoreWalk, ForeignExceptionReachesTheCaller) {
    RestoreWalkFixture f;
    const ClusterRestorePlan plan = f.Plan();
    // One shard in the middle of the plan, then every shard at once.
    const ExplodingStore one(f.store_, plan.shards[11].key);
    EXPECT_THROW(ExecuteClusterRestore(f.manifest(), one, plan), Exploded);
    const ExplodingStore all(f.store_, "/");
    EXPECT_THROW(ExecuteClusterRestore(f.manifest(), all, plan), Exploded);
    // The store is untouched: a clean restore still succeeds afterwards.
    const auto result = ExecuteClusterRestore(f.manifest(), f.store_, plan);
    EXPECT_TRUE(result.damaged.empty());
    EXPECT_EQ(result.blobs.size(), plan.shards.size());
}

}  // namespace
}  // namespace moc
