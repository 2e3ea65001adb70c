#include "core/cluster_recovery.h"

#include <set>

#include "obs/trace.h"
#include "storage/delta_codec.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace moc {

namespace {

/** Ceiling on ref/delta indirections while reconstructing one version —
    far above any real chain (max_delta_chain defaults to 8); guards
    against a corrupted manifest sending the walk in circles. */
constexpr std::size_t kMaxChainDepth = 64;

/**
 * Reconstructs one manifest-recorded version's logical bytes and verifies
 * them against the record:
 *
 *  - a dedup ref recurses into the referenced iteration's version; the
 *    bytes are re-hashed only when the ref's record differs from the
 *    base's, since the recursion already checked them against the base;
 *  - a delta version reads its record at DeltaShardKey (verified against
 *    the record's physical delta_bytes/delta_crc), recursively
 *    reconstructs the base iteration, and applies the delta;
 *  - a full version reads the versioned shard key (or the plain
 *    latest-wins key, for pre-protocol blobs).
 *
 * Every path ends with the logical (size, CRC-32C) check, so a chain whose
 * base is damaged — or whose manifest entry went missing — yields nullopt
 * and the caller falls back down the key's verified chain.
 */
std::optional<Blob>
ReconstructVerified(const CheckpointManifest& manifest, const ObjectStore& store,
                    const std::string& key, const PersistVersion& version,
                    std::size_t depth = 0) {
    if (depth >= kMaxChainDepth) {
        return std::nullopt;
    }
    const auto logical_ok = [&version](const Blob& blob) {
        return blob.size() == version.bytes &&
               Crc32c(blob.data(), blob.size()) == version.crc;
    };
    if (version.ref.has_value()) {
        const auto base = manifest.FindPersistVersion(key, *version.ref);
        if (base.has_value() && !base->ref.has_value()) {
            auto blob =
                ReconstructVerified(manifest, store, key, *base, depth + 1);
            // The base's bytes passed the base record's (size, CRC-32C)
            // check; hash them again only if the ref records another one.
            const bool same_record =
                base->bytes == version.bytes && base->crc == version.crc;
            if (blob.has_value() && (same_record || logical_ok(*blob))) {
                return blob;
            }
        }
        // Fall through: older manifests recorded refs without keeping the
        // base entry reachable; try the physical blob directly.
    } else if (version.is_delta()) {
        try {
            const auto record =
                store.Get(DeltaShardKey(key, version.iteration));
            if (!record.has_value() || record->size() != version.delta_bytes ||
                Crc32c(record->data(), record->size()) != version.delta_crc) {
                return std::nullopt;
            }
            const auto base =
                manifest.FindPersistVersion(key, *version.delta_base);
            if (!base.has_value()) {
                return std::nullopt;
            }
            auto base_blob =
                ReconstructVerified(manifest, store, key, *base, depth + 1);
            if (!base_blob.has_value()) {
                return std::nullopt;
            }
            Blob blob = ApplyDelta(*record, std::move(*base_blob));
            if (logical_ok(blob)) {
                return blob;
            }
        } catch (const std::exception&) {
            // Typed corruption from the backend, or a malformed record
            // (ParseDelta/ApplyDelta throw): the chain is broken here.
        }
        return std::nullopt;
    }
    const std::string sources[] = {
        VersionedShardKey(key, version.PhysicalIteration()), key};
    for (const auto& source : sources) {
        try {
            auto blob = store.Get(source);
            if (blob.has_value() && logical_ok(*blob)) {
                return blob;
            }
        } catch (const std::runtime_error&) {
            // Typed corruption from the backend; try the next candidate.
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<ClusterRestorePlan>
PlanClusterRestore(const CheckpointManifest& manifest,
                   std::optional<std::size_t> max_iteration,
                   const RankRemap* remap) {
    for (const std::size_t generation : manifest.EligibleGenerations()) {
        if (max_iteration.has_value() && generation > *max_iteration) {
            continue;
        }
        ClusterRestorePlan plan;
        plan.generation = generation;
        std::set<std::string> targets;
        for (const auto& key : manifest.KeysAt(StoreLevel::kPersist)) {
            const auto chain = manifest.PersistFallbackChain(key, generation);
            if (chain.empty()) {
                plan.missing.push_back(key);
                continue;
            }
            const std::string target =
                remap != nullptr ? remap->Apply(key) : key;
            if (!targets.insert(target).second) {
                // Two source keys landed on one survivor key; keep the
                // first (deterministic: KeysAt is sorted) and surface the
                // loser rather than silently dropping bytes.
                plan.missing.push_back(key);
                continue;
            }
            const PersistVersion& chosen = chain.front();
            plan.shards.push_back(ShardRestorePlan{
                key, target, chosen.iteration,
                chosen.is_delta()
                    ? DeltaShardKey(key, chosen.iteration)
                    : VersionedShardKey(key, chosen.PhysicalIteration()),
                chosen.crc, chosen.bytes});
            if (chosen.iteration != generation) {
                plan.degraded.push_back(
                    {key, generation, chosen.iteration,
                     "no usable version at the target generation"});
            }
        }
        return plan;
    }
    return std::nullopt;
}

ClusterRestoreResult
ExecuteClusterRestore(const CheckpointManifest& manifest,
                      const ObjectStore& store, const ClusterRestorePlan& plan) {
    // Restore spans carry the generation being restored, so a recovery
    // shows up as its own lane in the flight recorder.
    obs::TraceContext ctx;
    ctx.generation = plan.generation;
    ctx.iteration = plan.generation;
    ctx.phase = "restore";
    const obs::TraceContextScope ctx_scope(ctx);
    const obs::TraceSpan span("cluster.restore", "cluster");
    ClusterRestoreResult result;
    result.generation = plan.generation;
    for (const auto& shard : plan.shards) {
        std::optional<Blob> blob;
        std::size_t restored_iteration = shard.iteration;
        for (const auto& version :
             manifest.PersistFallbackChain(shard.key, plan.generation)) {
            blob = ReconstructVerified(manifest, store, shard.key, version);
            if (blob.has_value()) {
                restored_iteration = version.iteration;
                break;
            }
        }
        if (!blob.has_value()) {
            result.damaged.push_back(shard.key);
            MOC_WARN << "cluster restore: every candidate of " << shard.key
                     << " failed verification";
            continue;
        }
        if (restored_iteration != shard.iteration) {
            result.degraded.push_back(
                {shard.key, shard.iteration, restored_iteration,
                 "planned version damaged; restored older verified version"});
        }
        result.bytes_read += blob->size();
        result.blobs.emplace(
            shard.target_key.empty() ? shard.key : shard.target_key,
            std::move(*blob));
        ++result.shards_restored;
    }
    return result;
}

}  // namespace moc
