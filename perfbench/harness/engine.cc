/**
 * @file
 * engine_pec and engine_hot_delta: four in-process ranks checkpointing
 * real-size shards through ClusterCheckpointEngine into a memory-backed
 * store (see workloads.h), with
 * periodic PlanClusterRestore + ExecuteClusterRestore of the newest
 * sealed generation.
 *
 * engine_pec: dedup on, delta off. Each event rewrites every rank's dense
 * shard and kPecChangedExperts of its experts; the rest stay
 * bit-identical and dedup to a hash-only reference.
 *
 * engine_hot_delta: dedup and delta on, 8 KiB chunks. Each event changes
 * ~1% of every shard's chunks, so every shard goes the delta path and all
 * logical bytes are hashed while little is written. max_delta_chain = 4
 * forces a full write every fifth event: 20% of save samples are
 * forced-full events, which puts save_ms_p90 inside that class and well
 * away from the 80% boundary (at 1-in-9, the default chain bound, p90
 * would sit on the boundary and flip between classes run to run).
 */

#include <malloc.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ckpt/cluster_engine.h"
#include "core/cluster_recovery.h"
#include "harness/workloads.h"
#include "storage/memory_store.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kRanks = 4;
constexpr std::size_t kExpertsPerRank = 8;
constexpr std::size_t kExpertBytes = 512 * moc::kKiB;
constexpr std::size_t kDenseBytes = 1 * moc::kMiB;
constexpr std::size_t kPecChangedExperts = 1;
constexpr std::size_t kDeltaChunkBytes = 8 * moc::kKiB;
constexpr std::size_t kMaxDeltaChain = 4;
/** Checkpoint events per episode after the initial full checkpoint. */
constexpr std::size_t kEventsPerEpisode = 20;
/** A restore after every 4th event: with the 5-event delta period the
    restores land at chain depths 4, 3, 2, 1 and 0. */
constexpr std::size_t kRestoreEvery = 4;

void
FillRandom(moc::Rng& rng, std::uint8_t* data, std::size_t len) {
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const std::uint64_t word = rng.Next();
        std::memcpy(data + i, &word, 8);
    }
    for (; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(rng.Next());
    }
}

/** The live model state the ranks checkpoint: one blob per shard item. */
class LiveState {
  public:
    LiveState(std::uint64_t seed, bool hot_delta)
        : rng_(seed), hot_delta_(hot_delta), plan_(kRanks) {
        for (std::size_t r = 0; r < kRanks; ++r) {
            Add(r, "dense/" + std::to_string(r), kDenseBytes);
            for (std::size_t e = 0; e < kExpertsPerRank; ++e) {
                Add(r,
                    "expert/" + std::to_string(r * kExpertsPerRank + e) + "/w",
                    kExpertBytes);
            }
        }
    }

    const moc::ShardPlan& plan() const { return plan_; }
    const std::map<std::string, moc::Blob>& blobs() const { return blobs_; }
    std::uint64_t logical_bytes() const { return logical_bytes_; }

    /** A copy of the item's current bytes: the rank's serialization. */
    moc::BlobProvider Provider() const {
        return [this](const moc::ShardItem& item) {
            return blobs_.at(item.key);
        };
    }

    /** Trains one step's worth of change into the state. */
    void Mutate() {
        for (std::size_t r = 0; r < kRanks; ++r) {
            const auto& items = plan_.Items(r);
            if (hot_delta_) {
                for (const auto& item : items) {
                    FlipChunks(blobs_.at(item.key));
                }
                continue;
            }
            // items[0] is the dense shard; the rest are this rank's experts.
            Rewrite(blobs_.at(items[0].key));
            for (std::size_t k = 0; k < kPecChangedExperts; ++k) {
                const std::size_t e = 1 + rng_.UniformInt(items.size() - 1);
                Rewrite(blobs_.at(items[e].key));
            }
        }
    }

  private:
    void Add(std::size_t rank, const std::string& key, std::size_t bytes) {
        plan_.Add(rank, {key, bytes, false});
        moc::Blob blob(bytes);
        FillRandom(rng_, blob.data(), blob.size());
        blobs_.emplace(key, std::move(blob));
        logical_bytes_ += bytes;
    }

    void Rewrite(moc::Blob& blob) {
        FillRandom(rng_, blob.data(), blob.size());
    }

    /** Changes ~1% of the blob's delta chunks (at least one). */
    void FlipChunks(moc::Blob& blob) {
        const std::size_t chunks = blob.size() / kDeltaChunkBytes;
        const std::size_t flips = std::max<std::size_t>(chunks / 100, 1);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t c = rng_.UniformInt(chunks);
            const std::size_t at =
                c * kDeltaChunkBytes + rng_.UniformInt(kDeltaChunkBytes / 8) * 8;
            const std::uint64_t word = rng_.Next() | 1U;
            for (std::size_t b = 0; b < 8; ++b) {
                blob[at + b] ^= static_cast<std::uint8_t>(word >> (8 * b));
            }
        }
    }

    moc::Rng rng_;
    bool hot_delta_;
    moc::ShardPlan plan_;
    std::map<std::string, moc::Blob> blobs_;
    std::uint64_t logical_bytes_ = 0;
};

/** Everything one phase measured. */
struct Phase {
    EpisodeFigures figures;
    std::uint64_t saved_logical = 0;
    StoreCounts counts;
    std::vector<moc::ClusterRunStats> stats;
    std::size_t degraded = 0;
    std::size_t fallbacks = 0;
    std::vector<Span> spans;
    /** The live shards after the first traced episode: kernel-rate input. */
    std::vector<moc::Blob> kernel_blobs;
};

/**
 * Restores the newest sealed generation and checks it against @p live;
 * returns the restore's wall time in ms.
 */
double
RestoreAndCheck(const moc::ClusterCheckpointEngine& engine,
                const moc::ObjectStore& store, const LiveState& live,
                std::size_t iteration, SpanRecorder& recorder, Phase& phase,
                Report& report) {
    const std::int64_t start = NowNs();
    std::optional<moc::ClusterRestorePlan> plan;
    {
        const ScopedSpan span(&recorder, "core.plan_restore");
        plan = moc::PlanClusterRestore(engine.manifest());
    }
    moc::ClusterRestoreResult result;
    if (plan) {
        const ScopedSpan span(&recorder, "core.exec_restore");
        result = moc::ExecuteClusterRestore(engine.manifest(), store, *plan);
    }
    const double ms = SecondsSince(start) * 1e3;

    bool ok = plan.has_value() && plan->generation == iteration &&
              plan->missing.empty() && result.damaged.empty() &&
              result.degraded.empty() &&
              result.blobs.size() == live.blobs().size();
    if (plan) {
        phase.degraded += result.degraded.size();
        phase.fallbacks += plan->generation == iteration ? 0 : 1;
    }
    for (std::size_t r = 0; ok && r < kRanks; ++r) {
        for (const auto& item : live.plan().Items(r)) {
            const auto it =
                result.blobs.find("rank" + std::to_string(r) + "/" + item.key);
            if (it == result.blobs.end() ||
                it->second != live.blobs().at(item.key)) {
                ok = false;
                break;
            }
        }
    }
    report.Check(ok, "restore of generation " + std::to_string(iteration) +
                         " is not byte-identical to the live state");
    return ms;
}

/** One episode: a fresh store and engine, then kEventsPerEpisode events. */
void
RunEpisode(const RunOptions& options, bool hot_delta, SpanRecorder& recorder,
           Phase& phase, Report& report) {
    const std::int64_t setup_start = NowNs();
    moc::MemoryStore backend;
    RecordingStore store(backend, recorder);
    LiveState live(options.seed, hot_delta);
    moc::AgentCostModel cost;
    cost.time_scale = 0.0;
    moc::ClusterEngineOptions engine_options;
    engine_options.dedup = true;
    engine_options.delta = hot_delta;
    engine_options.delta_chunk_bytes = kDeltaChunkBytes;
    engine_options.max_delta_chain = kMaxDeltaChain;
    moc::ClusterCheckpointEngine engine(store, kRanks, cost,
                                        engine_options);
    const moc::BlobProvider provider = live.Provider();
    std::size_t iteration = 1;
    const moc::ClusterRunStats initial =
        engine.Execute(live.plan(), provider, iteration);
    const double setup_s = SecondsSince(setup_start);
    report.Check(initial.sealed, "initial checkpoint did not seal");
    recorder.Clear();

    std::vector<double> save_ms;
    std::vector<double> restore_ms;
    std::size_t sealed = 0;
    const StoreCounts before = store.counts();
    const std::int64_t loop_start = NowNs();
    for (std::size_t e = 1; e <= kEventsPerEpisode; ++e) {
        live.Mutate();
        ++iteration;
        const std::int64_t start = NowNs();
        moc::ClusterRunStats stats;
        {
            const ScopedSpan span(&recorder, "ckpt.execute");
            stats = engine.Execute(live.plan(), provider, iteration);
        }
        save_ms.push_back(SecondsSince(start) * 1e3);
        sealed += stats.sealed ? 1 : 0;
        report.Check(stats.sealed, "generation " +
                                       std::to_string(iteration) +
                                       " did not seal");
        phase.stats.push_back(stats);
        if (e % kRestoreEvery == 0) {
            restore_ms.push_back(RestoreAndCheck(engine, store, live,
                                                 iteration, recorder, phase,
                                                 report));
        }
    }
    const double logical = static_cast<double>(live.logical_bytes());
    phase.figures.Add(setup_s, save_ms,
                      logical * static_cast<double>(save_ms.size()),
                      restore_ms,
                      logical * static_cast<double>(restore_ms.size()),
                      static_cast<double>(sealed), SecondsSince(loop_start));
    phase.saved_logical += live.logical_bytes() * save_ms.size();
    phase.counts += store.counts() - before;
    const auto spans = recorder.Spans();
    phase.spans.insert(phase.spans.end(), spans.begin(), spans.end());
    recorder.Clear();
    if (recorder.enabled() && phase.kernel_blobs.empty()) {
        for (const auto& [key, blob] : live.blobs()) {
            phase.kernel_blobs.push_back(blob);
        }
    }
}

Phase
RunPhase(const RunOptions& options, bool hot_delta, double seconds,
         std::size_t min_saves, bool traced, Report& report) {
    SpanRecorder recorder(traced);
    Phase phase;
    const std::int64_t start = NowNs();
    do {
        RunEpisode(options, hot_delta, recorder, phase, report);
        // Return the episode's freed store to the system, so every
        // episode's peak starts from the same heap and peak_rss_mb does
        // not depend on how earlier episodes fragmented it.
        ::malloc_trim(0);
    } while (SecondsSince(start) < seconds ||
             phase.figures.save_ms().size() < min_saves);
    return phase;
}

template <typename F>
double
MeanOf(const std::vector<moc::ClusterRunStats>& stats, F field) {
    double sum = 0.0;
    for (const auto& s : stats) {
        sum += static_cast<double>(field(s));
    }
    return stats.empty() ? 0.0 : sum / static_cast<double>(stats.size());
}

}  // namespace

Report
RunEngine(const RunOptions& options, bool hot_delta) {
    Report report;
    if (!options.trace) {
        const Phase p = RunPhase(options, hot_delta, options.seconds,
                                 kMinSaveSamples, false, report);
        p.figures.AddTo(report);
        report.Add("bytes_per_logical_byte", "ratio",
                   static_cast<double>(p.counts.put_bytes) /
                       static_cast<double>(p.saved_logical));
        report.Add("peak_rss_mb", "MiB", PeakRssMb());
        return report;
    }
    const Phase untraced =
        RunPhase(options, hot_delta, options.seconds / 2, 0, false, report);
    const Phase p =
        RunPhase(options, hot_delta, options.seconds / 2, 0, true, report);
    const auto spans = AggregateSpans(p.spans);
    const std::size_t events = p.figures.save_ms().size();
    AddKernelRates(report, p.kernel_blobs, kDeltaChunkBytes);
    AddStoreLayer(report, spans, p.counts, events);
    report.Add("ckpt.execute_self_ms", "ms",
               MedianMs(spans, "ckpt.execute", true), events);
    std::vector<double> snapshot_ms;
    std::vector<double> barrier_ms;
    for (const auto& s : p.stats) {
        snapshot_ms.push_back(s.snapshot_makespan * 1e3);
        barrier_ms.push_back(s.barrier_wait * 1e3);
    }
    report.Add("ckpt.snapshot_ms", "ms", Percentile(snapshot_ms, 0.5), events);
    report.Add("ckpt.barrier_wait_ms", "ms", Percentile(barrier_ms, 0.5),
               events);
    report.Add("ckpt.keys_written", "count/event",
               MeanOf(p.stats, [](const auto& s) { return s.keys_persisted; }));
    report.Add("ckpt.keys_deduped", "count/event",
               MeanOf(p.stats, [](const auto& s) { return s.keys_deduped; }));
    report.Add("ckpt.keys_delta", "count/event",
               MeanOf(p.stats, [](const auto& s) { return s.keys_delta; }));
    report.Add("ckpt.forced_full", "count/event",
               MeanOf(p.stats, [](const auto& s) { return s.forced_full; }));
    report.Add("ckpt.dedup_hit_ratio", "ratio",
               MeanOf(p.stats, [](const auto& s) { return s.keys_deduped; }) /
                   static_cast<double>(kRanks * (kExpertsPerRank + 1)));
    report.Add("core.plan_restore_ms", "ms", MedianMs(spans, "core.plan_restore"),
               p.figures.restores());
    report.Add("core.exec_restore_self_ms", "ms",
               MedianMs(spans, "core.exec_restore", true), p.figures.restores());
    report.Add("core.degraded_keys", "count", static_cast<double>(p.degraded));
    report.Add("core.generation_fallbacks", "count",
               static_cast<double>(p.fallbacks));
    AddTraceOverhead(report, Percentile(untraced.figures.save_ms(), 0.5),
                     Percentile(p.figures.save_ms(), 0.5), p.spans.size());
    if (!hot_delta) {
        AddFleetNetLayer(options, report);
    }
    return report;
}

}  // namespace perfbench
