/**
 * @file
 * train_facade: the paper's user-facing loop through the MocCheckpointSystem
 * facade. The benchmark drives TrainBackward -> RecordRouting -> Adam::Step,
 * a Checkpoint every kCheckpointEvery iterations and RecoverFromFault on a
 * seeded node-failure schedule, persisting to a memory-backed store (see
 * workloads.h). The model and PEC settings follow
 * examples/pretrain_with_faults (16 experts, k_persist = 1 < N). Blobs are
 * KB-sized, so O_save is the facade's per-shard bookkeeping: ~83 store
 * calls per event, including the gen/<iter>/ twin of every shard;
 * training compute sets the denominator of train_iters_per_s.
 */

#include <cstring>
#include <vector>

#include "core/moc_system.h"
#include "data/corpus.h"
#include "dist/topology.h"
#include "harness/workloads.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "storage/memory_store.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/** Net training iterations per episode. */
constexpr std::size_t kIterations = 96;
constexpr std::size_t kCheckpointEvery = 4;
constexpr std::size_t kFaultsPerEpisode = 2;

moc::LmConfig
ModelConfig(std::uint64_t seed) {
    moc::LmConfig cfg;
    cfg.vocab = 64;
    cfg.max_seq = 16;
    cfg.hidden = 32;
    cfg.num_heads = 2;
    cfg.head_dim = 16;
    cfg.num_layers = 4;
    cfg.num_experts = 16;
    cfg.seed = seed;
    return cfg;
}

struct Fault {
    std::size_t iteration = 0;
    moc::NodeId node = 0;
    /** Fires once; the replay after recovery passes the iteration again. */
    bool fired = false;
};

/**
 * The fault schedule: node failures at fixed iterations, each one step
 * after a checkpoint so every recovery replays the same amount of work;
 * the seed picks the failed nodes.
 */
std::vector<Fault>
FaultSchedule(std::uint64_t seed, std::size_t nodes) {
    moc::Rng rng(seed ^ 0xFA17ULL);
    std::vector<Fault> faults;
    for (std::size_t f = 1; f <= kFaultsPerEpisode; ++f) {
        const std::size_t iter =
            f * kIterations / (kFaultsPerEpisode + 1) + 1;
        faults.push_back({.iteration = iter,
                          .node = static_cast<moc::NodeId>(
                              rng.UniformInt(nodes))});
    }
    return faults;
}

/** Serialized weights and Adam moments of every parameter group. */
std::vector<moc::Blob>
SerializeGroups(moc::MoeTransformerLm& model) {
    std::vector<moc::Blob> blobs;
    for (const auto& group : model.ParameterGroups()) {
        blobs.push_back(moc::SerializeParamList(group.params, true));
        blobs.push_back(moc::SerializeParamList(group.params, false));
    }
    return blobs;
}

struct Phase {
    EpisodeFigures figures;
    std::uint64_t logical_bytes = 0;
    std::uint64_t checkpoint_put_bytes = 0;
    StoreCounts counts;
    std::size_t degraded = 0;
    std::size_t fallbacks = 0;
    std::vector<Span> spans;
    /** Serialized groups after the first traced episode: kernel-rate input. */
    std::vector<moc::Blob> kernel_blobs;
    double serialize_gbps = 0.0;
    /** Per-step (iteration, loss) of the first episode, the reference. */
    std::vector<std::pair<std::size_t, double>> losses;
};

double
SerializeRate(moc::MoeTransformerLm& model) {
    const auto groups = model.ParameterGroups();
    std::uint64_t bytes = 0;
    const std::int64_t start = NowNs();
    do {
        for (const auto& group : groups) {
            bytes += moc::SerializeParamList(group.params, true).size();
            bytes += moc::SerializeParamList(group.params, false).size();
        }
    } while (SecondsSince(start) < 0.1);
    return static_cast<double>(bytes) / SecondsSince(start) / 1e9;
}

bool
SameLosses(const std::vector<std::pair<std::size_t, double>>& a,
           const std::vector<std::pair<std::size_t, double>>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first ||
            std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/** One episode: a fresh store, model and facade trained for kIterations
    net iterations. */
void
RunEpisode(const RunOptions& options, std::size_t episode,
           SpanRecorder& recorder, Phase& phase, Report& report) {
    const std::int64_t setup_start = NowNs();
    moc::MemoryStore backend;
    RecordingStore store(backend, recorder);
    const moc::LmConfig model_cfg = ModelConfig(options.seed);
    moc::CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = model_cfg.vocab;
    corpus_cfg.seed = options.seed;
    const moc::ZipfMarkovCorpus corpus(corpus_cfg);
    const moc::LmBatchStream train(corpus, 8, model_cfg.max_seq, 0);
    moc::MoeTransformerLm model(model_cfg);
    moc::AdamConfig adam_cfg;
    adam_cfg.lr = 3e-3;
    moc::Adam adam(adam_cfg);
    const auto params = model.AllParameters();
    moc::MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 1;
    cfg.i_ckpt = kCheckpointEvery;
    cfg.two_level_recovery = true;
    cfg.dynamic_k = true;
    cfg.persist_backend = &store;
    const moc::RankTopology topology({.dp = 16, .ep = 16, .tp = 1, .pp = 1},
                                     8);
    const moc::ExtraState initial{0, 0, model.gating_rng().GetState()};
    moc::MocCheckpointSystem system(cfg, model, topology,
                                    model_cfg.ToModelSpec(), initial);
    const double setup_s = SecondsSince(setup_start);
    recorder.Clear();

    if (phase.logical_bytes == 0) {
        for (const auto& blob : SerializeGroups(model)) {
            phase.logical_bytes += blob.size();
        }
    }
    std::vector<Fault> faults =
        FaultSchedule(options.seed, topology.num_nodes());
    std::vector<std::pair<std::size_t, double>> losses;
    std::vector<double> save_ms;
    std::vector<double> restore_ms;
    const StoreCounts before = store.counts();
    const std::int64_t loop_start = NowNs();
    std::size_t iter = 0;
    while (iter < kIterations) {
        const moc::LmBatch batch = train.Get(iter);
        double loss = 0.0;
        {
            const ScopedSpan span(&recorder, "nn.train_backward");
            loss = model.TrainBackward(batch);
        }
        {
            const ScopedSpan span(&recorder, "core.record_routing");
            system.RecordRouting(model.MoeLayers());
        }
        {
            const ScopedSpan span(&recorder, "nn.adam_step");
            adam.Step(params);
        }
        ++iter;
        losses.emplace_back(iter, loss);
        if (system.ShouldCheckpoint(iter)) {
            const moc::ExtraState extra{iter, adam.step_count(),
                                        model.gating_rng().GetState()};
            const std::uint64_t put_before = store.counts().put_bytes;
            const std::int64_t start = NowNs();
            {
                const ScopedSpan span(&recorder, "core.checkpoint");
                system.Checkpoint(iter, extra);
            }
            save_ms.push_back(SecondsSince(start) * 1e3);
            phase.checkpoint_put_bytes +=
                store.counts().put_bytes - put_before;
            report.Check(true, "");  // a failed Checkpoint() throws
        }
        for (auto& fault : faults) {
            if (fault.fired || fault.iteration != iter) {
                continue;
            }
            fault.fired = true;
            const std::int64_t start = NowNs();
            moc::RecoveryReport recovery;
            {
                const ScopedSpan span(&recorder, "core.recover");
                recovery = system.RecoverFromFault({fault.node});
            }
            restore_ms.push_back(SecondsSince(start) * 1e3);
            phase.degraded += recovery.degraded.size();
            phase.fallbacks += recovery.generation_fallbacks;
            const bool ok = recovery.degraded.empty() &&
                            recovery.generation_fallbacks == 0;
            report.Check(ok, "recovery at iteration " +
                                 std::to_string(iter) + " degraded " +
                                 std::to_string(recovery.degraded.size()) +
                                 " key(s), fell back " +
                                 std::to_string(
                                     recovery.generation_fallbacks) +
                                 " generation(s)");
            adam.set_step_count(recovery.extra.adam_step);
            model.gating_rng().SetState(recovery.extra.gating_rng);
            iter = recovery.extra.iteration;
            break;
        }
    }
    const double logical = static_cast<double>(phase.logical_bytes);
    phase.figures.Add(setup_s, save_ms,
                      logical * static_cast<double>(save_ms.size()),
                      restore_ms,
                      logical * static_cast<double>(restore_ms.size()),
                      kIterations, SecondsSince(loop_start));
    phase.counts += store.counts() - before;
    const auto spans = recorder.Spans();
    phase.spans.insert(phase.spans.end(), spans.begin(), spans.end());
    recorder.Clear();

    // Same seed, same arithmetic: every episode must retrace the first
    // one's per-step loss bit for bit, replays after recovery included.
    if (phase.losses.empty()) {
        phase.losses = std::move(losses);
    } else {
        report.Check(SameLosses(phase.losses, losses),
                     "episode " + std::to_string(episode) +
                         " per-step loss differs from episode 0 (same "
                         "seed)");
    }
    if (recorder.enabled() && phase.kernel_blobs.empty()) {
        phase.kernel_blobs = SerializeGroups(model);
        phase.serialize_gbps = SerializeRate(model);
    }
}

Phase
RunPhase(const RunOptions& options, double seconds, std::size_t min_saves,
         bool traced, Report& report) {
    SpanRecorder recorder(traced);
    Phase phase;
    const std::int64_t start = NowNs();
    std::size_t episode = 0;
    while (episode == 0 || SecondsSince(start) < seconds ||
           phase.figures.save_ms().size() < min_saves) {
        RunEpisode(options, episode++, recorder, phase, report);
    }
    return phase;
}

}  // namespace

Report
RunTrainFacade(const RunOptions& options) {
    Report report;
    if (!options.trace) {
        const Phase p =
            RunPhase(options, options.seconds, kMinSaveSamples, false, report);
        const double saves = static_cast<double>(p.figures.save_ms().size());
        const double logical = static_cast<double>(p.logical_bytes);
        p.figures.AddTo(report);
        report.Add("bytes_per_logical_byte", "ratio",
                   static_cast<double>(p.checkpoint_put_bytes) /
                       (logical * saves));
        report.Add("peak_rss_mb", "MiB", PeakRssMb());
        return report;
    }
    const Phase untraced = RunPhase(options, options.seconds / 2, 0, false, report);
    const Phase p = RunPhase(options, options.seconds / 2, 0, true, report);
    const auto spans = AggregateSpans(p.spans);
    const std::size_t saves = p.figures.save_ms().size();
    AddKernelRates(report, p.kernel_blobs, 64 * moc::kKiB);
    AddStoreLayer(report, spans, p.counts, saves);
    report.Add("core.checkpoint_self_ms", "ms",
               MedianMs(spans, "core.checkpoint", true), saves);
    report.Add("core.recover_ms", "ms", MedianMs(spans, "core.recover"),
               p.figures.restores());
    report.Add("core.degraded_keys", "count", static_cast<double>(p.degraded));
    report.Add("core.generation_fallbacks", "count",
               static_cast<double>(p.fallbacks));
    report.Add("core.serialize_gbps", "GB/s", p.serialize_gbps);
    const std::size_t steps = spans.at("nn.train_backward").duration_ms.size();
    report.Add("nn.train_backward_ms_p50", "ms",
               MedianMs(spans, "nn.train_backward"), steps);
    report.Add("nn.adam_step_ms_p50", "ms", MedianMs(spans, "nn.adam_step"),
               steps);
    report.Add("core.record_routing_ms_p50", "ms",
               MedianMs(spans, "core.record_routing"), steps);
    AddTraceOverhead(report, Percentile(untraced.figures.save_ms(), 0.5),
                     Percentile(p.figures.save_ms(), 0.5), p.spans.size());
    return report;
}

}  // namespace perfbench
