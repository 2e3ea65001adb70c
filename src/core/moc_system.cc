#include "core/moc_system.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/expert_stats.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "tensor/serialize.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace moc {

namespace {

/** Byte/event counters shared by every checkpoint event (initial included). */
void
RecordCheckpointMetrics(const CheckpointReport& report, Seconds duration) {
    static obs::Counter& events =
        obs::MetricsRegistry::Instance().GetCounter("ckpt.events");
    static obs::Counter& snapshot_bytes =
        obs::MetricsRegistry::Instance().GetCounter("ckpt.snapshot_bytes");
    static obs::Counter& persist_bytes =
        obs::MetricsRegistry::Instance().GetCounter("ckpt.persist_bytes");
    static obs::Histogram& seconds =
        obs::MetricsRegistry::Instance().GetHistogram("ckpt.duration_seconds");
    events.Add();
    snapshot_bytes.Add(report.snapshot_bytes);
    persist_bytes.Add(report.persist_bytes);
    seconds.Observe(duration);
}

/** A CRC-32 fingerprint of the run's MocSystemConfig, as run metadata. */
std::string
ConfigDigest(const MocSystemConfig& config, const ModelSpec& spec) {
    std::ostringstream desc;
    desc << "k_snapshot=" << config.pec.k_snapshot
         << ";k_persist=" << config.pec.k_persist
         << ";pec_w=" << config.pec.pec_on_weights
         << ";pec_o=" << config.pec.pec_on_optimizer
         << ";policy=" << static_cast<int>(config.pec.policy)
         << ";i_ckpt=" << config.i_ckpt
         << ";two_level=" << config.two_level_recovery
         << ";fully_sharded=" << config.fully_sharded
         << ";dynamic_k=" << config.dynamic_k
         << ";plt_threshold=" << config.plt_threshold
         << ";moe_layers=" << spec.NumMoeLayers()
         << ";experts=" << spec.num_experts;
    const std::string s = desc.str();
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", Crc32(s.data(), s.size()));
    return hex;
}

/** Journal wall-clock pair around one checkpoint or recovery. */
Seconds
NsToSeconds(std::uint64_t begin_ns, std::uint64_t end_ns) {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
}

/** Calls @p fn on each tensor of a param-list blob, in blob order. */
template <typename Fn>
void
ForEachListedTensor(const std::vector<Parameter*>& params, bool weights,
                    Fn&& fn) {
    for (const auto* p : params) {
        if (weights) {
            fn(p->value());
        } else {
            fn(p->adam_m());
            fn(p->adam_v());
        }
    }
}

/** Checks the size-prefixed tensor record at @p in's cursor where it sits. */
TensorRecord
ReadRecord(ByteReader& in) {
    const std::uint64_t size = in.U64();
    return ParseTensorRecord(in.Raw(size), size);  // Raw bounds the size
}

bool
Contains(const std::vector<ExpertId>& list, ExpertId e) {
    return std::find(list.begin(), list.end(), e) != list.end();
}

/** Strips a "/w" or "/o" suffix from a store key. */
std::string
BaseKey(const std::string& key) {
    MOC_ASSERT(key.size() > 2, "store key too short");
    return key.substr(0, key.size() - 2);
}

}  // namespace

Blob
SerializeParamList(const std::vector<Parameter*>& params, bool weights) {
    // One allocation of the exact size; each record (u64 size, tensor bytes
    // with their CRC trailer) is appended straight into it.
    std::size_t total = sizeof(std::uint32_t);
    ForEachListedTensor(params, weights, [&total](const Tensor& t) {
        total += sizeof(std::uint64_t) + SerializedTensorSize(t);
    });
    ByteWriter out(total);
    out.U32(static_cast<std::uint32_t>(params.size()) * (weights ? 1 : 2));
    ForEachListedTensor(params, weights, [&out](const Tensor& t) {
        out.U64(SerializedTensorSize(t));
        SerializeTensor(t, out);
    });
    return out.Take();
}

void
DeserializeParamList(const Blob& blob, const std::vector<Parameter*>& params,
                     bool weights) {
    ByteReader in(blob);
    const std::uint32_t count = in.U32();
    const std::uint32_t expected =
        static_cast<std::uint32_t>(params.size()) * (weights ? 1 : 2);
    MOC_CHECK_ARG(count == expected, "parameter count mismatch in checkpoint blob");
    // Every record is checked before its bytes are copied into the tensor
    // the parameter already owns: no allocation, no zero-fill, no free.
    for (auto* p : params) {
        if (weights) {
            const TensorRecord t = ReadRecord(in);
            MOC_CHECK_ARG(t.shape == p->value().shape(),
                          "shape mismatch restoring " << p->name());
            t.CopyTo(p->value());
        } else {
            const TensorRecord m = ReadRecord(in);
            const TensorRecord v = ReadRecord(in);
            MOC_CHECK_ARG(m.shape == p->adam_m().shape() &&
                              v.shape == p->adam_v().shape(),
                          "moment shape mismatch restoring " << p->name());
            m.CopyTo(p->adam_m());
            v.CopyTo(p->adam_v());
        }
    }
    in.ExpectEnd();
}

Blob
SerializeExtraState(const ExtraState& extra) {
    ByteWriter out;
    out.U64(extra.iteration);
    out.U64(extra.adam_step);
    for (const std::uint64_t s : extra.gating_rng.s) {
        out.U64(s);
    }
    out.U8(extra.gating_rng.have_cached_gaussian ? 1 : 0);
    out.F64(extra.gating_rng.cached_gaussian);
    return out.Take();
}

ExtraState
DeserializeExtraState(const Blob& blob) {
    ByteReader in(blob);
    ExtraState extra;
    extra.iteration = static_cast<std::size_t>(in.U64());
    extra.adam_step = static_cast<std::size_t>(in.U64());
    for (auto& s : extra.gating_rng.s) {
        s = in.U64();
    }
    extra.gating_rng.have_cached_gaussian = in.U8() != 0;
    extra.gating_rng.cached_gaussian = in.F64();
    in.ExpectEnd();
    return extra;
}

MocCheckpointSystem::MocCheckpointSystem(const MocSystemConfig& config,
                                         ParamSource& model,
                                         const RankTopology& topology,
                                         const ModelSpec& spec,
                                         const ExtraState& initial_extra)
    : config_(config),
      model_(model),
      topology_(topology),
      spec_(spec),
      ledger_(std::max<std::size_t>(1, spec.NumMoeLayers()), spec.num_experts),
      memory_(topology.num_nodes()) {
    MOC_CHECK_ARG(config.i_ckpt >= 1, "i_ckpt must be >= 1");
    MOC_CHECK_ARG(spec.NumMoeLayers() >= 1, "MoC-System requires an MoE model");

    std::unique_ptr<ExpertSelector> selector;
    if (config.pec.policy == SelectionPolicy::kSequential) {
        selector = std::make_unique<SequentialSelector>(spec.num_experts);
    } else {
        selector = std::make_unique<LoadAwareSelector>(
            spec.num_experts, [this](std::size_t m, ExpertId e) {
                // Unsaved updates since this expert's last snapshot.
                const std::size_t last = last_snap_iter_[m][e];
                return ledger_.CumulativeTokens(m, e) -
                       ledger_.CumulativeTokensAt(last, m, e);
            });
    }
    planner_ = std::make_unique<PecPlanner>(spec.NumMoeLayers(), spec.num_experts,
                                            config.pec, std::move(selector));
    if (config.dynamic_k) {
        dynamic_k_ = std::make_unique<DynamicKController>(
            config.pec.k_snapshot, spec.num_experts, config.plt_threshold);
    }
    last_snap_iter_.assign(spec.NumMoeLayers(),
                           std::vector<std::size_t>(spec.num_experts, 0));

    // Static non-expert placement from the sharding planner.
    const StateBytes bytes;
    ModelStateInventory inventory(spec, bytes);
    ShardingOptions options;
    options.equal_expert = config.fully_sharded;
    options.equal_nonexpert = config.fully_sharded;
    ShardingPlanner sharder(inventory, topology, options);
    const ShardPlan plan = sharder.PlanFull();
    for (const auto* module : inventory.NonExpertModules()) {
        if (auto owner = plan.FindWeightOwner(module->key)) {
            nonexpert_rank_[module->key] = *owner;
        }
    }

    MOC_CHECK_ARG(config.persist_generations >= 1,
                  "persist_generations must be >= 1");

    // The resilient persist path: retries + write verification over the
    // configured backend, with read repair from surviving memory replicas
    // and the versioned/plain twin key (docs/FAULT_MODEL.md).
    persist_ = std::make_unique<ResilientStore>(
        PersistBackend(), config_.retry,
        [this](const std::string& damaged) -> std::optional<Blob> {
            std::string plain = damaged;
            std::optional<std::size_t> iteration;
            if (damaged.rfind("gen/", 0) == 0) {
                const auto slash = damaged.find('/', 4);
                if (slash != std::string::npos) {
                    plain = damaged.substr(slash + 1);
                    iteration = static_cast<std::size_t>(
                        std::stoull(damaged.substr(4, slash - 4)));
                }
            }
            // Surviving memory replica of the same key (two-level bonus).
            if (auto mem = manifest_.Latest(StoreLevel::kMemory, plain)) {
                if (auto blob = memory_.Node(mem->node).Get(plain)) {
                    return blob;
                }
            }
            // The twin copy in the backend itself; the caller CRC-checks.
            auto read_raw = [this](const std::string& key)
                -> std::optional<Blob> {
                try {
                    return PersistBackend().Get(key);
                } catch (const std::runtime_error&) {
                    return std::nullopt;
                }
            };
            if (iteration.has_value()) {
                return read_raw(plain);
            }
            if (auto latest = manifest_.Latest(StoreLevel::kPersist, plain)) {
                return read_raw(GenKey(latest->iteration, plain));
            }
            return std::nullopt;
        });

    // Per-expert telemetry + run metadata restart with each bound system.
    obs::ExpertStatsRegistry::Instance().Configure(spec.NumMoeLayers(),
                                                   spec.num_experts);
    obs::SetRunConfigDigest(ConfigDigest(config_, spec_));

    // Initial full checkpoint at iteration 0: recovery is always defined.
    const obs::TraceSpan span("ckpt.initial_checkpoint", "ckpt");
    const std::uint64_t begin_ns = obs::Tracer::NowNs();
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptBegin,
         .k = config_.pec.k_snapshot,
         .detail = "initial full checkpoint"});
    CheckpointReport report;
    for (const auto& group : model_.ParameterGroups()) {
        SaveGroup(group, 0, /*weights=*/true, true, true, report);
        SaveGroup(group, 0, /*weights=*/false, true, true, report);
    }
    PersistShard("extra/state", SerializeExtraState(initial_extra), 0,
                 /*fatal_on_failure=*/true);
    manifest_.MarkCheckpointComplete(StoreLevel::kMemory, 0);
    manifest_.MarkCheckpointComplete(StoreLevel::kPersist, 0);
    WriteManifestBlob();
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptEnd,
         .bytes = report.snapshot_bytes + report.persist_bytes,
         .plt = 0.0,
         .k = config_.pec.k_snapshot,
         .detail = "initial full checkpoint"});
    RecordCheckpointMetrics(report, NsToSeconds(begin_ns, obs::Tracer::NowNs()));
}

std::string
MocCheckpointSystem::GenKey(std::size_t iteration, const std::string& key) {
    return "gen/" + std::to_string(iteration) + "/" + key;
}

ObjectStore&
MocCheckpointSystem::PersistBackend() {
    return config_.persist_backend != nullptr ? *config_.persist_backend
                                              : storage_;
}

void
MocCheckpointSystem::PersistShard(const std::string& key, Blob blob,
                                  std::size_t iteration,
                                  bool fatal_on_failure) {
    const Bytes size = blob.size();
    // Manifest CRCs are CRC-32C: the blob's embedded per-tensor IEEE
    // trailers make a same-polynomial outer CRC payload-blind (see
    // util/crc32.h).
    const std::uint32_t crc = Crc32c(blob.data(), blob.size());
    bool verified = true;
    try {
        persist_->Put(key, blob);
        persist_->Put(GenKey(iteration, key), std::move(blob));
    } catch (const StoreError& e) {
        if (fatal_on_failure) {
            throw;
        }
        verified = false;
        static obs::Counter& failures =
            obs::MetricsRegistry::Instance().GetCounter(
                "ckpt.persist_shard_failures");
        failures.Add();
        obs::EventJournal::Instance().Append(
            {.kind = obs::EventKind::kStorageFault,
             .iteration = iteration,
             .bytes = size,
             .detail = std::string("persist failed: ") + e.what()});
        MOC_WARN << "ckpt: persist of " << key << " failed ("
                 << StoreErrorKindName(e.kind())
                 << "); shard recorded unverified";
    }
    manifest_.RecordPersistVersion(key, iteration, size, crc, verified);
}

void
MocCheckpointSystem::WriteManifestBlob() {
    const std::string json = manifest_.ToJson();
    try {
        persist_->Put("meta/manifest", Blob(json.begin(), json.end()));
    } catch (const StoreError& e) {
        obs::EventJournal::Instance().Append(
            {.kind = obs::EventKind::kStorageFault,
             .detail = std::string("manifest write failed: ") + e.what()});
        MOC_WARN << "ckpt: manifest write failed: " << e.what();
    }
}

std::optional<Blob>
MocCheckpointSystem::ReadPersistVersion(const std::string& key,
                                        const PersistVersion& version) const {
    // The plain latest-wins key holds this version only when it is the
    // newest; the generation twin is authoritative either way. Trying the
    // plain key first lets GetChecked read-repair it in place.
    std::vector<std::string> sources;
    if (const auto latest = manifest_.Latest(StoreLevel::kPersist, key);
        latest.has_value() && latest->iteration == version.iteration) {
        sources.push_back(key);
    }
    sources.push_back(GenKey(version.iteration, key));
    for (const auto& source : sources) {
        try {
            if (auto blob = persist_->GetChecked(source, version.crc)) {
                return blob;
            }
        } catch (const StoreError&) {
            // Damaged or retry-exhausted under this name; try the twin.
        }
    }
    return std::nullopt;
}

std::vector<NodeId>
MocCheckpointSystem::ExpertOwnerNodes(ExpertId expert) const {
    const std::size_t owner = topology_.OwnerEpRank(expert, spec_.num_experts);
    std::vector<NodeId> nodes;
    for (std::size_t g = 0; g < topology_.NumEpGroups(); ++g) {
        const NodeId node = topology_.NodeOf(topology_.RankOf(g, owner));
        if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
            nodes.push_back(node);
        }
    }
    return nodes;
}

NodeId
MocCheckpointSystem::NonExpertOwnerNode(const std::string& key) const {
    auto it = nonexpert_rank_.find(key);
    const RankId rank = it == nonexpert_rank_.end() ? 0 : it->second;
    return topology_.NodeOf(rank);
}

void
MocCheckpointSystem::SaveGroup(const ParamGroup& group, std::size_t iteration,
                               bool weights, bool to_memory, bool to_persist,
                               CheckpointReport& report) {
    if (!to_memory && !to_persist) {
        return;
    }
    const Blob blob = SerializeParamList(group.params, weights);
    const std::string key = group.key + (weights ? "/w" : "/o");
    const Bytes size = blob.size();

    std::vector<NodeId> nodes;
    if (group.kind == ModuleKind::kExpert) {
        nodes = ExpertOwnerNodes(group.expert);
    } else {
        nodes = {NonExpertOwnerNode(group.key)};
    }
    auto& journal = obs::EventJournal::Instance();
    auto& expert_stats = obs::ExpertStatsRegistry::Instance();
    if (to_memory) {
        for (NodeId node : nodes) {
            memory_.Node(node).Put(key, blob);
            manifest_.RecordSave(StoreLevel::kMemory, key, iteration, node, size);
            report.snapshot_bytes += size;
            journal.Append({.kind = obs::EventKind::kSnapshot,
                            .iteration = iteration,
                            .scope = static_cast<std::int64_t>(node),
                            .bytes = size,
                            .detail = key});
        }
        if (group.kind == ModuleKind::kExpert) {
            expert_stats.OnSnapshot(group.moe_index, group.expert, iteration,
                                    size * nodes.size());
        }
    }
    if (to_persist) {
        // The initial checkpoint must land: every later recovery bottoms
        // out on generation 0.
        PersistShard(key, blob, iteration, /*fatal_on_failure=*/iteration == 0);
        report.persist_bytes += size;
        journal.Append({.kind = obs::EventKind::kPersist,
                        .iteration = iteration,
                        .bytes = size,
                        .detail = key});
        if (group.kind == ModuleKind::kExpert) {
            expert_stats.OnPersist(group.moe_index, group.expert, iteration,
                                   size);
        }
    }
}

bool
MocCheckpointSystem::ShouldCheckpoint(std::size_t iteration) const {
    return iteration > 0 && iteration % config_.i_ckpt == 0;
}

CheckpointReport
MocCheckpointSystem::Checkpoint(std::size_t iteration, const ExtraState& extra) {
    obs::TraceContext trace_ctx;
    trace_ctx.generation = iteration;
    trace_ctx.iteration = iteration;
    trace_ctx.phase = "ckpt";
    const obs::TraceContextScope trace_scope(trace_ctx);
    const obs::TraceSpan span("ckpt.checkpoint", "ckpt");
    const std::uint64_t begin_ns = obs::Tracer::NowNs();
    obs::ExpertStatsRegistry::Instance().SetIteration(iteration);
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptBegin,
         .iteration = iteration,
         .k = planner_->config().k_snapshot,
         .detail = {}});
    const PecSelection selection = planner_->Plan(ckpt_count_);
    CheckpointReport report;
    report.iteration = iteration;
    const PecConfig& pec = planner_->config();

    for (const auto& group : model_.ParameterGroups()) {
        if (group.kind != ModuleKind::kExpert) {
            SaveGroup(group, iteration, true, true, true, report);
            SaveGroup(group, iteration, false, true, true, report);
            continue;
        }
        const std::size_t m = group.moe_index;
        const ExpertId e = group.expert;
        const bool in_snap = Contains(selection.snapshot[m], e);
        const bool in_pers = Contains(selection.persist[m], e);
        const bool snap_w = !pec.pec_on_weights || in_snap;
        const bool pers_w = !pec.pec_on_weights || in_pers;
        const bool snap_o = !pec.pec_on_optimizer || in_snap;
        const bool pers_o = !pec.pec_on_optimizer || in_pers;
        SaveGroup(group, iteration, true, snap_w, pers_w, report);
        SaveGroup(group, iteration, false, snap_o, pers_o, report);
        if (snap_w || snap_o) {
            last_snap_iter_[m][e] = iteration;
        }
    }

    PersistShard("extra/state", SerializeExtraState(extra), iteration,
                 /*fatal_on_failure=*/false);
    manifest_.MarkCheckpointComplete(StoreLevel::kMemory, iteration);
    manifest_.MarkCheckpointComplete(StoreLevel::kPersist, iteration);
    for (const auto& [key, gen] :
         manifest_.PrunePersistGenerations(config_.persist_generations)) {
        persist_->Erase(GenKey(gen, key));
    }
    WriteManifestBlob();
    ledger_.RecordCheckpointEvent(iteration);
    ++ckpt_count_;
    // The live time-series ring (obs/timeseries.h) reads this gauge each
    // iteration; recovery.plt only updates on an actual recovery.
    static obs::Gauge& plt_gauge =
        obs::MetricsRegistry::Instance().GetGauge("ckpt.plt");
    plt_gauge.Set(ledger_.Plt());
    obs::EventJournal::Instance().Append(
        {.kind = obs::EventKind::kCkptEnd,
         .iteration = iteration,
         .bytes = report.snapshot_bytes + report.persist_bytes,
         .plt = ledger_.Plt(),
         .k = planner_->config().k_snapshot,
         .detail = {}});
    RecordCheckpointMetrics(report, NsToSeconds(begin_ns, obs::Tracer::NowNs()));
    return report;
}

void
MocCheckpointSystem::RecordRouting(const std::vector<MoeLayer*>& layers) {
    MOC_CHECK_ARG(layers.size() == ledger_.num_moe_layers(),
                  "MoE layer count mismatch");
    for (std::size_t m = 0; m < layers.size(); ++m) {
        const RoutingStats& stats = layers[m]->last_stats();
        ledger_.RecordRouting(m, stats.tokens_per_expert, stats.assignments);
    }
}

RecoveryReport
MocCheckpointSystem::RecoverFromFault(const std::vector<NodeId>& failed_nodes) {
    obs::TraceContext trace_ctx;
    trace_ctx.phase = "recover";
    const obs::TraceContextScope trace_scope(trace_ctx);
    const obs::TraceSpan span("ckpt.recover", "fault");
    const std::uint64_t begin_ns = obs::Tracer::NowNs();
    auto& journal = obs::EventJournal::Instance();
    // The trainer advances the expert-stats iteration every step, so it is
    // the best available "iteration at fault time" stamp.
    const std::uint64_t fault_iteration =
        obs::ExpertStatsRegistry::Instance().iteration();
    {
        std::ostringstream nodes;
        for (std::size_t i = 0; i < failed_nodes.size(); ++i) {
            nodes << (i == 0 ? "nodes=" : ",") << failed_nodes[i];
        }
        journal.Append({.kind = obs::EventKind::kFault,
                        .iteration = fault_iteration,
                        .scope = failed_nodes.empty()
                                     ? obs::kGlobalScope
                                     : static_cast<std::int64_t>(
                                           failed_nodes.front()),
                        .detail = nodes.str()});
    }
    journal.Append({.kind = obs::EventKind::kRecoveryBegin,
                    .iteration = fault_iteration,
                    .detail = {}});
    for (NodeId node : failed_nodes) {
        memory_.FailNode(node);
        manifest_.DropNodeMemory(node);
    }

    // Collect the non-expert store keys from the model's groups.
    auto groups = model_.ParameterGroups();
    std::map<std::string, const ParamGroup*> by_key;
    std::vector<std::string> nonexpert_keys;
    for (const auto& group : groups) {
        by_key[group.key] = &group;
        if (group.kind != ModuleKind::kExpert) {
            nonexpert_keys.push_back(group.key + "/w");
            nonexpert_keys.push_back(group.key + "/o");
        }
    }

    TwoLevelRecoveryPlanner recovery_planner(config_.two_level_recovery);
    RecoveryReport report;
    static obs::Counter& degraded_counter =
        obs::MetricsRegistry::Instance().GetCounter("recovery.degraded_keys");
    static obs::Counter& fallback_counter =
        obs::MetricsRegistry::Instance().GetCounter(
            "recovery.generation_fallbacks");

    // Restart candidates: verified generations newest-first, then sealed
    // generations with unverified shards as last resorts (the strict
    // per-key checks below still hold, so they either restore consistently
    // or get marked corrupt); for legacy manifests with no generation
    // records at all, the last completed checkpoint.
    std::vector<std::size_t> candidates = manifest_.EligibleGenerations();
    std::vector<std::size_t> last_resort;
    for (const auto& info : manifest_.Generations()) {
        if (info.sealed && !info.marked_corrupt && !info.eligible) {
            last_resort.push_back(info.iteration);
        }
    }
    candidates.insert(candidates.end(), last_resort.rbegin(),
                      last_resort.rend());
    if (candidates.empty()) {
        candidates.push_back(
            manifest_.LastCompleteIteration(StoreLevel::kPersist).value_or(0));
    }

    bool restored = false;
    std::map<std::string, std::size_t> restored_iteration;
    for (std::size_t ci = 0; ci < candidates.size() && !restored; ++ci) {
        const std::size_t restart = candidates[ci];
        report.plan = recovery_planner.Plan(manifest_, nonexpert_keys,
                                            ledger_.num_moe_layers(),
                                            ledger_.num_experts(), restart);
        report.degraded.clear();
        restored_iteration.clear();
        bool generation_ok = true;
        for (const auto& decision : report.plan.decisions) {
            if (decision.source == RecoverySource::kInitial) {
                throw StoreError(StoreErrorKind::kCorrupt, decision.key,
                                 "no recoverable version survives; even the "
                                 "initial checkpoint is damaged");
            }
            const bool weights = decision.key.back() == 'w';
            const auto group_it = by_key.find(BaseKey(decision.key));
            MOC_CHECK_ARG(group_it != by_key.end(),
                          "checkpointed key has no model group: " << decision.key);
            const bool is_expert = group_it->second->kind == ModuleKind::kExpert;
            const auto& params = group_it->second->params;
            std::size_t got_iteration = decision.iteration;
            if (decision.source == RecoverySource::kMemory) {
                const auto version =
                    manifest_.Latest(StoreLevel::kMemory, decision.key);
                MOC_ASSERT(version.has_value(), "manifest/plan disagreement");
                // Restored straight from the replica, without copying it.
                const bool found = memory_.Node(version->node).Read(
                    decision.key, [&params, weights](const Blob& blob) {
                        DeserializeParamList(blob, params, weights);
                    });
                MOC_ASSERT(found, "memory lost a manifest-tracked key: "
                                      << decision.key);
            } else {
                std::optional<Blob> blob;
                // Walk the verified-version fallback chain; every damaged
                // version is marked so later recoveries skip it.
                for (const auto& version :
                     manifest_.PersistFallbackChain(decision.key, restart)) {
                    blob = ReadPersistVersion(decision.key, version);
                    if (blob.has_value()) {
                        got_iteration = version.iteration;
                        break;
                    }
                    manifest_.MarkPersistCorrupt(decision.key,
                                                 version.iteration);
                    journal.Append(
                        {.kind = obs::EventKind::kStorageFault,
                         .iteration = version.iteration,
                         .bytes = version.bytes,
                         .detail = "corrupt shard " + decision.key + " @" +
                                   std::to_string(version.iteration)});
                }
                if (!blob.has_value() && is_expert) {
                    throw StoreError(StoreErrorKind::kCorrupt, decision.key,
                                     "every persisted version of this unit is "
                                     "corrupt and no memory replica survives");
                }
                if (!blob.has_value() ||
                    (!is_expert && got_iteration != restart)) {
                    // A non-expert unit must restore the restart generation
                    // exactly (the plan itself may already point at an older
                    // version when the restart shard never verified); this
                    // generation is unusable.
                    generation_ok = false;
                    break;
                }
                if (got_iteration != decision.iteration) {
                    degraded_counter.Add();
                    report.degraded.push_back(
                        {decision.key, decision.iteration, got_iteration,
                         "corrupt shard; restored older verified version"});
                    journal.Append(
                        {.kind = obs::EventKind::kDegradedRecovery,
                         .iteration = got_iteration,
                         .detail = "key=" + decision.key + ";planned=" +
                                   std::to_string(decision.iteration) +
                                   ";restored=" +
                                   std::to_string(got_iteration) +
                                   ";reason=corrupt_shard"});
                }
                DeserializeParamList(*blob, params, weights);
            }
            restored_iteration[decision.key] = got_iteration;
        }
        if (generation_ok) {
            // Other crucial states must come from the restart generation.
            const auto extra_chain =
                manifest_.PersistFallbackChain("extra/state", restart);
            std::optional<Blob> extra_blob;
            if (!extra_chain.empty() &&
                extra_chain.front().iteration == restart) {
                extra_blob =
                    ReadPersistVersion("extra/state", extra_chain.front());
                if (!extra_blob.has_value()) {
                    manifest_.MarkPersistCorrupt("extra/state", restart);
                }
            } else if (extra_chain.empty()) {
                // Legacy manifests never tracked extra state; read it raw.
                extra_blob = storage_.Get("extra/state");
            }
            if (extra_blob.has_value()) {
                report.extra = DeserializeExtraState(*extra_blob);
                restored = true;
            } else {
                generation_ok = false;
            }
        }
        if (!generation_ok) {
            manifest_.MarkGenerationCorrupt(restart);
            fallback_counter.Add();
            ++report.generation_fallbacks;
            journal.Append(
                {.kind = obs::EventKind::kDegradedRecovery,
                 .iteration = restart,
                 .detail = "generation " + std::to_string(restart) +
                           " unusable; falling back to an older one"});
        }
    }
    if (!restored) {
        WriteManifestBlob();  // record what recovery learned about damage
        throw StoreError(StoreErrorKind::kCorrupt, "meta/manifest",
                         "no restartable checkpoint generation survives");
    }
    MOC_ASSERT(report.extra.iteration == report.plan.restart_iteration,
               "extra state iteration disagrees with the restart point");

    // The effective expert age is what was actually restored, which may be
    // older than planned when shards fell back.
    for (std::size_t m = 0; m < ledger_.num_moe_layers(); ++m) {
        for (ExpertId e = 0; e < ledger_.num_experts(); ++e) {
            const std::string base =
                "moe/" + std::to_string(m) + "/expert/" + std::to_string(e);
            const auto w = restored_iteration.find(base + "/w");
            const auto o = restored_iteration.find(base + "/o");
            if (w != restored_iteration.end() &&
                o != restored_iteration.end()) {
                report.plan.expert_recovered_iteration[m][e] =
                    std::min(w->second, o->second);
            }
        }
    }
    WriteManifestBlob();

    ledger_.OnFaultRecovery(report.plan.restart_iteration,
                            report.plan.expert_recovered_iteration);
    // Snapshot bookkeeping cannot reference erased (replayed) history.
    for (auto& layer : last_snap_iter_) {
        for (auto& it : layer) {
            it = std::min(it, report.plan.restart_iteration);
        }
    }

    for (NodeId node : failed_nodes) {
        memory_.RestartNode(node);
    }

    report.plt = ledger_.Plt();
    const std::size_t k_before = planner_->config().k_snapshot;
    if (dynamic_k_ != nullptr) {
        // Scale both levels proportionally: recovery staleness is bounded by
        // the persist rotation, so K_persist must grow with K_pec.
        const std::size_t k = dynamic_k_->OnFaultRecovery(report.plt);
        const std::size_t persist = std::max<std::size_t>(
            1, k * config_.pec.k_persist / config_.pec.k_snapshot);
        planner_->SetK(k, std::min(k, persist));
    }
    report.k_after = planner_->config().k_snapshot;

    // Per-expert attribution: clamp staleness bookkeeping to the restart
    // point and refresh each cell's lost-token total from the ledger.
    auto& expert_stats = obs::ExpertStatsRegistry::Instance();
    expert_stats.OnRecovery(report.plan.restart_iteration);
    for (std::size_t m = 0; m < ledger_.num_moe_layers(); ++m) {
        for (ExpertId e = 0; e < ledger_.num_experts(); ++e) {
            expert_stats.SetLostTokens(m, e, ledger_.LostTokens(m, e));
        }
    }

    journal.Append({.kind = obs::EventKind::kRecoveryEnd,
                    .iteration = report.plan.restart_iteration,
                    .bytes = report.plan.bytes_from_memory +
                             report.plan.bytes_from_storage,
                    .plt = report.plt,
                    .k = report.k_after,
                    .detail = {}});
    if (report.k_after != k_before) {
        journal.Append({.kind = obs::EventKind::kDynamicKBump,
                        .iteration = report.plan.restart_iteration,
                        .plt = report.plt,
                        .k = report.k_after,
                        .detail = {}});
    }

    auto& registry = obs::MetricsRegistry::Instance();
    static obs::Counter& events = registry.GetCounter("recovery.events");
    static obs::Counter& memory_bytes =
        registry.GetCounter("recovery.bytes_from_memory");
    static obs::Counter& storage_bytes =
        registry.GetCounter("recovery.bytes_from_storage");
    static obs::Counter& transitions = registry.GetCounter("dynk.transitions");
    static obs::Gauge& plt_gauge = registry.GetGauge("recovery.plt");
    static obs::Gauge& k_gauge = registry.GetGauge("dynk.k_snapshot");
    static obs::Histogram& seconds =
        registry.GetHistogram("recovery.duration_seconds");
    events.Add();
    memory_bytes.Add(report.plan.bytes_from_memory);
    storage_bytes.Add(report.plan.bytes_from_storage);
    if (report.k_after != k_before) {
        transitions.Add();
    }
    plt_gauge.Set(report.plt);
    k_gauge.Set(static_cast<double>(report.k_after));
    seconds.Observe(NsToSeconds(begin_ns, obs::Tracer::NowNs()));
    return report;
}

}  // namespace moc
