/**
 * @file
 * The multi-process cluster gauntlet: N real rank processes and a
 * coordinator process speaking the checkpoint barrier protocol
 * (ckpt/rank_coordinator.h) over TCP (net/socket_transport.h), against a
 * shared on-disk checkpoint directory. This is the driver behind the CI
 * transport-gauntlet job; `tools/moc_launcher` forks the fleet:
 *
 *   moc_launcher --binary cluster_procs --ranks 3 --events 3 \
 *       --ckpt-dir /tmp/gauntlet --fault kill:rank=1:event=2:phase=persist:after=3
 *
 * Per checkpoint event the coordinator broadcasts kCkptBegin; each rank
 * persists its shards under versioned keys through a ResilientStore
 * (verified writes), then reports kRankDone with per-shard integrity
 * records. The coordinator seals the generation in the manifest only when
 * every rank's every shard verified (the recovery invariant) and writes
 * the manifest for offline audit (`moc_cli fsck`).
 *
 * The `--fault` spec (src/faults/proc_faults.h) makes a rank SIGKILL
 * (vanish: peer sees EOF) or SIGSTOP (freeze: peer sees heartbeat
 * silence) itself at a chosen point. Either way the coordinator journals
 * `peer_death`, leaves the generation unsealed, stops checkpointing, and
 * replans recovery from the newest *sealed* generation — never the torn
 * one.
 *
 * The cluster observability plane rides the same fleet
 * (docs/OBSERVABILITY.md, "Cluster plane"): each rank streams kTelemetry
 * samples from a background publisher (net/telemetry.h) and republishes at
 * phase edges; the coordinator taps every barrier message into
 * obs::ClusterAggregator, which flags stragglers *during* the run.
 * `--ballast-rank R --ballast-ms M` makes rank R sleep M ms between shard
 * writes — a deliberate straggler for the detector to catch. Ranks
 * re-export their observability artifacts after every generation, so a
 * SIGKILL'd rank still leaves a (possibly torn) journal for the
 * launcher's post-teardown merge.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/cluster_engine.h"
#include "ckpt/membership.h"
#include "ckpt/rank_coordinator.h"
#include "core/cluster_recovery.h"
#include "core/placement.h"
#include "faults/proc_faults.h"
#include "net/socket_transport.h"
#include "net/telemetry.h"
#include "obs/cluster_view.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/journal.h"
#include "obs/run_meta.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "storage/file_store.h"
#include "storage/resilient_store.h"
#include "util/byte_codec.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/table.h"

using namespace moc;

namespace {

/** `--name value` lookup over argv (after ObsExportGuard stripped its own). */
const char*
FlagStr(int argc, char** argv, const char* name, const char* fallback) {
    const std::string flag = std::string("--") + name;
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag) {
            return argv[i + 1];
        }
    }
    return fallback;
}

double
FlagDouble(int argc, char** argv, const char* name, double fallback) {
    const char* value = FlagStr(argc, argv, name, nullptr);
    return value != nullptr ? std::atof(value) : fallback;
}

std::size_t
FlagSize(int argc, char** argv, const char* name, std::size_t fallback) {
    return static_cast<std::size_t>(
        FlagDouble(argc, argv, name, static_cast<double>(fallback)));
}

/** Every `--fault <spec>` occurrence. */
std::vector<ProcFaultSpec>
FlagFaults(int argc, char** argv) {
    std::vector<ProcFaultSpec> specs;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--fault") {
            specs.push_back(ParseProcFaultSpec(argv[i + 1]));
        }
    }
    return specs;
}

/** The shard plan every process derives identically from the rank count. */
ShardPlan
BuildGauntletPlan(std::size_t ranks) {
    ShardPlan plan(ranks);
    for (RankId r = 0; r < ranks; ++r) {
        plan.Add(r, {"dense/" + std::to_string(r), 64 * kMiB, false});
        for (std::size_t e = 0; e < 4; ++e) {
            const std::size_t id = r * 4 + e;
            plan.Add(r, {"expert/" + std::to_string(id) + "/w", 16 * kMiB,
                         false});
        }
    }
    return plan;
}

/**
 * The synthetic expert grid of the elastic gauntlet: four experts per
 * initial rank, 16 MiB each, with a deterministic hotness ramp so the
 * load-aware solver has real imbalance to chew on.
 */
std::vector<ExpertSpec>
GauntletExperts(std::size_t ranks) {
    std::vector<ExpertSpec> experts;
    experts.reserve(ranks * 4);
    for (std::size_t id = 0; id < ranks * 4; ++id) {
        ExpertSpec e;
        e.id = id;
        e.bytes = 16 * kMiB;
        e.load = 1.0 + static_cast<double>(id % 5);
        experts.push_back(e);
    }
    return experts;
}

/** The pre-elastic layout: expert id lives on rank id/4 (BuildGauntletPlan). */
std::map<std::size_t, std::vector<std::size_t>>
InitialAssignments(std::size_t ranks) {
    std::map<std::size_t, std::vector<std::size_t>> assignments;
    for (std::size_t id = 0; id < ranks * 4; ++id) {
        assignments[id] = {id / 4};
    }
    return assignments;
}

/** Shard items rank @p rank persists under @p placement (elastic mode). */
std::vector<ShardItem>
ElasticItems(std::size_t rank, const PlacementPlan& placement) {
    std::vector<ShardItem> items;
    items.push_back({"dense/" + std::to_string(rank), 64 * kMiB, false});
    for (const auto& [id, hosts] : placement.assignments) {
        for (const std::size_t host : hosts) {
            if (host == rank) {
                items.push_back({"expert/" + std::to_string(id) + "/w",
                                 16 * kMiB, false});
            }
        }
    }
    return items;
}

/** The shard key an expert's state lives under on a given rank. */
std::string
ExpertShardKey(std::size_t rank, std::size_t expert) {
    return "rank" + std::to_string(rank) + "/expert/" +
           std::to_string(expert) + "/w";
}

/** Atomically publishes the coordinator's bound port for the ranks. */
void
WritePortFile(const std::string& path, std::uint16_t port) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << port << "\n";
    }
    std::filesystem::rename(tmp, path);
}

/** Polls the port file until the coordinator published it. */
std::uint16_t
AwaitPortFile(const std::string& path, Seconds timeout_s) {
    const WallClock clock;
    const Seconds deadline = clock.Now() + timeout_s;
    while (clock.Now() < deadline) {
        std::ifstream in(path);
        unsigned port = 0;
        if (in >> port && port > 0 && port <= 65535) {
            return static_cast<std::uint16_t>(port);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return 0;
}

/** Live-endpoint wiring shared by both coordinator variants. */
struct LiveEndpointConfig {
    int port = -1;          ///< -1 = disabled; 0 = bind an ephemeral port
    std::string port_file;  ///< published atomically, like the transport's
    double linger_s = 0.0;  ///< keep serving this long after the run ends
};

/**
 * Binds the embedded scrape server (obs/http_endpoint.h) when asked, prints
 * the URL for humans, and publishes the port for CI — before the ranks
 * join, so a scraper can watch the whole run including admission.
 */
std::unique_ptr<obs::HttpEndpoint>
StartLiveEndpoint(const LiveEndpointConfig& cfg) {
    if (cfg.port < 0) {
        return nullptr;
    }
    obs::HttpOptions opts;
    opts.port = static_cast<std::uint16_t>(cfg.port);
    auto endpoint = std::make_unique<obs::HttpEndpoint>(opts);
    endpoint->Start();
    std::printf("live endpoint: http://127.0.0.1:%u\n", endpoint->port());
    std::fflush(stdout);
    if (!cfg.port_file.empty()) {
        WritePortFile(cfg.port_file, endpoint->port());
    }
    return endpoint;
}

/**
 * One /series point per barrier: the generic capture plus the
 * coordinator's authoritative byte totals from the barrier reports.
 */
void
SampleBarrier(std::size_t event, double wait_s, std::uint64_t bytes_total,
              std::uint64_t bytes_saved) {
    obs::IterationPoint point = obs::CapturePoint(event, wait_s);
    point.bytes_persisted = bytes_total;
    point.bytes_saved = bytes_saved;
    obs::TimeSeriesRing::Instance().Append(point);
}

/** Folds one barrier's shard reports into the cumulative byte totals. */
void
AccumulateBarrierBytes(const BarrierResult& barrier,
                       std::uint64_t& bytes_total,
                       std::uint64_t& bytes_saved) {
    for (const auto& done : barrier.reports) {
        for (const auto& shard : done.reports) {
            if (shard.deduped) {
                bytes_saved += shard.bytes;
            } else {
                bytes_total += shard.bytes;
            }
        }
    }
}

/**
 * Holds the endpoint open after the run so a scraper (or the CI gauntlet)
 * can read the post-mortem /healthz and compare /metrics against the
 * teardown export. The transport is already shut down by now; only the
 * scrape threads are still breathing.
 */
void
LingerLiveEndpoint(const obs::HttpEndpoint* endpoint, double linger_s) {
    if (endpoint == nullptr || linger_s <= 0.0) {
        return;
    }
    std::printf("live endpoint: lingering %.1fs for scrapers\n", linger_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
}

int
RunCoordinator(std::size_t ranks, std::size_t events,
               const std::string& ckpt_dir, const std::string& port_file,
               const net::SocketOptions& net_opts, Seconds join_timeout_s,
               Seconds barrier_deadline_s, const LiveEndpointConfig& live) {
    FileStore store(ckpt_dir);
    const auto endpoint = StartLiveEndpoint(live);
    auto transport =
        net::SocketTransport::Listen(0, net::kCoordinatorPeer, net_opts);
    WritePortFile(port_file, transport->port());
    std::printf("coordinator: listening on 127.0.0.1:%u, waiting for %zu "
                "rank(s)\n",
                transport->port(), ranks);
    if (!transport->WaitForPeers(ranks, join_timeout_s)) {
        std::fprintf(stderr, "coordinator: only %zu/%zu ranks joined\n",
                     transport->Peers().size(), ranks);
        return 1;
    }

    std::vector<net::PeerId> participants;
    for (std::size_t r = 0; r < ranks; ++r) {
        participants.push_back(static_cast<net::PeerId>(r));
    }
    CheckpointCoordinator coordinator(*transport, std::move(participants));
    // The cluster plane taps every barrier message: kTelemetry feeds the
    // aggregator (straggler detection fires here, DURING the run),
    // kPeerDeath folds transport verdicts into the health view.
    obs::ClusterAggregator& cluster = obs::ClusterAggregator::Instance();
    coordinator.SetMessageObserver([&cluster](const net::Message& msg) {
        if (msg.type == net::MsgType::kTelemetry) {
            try {
                cluster.Observe(
                    net::DecodeTelemetry(msg.payload),
                    static_cast<std::int64_t>(obs::Tracer::NowNs()));
            } catch (const std::exception&) {
                // A truncated frame from a dying rank; liveness is the
                // transport's job, not the telemetry decoder's.
            }
        } else if (msg.type == net::MsgType::kPeerDeath) {
            cluster.ObservePeerDeath(static_cast<std::int32_t>(msg.from),
                                     "transport");
        }
    });
    CheckpointManifest manifest;

    auto write_manifest = [&store, &manifest]() {
        const std::string json = manifest.ToJson();
        store.Put("meta/manifest", Blob(json.begin(), json.end()));
    };

    Table t({"generation", "sealed", "reports", "dead", "wait (s)"});
    std::uint64_t bytes_total = 0;
    std::uint64_t bytes_saved = 0;
    bool death = false;
    for (std::size_t event = 1; event <= events && !death; ++event) {
        obs::TraceContext ctx;
        ctx.generation = event;
        ctx.iteration = event;
        ctx.phase = "barrier";
        const obs::TraceContextScope scope(ctx);
        coordinator.BeginGeneration(event, ctx);
        WallClock clock;
        const Seconds wait_start = clock.Now();
        BarrierResult barrier;
        {
            const obs::TraceSpan span("net.barrier.wait", "net");
            barrier = coordinator.AwaitReports(event, barrier_deadline_s);
        }
        RecordReports(manifest, barrier);
        const bool sealed = SealIfComplete(manifest, event, barrier);
        write_manifest();
        AccumulateBarrierBytes(barrier, bytes_total, bytes_saved);
        SampleBarrier(event, clock.Now() - wait_start, bytes_total,
                      bytes_saved);
        t.AddRow({std::to_string(event), sealed ? "yes" : "no",
                  std::to_string(barrier.reports.size()),
                  std::to_string(barrier.dead.size()),
                  Table::Num(clock.Now() - wait_start, 3)});
        if (!barrier.dead.empty() || barrier.timed_out) {
            // The recovery invariant in action: once a rank is dead the
            // cluster stops advancing checkpoints — later generations
            // could never seal (a participant is missing), and piling up
            // unsealed generations only obscures the restart target.
            death = true;
        }
    }
    coordinator.Shutdown();
    std::printf("%s", t.ToString().c_str());

    std::size_t deaths_journaled = 0;
    std::size_t stragglers_journaled = 0;
    for (const auto& e : obs::EventJournal::Instance().Collect()) {
        deaths_journaled += e.kind == obs::EventKind::kPeerDeath ? 1 : 0;
        stragglers_journaled += e.kind == obs::EventKind::kStraggler ? 1 : 0;
    }
    std::printf("peer_death events journaled: %zu\n", deaths_journaled);
    std::printf("straggler events journaled: %zu\n", stragglers_journaled);

    const auto health = cluster.Health();
    if (!health.empty()) {
        Table ht({"rank", "alive", "phase", "gen", "slack (s)", "straggler",
                  "samples"});
        for (const auto& h : health) {
            ht.AddRow({std::to_string(h.rank),
                       h.alive ? "yes" : "DEAD (" + h.death_cause + ")",
                       h.phase.empty() ? "idle" : h.phase,
                       std::to_string(h.generation),
                       Table::Num(h.slack_s, 3), h.straggler ? "YES" : "no",
                       std::to_string(h.samples)});
        }
        std::printf("cluster health (%llu telemetry samples):\n%s",
                    static_cast<unsigned long long>(cluster.samples()),
                    ht.ToString().c_str());
    }

    // Replan restore from the newest sealed generation. A clean run
    // restores the last event; a faulted run proves the torn generation
    // was skipped.
    const auto plan = PlanClusterRestore(manifest);
    if (!plan) {
        std::fprintf(stderr, "coordinator: no sealed generation to restore "
                             "from\n");
        return 1;
    }
    const ClusterRestoreResult restored =
        ExecuteClusterRestore(manifest, store, *plan);
    std::printf("recovered generation=%zu shards=%zu damaged=%zu "
                "missing=%zu degraded=%zu\n",
                restored.generation, restored.shards_restored,
                restored.damaged.size(), plan->missing.size(),
                restored.degraded.size());
    const bool ok = restored.damaged.empty() && plan->missing.empty() &&
                    restored.shards_restored > 0;
    std::printf("gauntlet: %s\n", ok ? "OK" : "FAILED");
    LingerLiveEndpoint(endpoint.get(), live.linger_s);
    return ok ? 0 : 1;
}

/**
 * The elastic variant of the coordinator (--elastic 1): a MembershipTable
 * decides who checkpoints, a rank death *continues* the run — the torn
 * generation is marked aborted, the dead rank evicted, expert placement
 * re-solved over the survivors — and a respawned rank rejoins through the
 * kJoinRequest/kJoinAccept handshake with a fresh epoch, under which
 * subsequent generations seal against current live membership. The final
 * restore goes through a RankRemap so the chosen sealed generation loads
 * whatever membership is live *now*, even when its sealing world was
 * bigger (docs/FAULT_MODEL.md, "Elastic recovery").
 */
int
RunElasticCoordinator(std::size_t ranks, std::size_t events,
                      const std::string& ckpt_dir,
                      const std::string& port_file,
                      const net::SocketOptions& net_opts,
                      Seconds join_timeout_s, Seconds barrier_deadline_s,
                      const LiveEndpointConfig& live_cfg) {
    FileStore store(ckpt_dir);
    const auto endpoint = StartLiveEndpoint(live_cfg);
    auto transport =
        net::SocketTransport::Listen(0, net::kCoordinatorPeer, net_opts);
    WritePortFile(port_file, transport->port());
    std::printf("coordinator: elastic, listening on 127.0.0.1:%u, waiting "
                "for %zu rank(s)\n",
                transport->port(), ranks);
    if (!transport->WaitForPeers(ranks, join_timeout_s)) {
        std::fprintf(stderr, "coordinator: only %zu/%zu ranks joined\n",
                     transport->Peers().size(), ranks);
        return 1;
    }

    ckpt::MembershipTable membership;
    CheckpointManifest manifest;
    // Per-generation assignments, for remapped restores: the restore target
    // keys depend on who owned each expert when the generation sealed.
    std::map<std::size_t, std::map<std::size_t, std::vector<std::size_t>>>
        gen_assignments;

    PlacementProblem problem;
    problem.experts = GauntletExperts(ranks);
    problem.replicas = 1;
    problem.policy = PlacementPolicy::kLoadAware;
    problem.current = InitialAssignments(ranks);
    PlacementPlan placement;

    auto write_manifest = [&store, &manifest]() {
        const std::string json = manifest.ToJson();
        store.Put("meta/manifest", Blob(json.begin(), json.end()));
    };
    auto write_membership = [&store, &membership]() {
        const std::string json = membership.ToJson();
        store.Put("meta/membership", Blob(json.begin(), json.end()));
    };
    auto resolve_placement = [&membership, &problem, &placement]() {
        problem.live_ranks = membership.LiveRanks();
        problem.current = placement.assignments.empty()
                              ? problem.current
                              : placement.assignments;
        placement = SolvePlacement(problem);
        placement.version = membership.version();
        std::printf("coordinator: placement v%llu over %zu rank(s), moved "
                    "%zu replica(s) (%s)\n",
                    static_cast<unsigned long long>(placement.version),
                    problem.live_ranks.size(), placement.moved_replicas,
                    FormatBytes(placement.moved_bytes).c_str());
    };

    obs::ClusterAggregator& cluster = obs::ClusterAggregator::Instance();
    CheckpointCoordinator coordinator(*transport, {});
    coordinator.SetMessageObserver([&cluster](const net::Message& msg) {
        if (msg.type == net::MsgType::kTelemetry) {
            try {
                cluster.Observe(
                    net::DecodeTelemetry(msg.payload),
                    static_cast<std::int64_t>(obs::Tracer::NowNs()));
            } catch (const std::exception&) {
            }
        } else if (msg.type == net::MsgType::kPeerDeath) {
            cluster.ObservePeerDeath(static_cast<std::int32_t>(msg.from),
                                     "transport");
        }
    });

    bool had_rejoin = false;
    // One admission + reply, shared by the initial handshake loop and the
    // post-barrier rejoin path.
    auto handle_join = [&](const net::Message& msg) -> bool {
        ckpt::JoinRequest request;
        try {
            request = ckpt::DecodeJoinRequest(msg.payload);
        } catch (const std::runtime_error&) {
            return false;
        }
        ckpt::JoinAccept verdict = membership.OnJoinRequest(
            static_cast<std::size_t>(msg.from), msg.epoch,
            request.incarnation);
        if (verdict.accepted) {
            const bool rejoin =
                membership.Info(static_cast<std::size_t>(msg.from)).state ==
                ckpt::MemberState::kRejoined;
            had_rejoin = had_rejoin || rejoin;
            resolve_placement();
            std::printf("coordinator: rank %u %s (membership v%llu)\n",
                        msg.from, rejoin ? "REJOINED" : "joined",
                        static_cast<unsigned long long>(
                            verdict.membership_version));
        } else {
            std::printf("coordinator: rank %u join REJECTED: %s\n", msg.from,
                        verdict.reason.c_str());
        }
        verdict.placement = placement;
        transport->Send(msg.from, net::MsgType::kJoinAccept,
                        ckpt::EncodeJoinAccept(verdict));
        write_membership();
        return verdict.accepted;
    };

    // Initial admission: every rank asks in over kJoinRequest right after
    // its transport handshake; the membership table records its epoch.
    {
        std::size_t admitted = 0;
        const WallClock clock;
        const Seconds deadline = clock.Now() + join_timeout_s;
        while (admitted < ranks && clock.Now() < deadline) {
            auto msg = transport->Recv(0.1);
            if (!msg) {
                continue;
            }
            if (msg->type == net::MsgType::kJoinRequest) {
                if (handle_join(*msg)) {
                    ++admitted;
                }
            }
            // Telemetry before admission is dropped; the run hasn't begun.
        }
        if (admitted < ranks) {
            std::fprintf(stderr,
                         "coordinator: only %zu/%zu ranks admitted\n",
                         admitted, ranks);
            return 1;
        }
    }

    Table t({"generation", "sealed", "reports", "dead", "live", "wait (s)"});
    std::uint64_t bytes_total = 0;
    std::uint64_t bytes_saved = 0;
    bool sealed_after_rejoin = false;
    for (std::size_t event = 1; event <= events; ++event) {
        const std::vector<std::size_t> live = membership.LiveRanks();
        std::vector<net::PeerId> participants;
        for (const std::size_t r : live) {
            participants.push_back(static_cast<net::PeerId>(r));
        }
        coordinator.SetParticipants(participants);

        obs::TraceContext ctx;
        ctx.generation = event;
        ctx.iteration = event;
        ctx.phase = "barrier";
        const obs::TraceContextScope scope(ctx);
        ByteWriter extra_writer;
        ckpt::EncodePlacementAssignments(placement, extra_writer);
        const Blob extra = extra_writer.Take();
        coordinator.BeginGeneration(event, ctx, &extra);
        gen_assignments[event] = placement.assignments;

        WallClock clock;
        const Seconds wait_start = clock.Now();
        BarrierResult barrier;
        {
            const obs::TraceSpan span("net.barrier.wait", "net");
            barrier = coordinator.AwaitReports(event, barrier_deadline_s);
        }
        RecordReports(manifest, barrier);
        const bool sealed = SealIfComplete(manifest, event, barrier);
        for (const auto& done : barrier.reports) {
            membership.MarkLive(static_cast<std::size_t>(done.rank));
        }
        if (sealed && had_rejoin) {
            sealed_after_rejoin = true;
        }
        if (!barrier.dead.empty()) {
            // The elastic path: evict, abort the torn generation, replan
            // placement over the survivors, and KEEP CHECKPOINTING.
            for (const net::PeerId dead : barrier.dead) {
                membership.OnPeerDeath(static_cast<std::size_t>(dead),
                                       "transport");
            }
            manifest.MarkGenerationAborted(event);
            resolve_placement();
        }
        if (barrier.timed_out) {
            // Silent but transport-alive ranks: suspects, still members.
            std::set<net::PeerId> heard;
            for (const auto& done : barrier.reports) {
                heard.insert(done.rank);
            }
            for (const net::PeerId dead : barrier.dead) {
                heard.insert(dead);
            }
            for (const net::PeerId p : participants) {
                if (heard.count(p) == 0) {
                    membership.MarkSuspect(static_cast<std::size_t>(p));
                }
            }
        }
        // Joins surfaced mid-barrier are admitted here, after the seal
        // decision: a rejoiner first participates in the *next* generation
        // and can never ack the one its old incarnation died in.
        for (const auto& join : barrier.joins) {
            handle_join(join);
        }
        write_manifest();
        write_membership();
        AccumulateBarrierBytes(barrier, bytes_total, bytes_saved);
        SampleBarrier(event, clock.Now() - wait_start, bytes_total,
                      bytes_saved);
        t.AddRow({std::to_string(event), sealed ? "yes" : "no",
                  std::to_string(barrier.reports.size()),
                  std::to_string(barrier.dead.size()),
                  std::to_string(membership.LiveRanks().size()),
                  Table::Num(clock.Now() - wait_start, 3)});
    }
    coordinator.Shutdown();
    std::printf("%s", t.ToString().c_str());

    std::size_t deaths_journaled = 0;
    std::size_t stragglers_journaled = 0;
    std::size_t resurrections_journaled = 0;
    std::size_t membership_changes = 0;
    std::size_t membership_rejoins = 0;
    for (const auto& e : obs::EventJournal::Instance().Collect()) {
        deaths_journaled += e.kind == obs::EventKind::kPeerDeath ? 1 : 0;
        stragglers_journaled += e.kind == obs::EventKind::kStraggler ? 1 : 0;
        membership_changes +=
            e.kind == obs::EventKind::kMembershipChange ? 1 : 0;
        if (e.kind == obs::EventKind::kRejoin) {
            if (e.detail.rfind("resurrected", 0) == 0) {
                ++resurrections_journaled;
            } else {
                ++membership_rejoins;
            }
        }
    }
    std::printf("peer_death events journaled: %zu\n", deaths_journaled);
    std::printf("straggler events journaled: %zu\n", stragglers_journaled);
    std::printf("membership_change events journaled: %zu\n",
                membership_changes);
    std::printf("membership rejoins journaled: %zu\n", membership_rejoins);
    std::printf("resurrections journaled: %zu\n", resurrections_journaled);
    std::printf("sealed after rejoin: %s\n",
                sealed_after_rejoin ? "yes" : "no");

    // Restore against whatever membership is live NOW. When the chosen
    // sealed generation was written by a bigger world, the remap retargets
    // the dead ranks' shards onto the members that absorbed their experts.
    const std::vector<std::size_t> live = membership.LiveRanks();
    if (live.empty()) {
        std::fprintf(stderr, "coordinator: no live ranks to restore onto\n");
        return 1;
    }
    const auto probe = PlanClusterRestore(manifest);
    if (!probe) {
        std::fprintf(stderr, "coordinator: no sealed generation to restore "
                             "from\n");
        return 1;
    }
    RankRemap remap = BuildRankRemap(ranks, live);
    const auto sealed_assignments = gen_assignments.find(probe->generation);
    if (sealed_assignments != gen_assignments.end()) {
        AddExpertMoves(remap, sealed_assignments->second,
                       placement.assignments, ExpertShardKey);
    }
    const auto plan = PlanClusterRestore(manifest, std::nullopt,
                                         remap.empty() ? nullptr : &remap);
    const ClusterRestoreResult restored =
        ExecuteClusterRestore(manifest, store, *plan);
    std::printf("recovered generation=%zu shards=%zu damaged=%zu "
                "missing=%zu degraded=%zu\n",
                restored.generation, restored.shards_restored,
                restored.damaged.size(), plan->missing.size(),
                restored.degraded.size());
    std::printf("restore remap: %zu rank(s), %zu key override(s)\n",
                remap.ranks.size(), remap.keys.size());
    const bool ok = restored.damaged.empty() && plan->missing.empty() &&
                    restored.shards_restored > 0;
    std::printf("gauntlet: %s\n", ok ? "OK" : "FAILED");
    LingerLiveEndpoint(endpoint.get(), live_cfg.linger_s);
    return ok ? 0 : 1;
}

int
RunRank(std::size_t rank, std::size_t ranks, const std::string& ckpt_dir,
        const std::string& port_file, const net::SocketOptions& net_opts,
        Seconds join_timeout_s, std::vector<ProcFaultSpec> fault_specs,
        double ballast_ms, const obs::ObsOptions& obs_options,
        bool elastic = false, std::size_t respawned = 0) {
    const std::uint16_t port = AwaitPortFile(port_file, join_timeout_s);
    if (port == 0) {
        std::fprintf(stderr, "rank %zu: coordinator port never appeared\n",
                     rank);
        return 1;
    }
    auto transport = net::SocketTransport::Connect(
        "127.0.0.1", port, static_cast<net::PeerId>(rank), net_opts);

    FileStore base(ckpt_dir);
    ResilientStore store(base);
    const ShardPlan plan = BuildGauntletPlan(ranks);
    // A respawned incarnation never re-fires the fault that killed its
    // predecessor: the spec targeted the original incarnation's event, and
    // re-raising it would just kill the rejoiner forever.
    if (respawned > 0) {
        fault_specs.clear();
    }
    ProcFaultSchedule faults(std::move(fault_specs), rank);
    RankParticipant participant(*transport);

    // The elastic admission handshake: announce this incarnation, wait for
    // the coordinator's verdict. A stale epoch (a zombie from before the
    // respawn) is rejected here, never at the barrier.
    PlacementPlan current_placement;
    if (elastic) {
        ckpt::JoinRequest request;
        request.rank = rank;
        request.incarnation = respawned + 1;
        transport->Send(net::kCoordinatorPeer, net::MsgType::kJoinRequest,
                        ckpt::EncodeJoinRequest(request));
        const WallClock clock;
        const Seconds deadline = clock.Now() + join_timeout_s;
        bool admitted = false;
        while (!admitted && clock.Now() < deadline) {
            auto msg = transport->Recv(0.1);
            if (!msg) {
                continue;
            }
            if (msg->type == net::MsgType::kJoinAccept) {
                const ckpt::JoinAccept verdict =
                    ckpt::DecodeJoinAccept(msg->payload);
                if (!verdict.accepted) {
                    std::fprintf(stderr, "rank %zu: join rejected: %s\n",
                                 rank, verdict.reason.c_str());
                    return 1;
                }
                current_placement = verdict.placement;
                admitted = true;
            } else if (msg->type == net::MsgType::kPeerDeath) {
                std::fprintf(stderr,
                             "rank %zu: coordinator died before admission\n",
                             rank);
                return 1;
            }
            // No kCkptBegin can precede the verdict: the coordinator admits
            // joins between barriers and TCP preserves ordering, so the
            // kJoinAccept always lands before the next begin frame.
        }
        if (!admitted) {
            std::fprintf(stderr, "rank %zu: no join verdict within "
                                 "deadline\n",
                         rank);
            return 1;
        }
        std::printf("rank %zu: admitted (incarnation %zu, placement v%llu)\n",
                    rank, respawned + 1,
                    static_cast<unsigned long long>(
                        current_placement.version));
    }

    // Stream this rank's pulse to the coordinator. The publisher samples
    // in the background; phase edges additionally PublishNow() so the
    // aggregator sees transitions promptly.
    net::TelemetryPublisher::Options tel_opts;
    tel_opts.coordinator = net::kCoordinatorPeer;
    tel_opts.rank = static_cast<std::int32_t>(rank);
    net::TelemetryPublisher telemetry(*transport, tel_opts);
    telemetry.Start();

    while (true) {
        const auto begin = participant.AwaitBegin(join_timeout_s);
        if (!begin) {
            std::fprintf(stderr, "rank %zu: no begin within deadline\n",
                         rank);
            return 1;
        }
        if (begin->shutdown) {
            // Announce the disconnect so the coordinator retires this
            // connection instead of declaring a death on the EOF.
            transport->Send(net::kCoordinatorPeer, net::MsgType::kGoodbye,
                            {});
            break;
        }
        const auto event = static_cast<std::size_t>(begin->iteration);
        obs::TraceContext ctx;
        ctx.generation = begin->ctx.generation;
        ctx.iteration = begin->iteration;
        ctx.rank = static_cast<std::int32_t>(rank);
        ctx.phase = "persist";
        const obs::TraceContextScope scope(ctx);
        const obs::TraceSpan span("gauntlet.persist", "cluster");
        obs::SetRankActivity("persist", ctx.generation, begin->iteration);
        telemetry.PublishNow();
        const std::int64_t persist_start_ns = obs::Tracer::NowNs();

        // Elastic begins carry the placement the coordinator solved for
        // this generation; the shard list follows it, not the static plan.
        std::vector<ShardItem> items;
        if (elastic) {
            if (!begin->extra.empty()) {
                try {
                    ByteReader extra_reader(begin->extra);
                    current_placement =
                        ckpt::DecodePlacementAssignments(extra_reader);
                } catch (const std::runtime_error&) {
                    // Keep the last good placement; the coordinator's done
                    // report will still CRC-match whatever we persist.
                }
            }
            items = ElasticItems(rank, current_placement);
        } else {
            items = plan.Items(rank);
        }

        std::vector<ShardReport> reports;
        bool ok = true;
        std::size_t shards_done = 0;
        for (const auto& item : items) {
            // The fault schedule fires *between* shard writes, so a kill
            // mid-generation leaves exactly `after` durable shards — a
            // genuinely torn generation for fsck to find.
            faults.Poll(event, "persist", shards_done);
            if (ballast_ms > 0.0) {
                // The deliberate straggler: drag out this rank's persist
                // so the cluster-median detector has something to catch.
                std::this_thread::sleep_for(std::chrono::duration<double,
                                            std::milli>(ballast_ms));
            }
            ShardReport report;
            report.key = "rank" + std::to_string(rank) + "/" + item.key;
            report.iteration = event;
            const Blob blob = SyntheticShardBytes(item, event);
            report.bytes = blob.size();
            report.crc = Crc32c(blob.data(), blob.size());
            try {
                store.Put(VersionedShardKey(report.key, event), blob);
                report.verified = true;  // ResilientStore read-back verified
            } catch (const StoreError&) {
                report.failed = true;
                ok = false;
            }
            reports.push_back(std::move(report));
            ++shards_done;
        }
        faults.Poll(event, "barrier", shards_done);
        participant.SendDone(begin->iteration, std::move(reports), ok, ctx);
        obs::SetRankActivity("", ctx.generation, begin->iteration);
        telemetry.PublishNow();
        // Rank-side trajectory: one point per generation, so a rank's
        // --series-out artifact carries its own persist timings.
        obs::SampleIteration(
            event, static_cast<double>(obs::Tracer::NowNs() -
                                       persist_start_ns) /
                       1e9);
        // Re-export after every generation: a rank SIGKILL'd next gen
        // still leaves artifacts for the launcher's cluster merge.
        obs::ExportObs(obs_options);
    }
    telemetry.Stop();
    std::printf("rank %zu: shutdown after clean run\n", rank);
    return 0;
}

}  // namespace

int
main(int argc, char** argv) {
    const obs::ObsExportGuard obs_guard(argc, argv);
    const std::string role = FlagStr(argc, argv, "role", "");
    const std::size_t ranks = FlagSize(argc, argv, "ranks", 3);
    const std::size_t events = FlagSize(argc, argv, "events", 3);
    const std::size_t rank = FlagSize(argc, argv, "rank", 0);
    const std::string ckpt_dir =
        FlagStr(argc, argv, "ckpt-dir", "/tmp/moc_gauntlet");
    // Sibling of the checkpoint dir, NOT inside it: fsck scrubs every file
    // under the store root and would flag a CRC-less port file as damage.
    const std::string default_port_file = ckpt_dir + ".port";
    const std::string port_file =
        FlagStr(argc, argv, "port-file", default_port_file.c_str());
    const double join_timeout_s =
        FlagDouble(argc, argv, "join-timeout-s", 30.0);
    const double barrier_deadline_s =
        FlagDouble(argc, argv, "barrier-deadline-s", 10.0);
    const bool elastic = FlagSize(argc, argv, "elastic", 0) != 0;
    // Stamped by moc_launcher --respawn supervision on re-forked ranks;
    // doubles as the incarnation counter in the join handshake.
    const std::size_t respawned = FlagSize(argc, argv, "respawned", 0);

    // The live scrape endpoint (coordinator only; docs/OBSERVABILITY.md).
    LiveEndpointConfig live;
    live.port = static_cast<int>(FlagDouble(argc, argv, "http-port", -1.0));
    const std::string default_http_file = ckpt_dir + ".http";
    live.port_file =
        FlagStr(argc, argv, "http-port-file", default_http_file.c_str());
    live.linger_s = FlagDouble(argc, argv, "linger-s", 0.0);

    net::SocketOptions net_opts;
    net_opts.heartbeat.interval_s =
        FlagDouble(argc, argv, "hb-interval-s", 0.05);
    net_opts.heartbeat.miss_limit = FlagSize(argc, argv, "hb-miss", 5);

    if (role != "coordinator" && role != "rank") {
        std::printf(
            "usage: cluster_procs --role coordinator|rank [--rank R]\n"
            "    [--ranks N] [--events N] [--ckpt-dir DIR] [--port-file F]\n"
            "    [--hb-interval-s S] [--hb-miss N] [--barrier-deadline-s S]\n"
            "    [--join-timeout-s S] [--fault SPEC]...\n"
            "    [--ballast-rank R --ballast-ms M] [--elastic 1]\n"
            "    [--http-port P] [--http-port-file F] [--linger-s S]\n"
            "  fault SPEC: kill|stop|respawn:rank=R:event=E"
            "[:phase=persist|barrier][:after=N]\n"
            "  elastic: membership-driven barriers — deaths evict + replan\n"
            "  expert placement and the run continues; respawned ranks\n"
            "  rejoin via the kJoinRequest handshake (moc_launcher\n"
            "  --respawn N re-forks signal-killed ranks)\n"
            "  ballast: rank R sleeps M ms between shard writes — a\n"
            "  deliberate straggler for the cluster plane to flag\n"
            "  http-port: coordinator serves /metrics /healthz /ranks\n"
            "  /series live on 127.0.0.1 (0 = ephemeral; the bound port is\n"
            "  printed and published to http-port-file); linger-s keeps the\n"
            "  endpoint up that long after the run for scrapers\n"
            "(normally launched as a fleet by tools/moc_launcher)\n");
        return 2;
    }
    if (ranks == 0 || events == 0 || (role == "rank" && rank >= ranks)) {
        std::fprintf(stderr, "cluster_procs: bad --ranks/--events/--rank\n");
        return 2;
    }
    // Role-stamp every export so the launcher's merge (obs/merge.h) can
    // attribute events and spans without relying on file names.
    obs::SetRunRole(role == "coordinator"
                        ? role
                        : "rank" + std::to_string(rank));
    const double ballast_rank = FlagDouble(argc, argv, "ballast-rank", -1.0);
    const double ballast_ms =
        role == "rank" && ballast_rank == static_cast<double>(rank)
            ? FlagDouble(argc, argv, "ballast-ms", 0.0)
            : 0.0;

    try {
        if (role == "coordinator") {
            return elastic ? RunElasticCoordinator(ranks, events, ckpt_dir,
                                                   port_file, net_opts,
                                                   join_timeout_s,
                                                   barrier_deadline_s, live)
                           : RunCoordinator(ranks, events, ckpt_dir,
                                            port_file, net_opts,
                                            join_timeout_s,
                                            barrier_deadline_s, live);
        }
        return RunRank(rank, ranks, ckpt_dir, port_file, net_opts,
                       join_timeout_s, FlagFaults(argc, argv), ballast_ms,
                       obs_guard.options(), elastic, respawned);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cluster_procs(%s): %s\n", role.c_str(),
                     e.what());
        return 1;
    }
}
