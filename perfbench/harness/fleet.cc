/**
 * @file
 * The net layer, measured on a real fleet: moc_launcher runs cluster_procs
 * with --elastic 1 --respawn 1 — three rank processes and a coordinator
 * over loopback TCP — for kGenerations generations in which every rank is
 * SIGKILLed once, at a seeded generation and shard, and respawned. This
 * exercises the socket transport, the barrier, EOF death detection and
 * membership rejoin, which no in-process workload reaches.
 *
 * The fleet is a per-layer probe of engine_pec's traced run, not a
 * workload of its own: its per-generation time is bound by five processes
 * on the machine's cores and by fsyncs to the shared disk, and swung
 * 11 -> 58 ms between runs of one code (see README.md). Its layer counts
 * come from the coordinator's own --obs-out-dir exports.
 *
 * Every launch gets a fresh --ckpt-dir, so no launch can read an earlier
 * launch's <ckpt-dir>.port file (see README.md, "Known defects").
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/workloads.h"
#include "obs/merge.h"
#include "util/json.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr std::size_t kRanks = 3;
constexpr std::size_t kGenerations = 100;
/** Launches per probe: each one kills every rank once. */
constexpr std::size_t kLaunches = 2;

std::string
ReadFile(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The seeded faults of every launch: each rank dies once, in its own
 * third of the run (so each rejoin completes before the next kill), after
 * a seeded number of its shard writes.
 */
std::vector<std::string>
KillSchedule(std::uint64_t seed) {
    moc::Rng rng(seed ^ 0xF1EE7ULL);
    std::vector<std::int64_t> ranks = {0, 1, 2};
    for (std::size_t i = ranks.size() - 1; i > 0; --i) {
        std::swap(ranks[i], ranks[rng.UniformInt(i + 1)]);
    }
    std::vector<std::string> kills;
    const std::size_t third = kGenerations / kRanks;
    for (std::size_t k = 0; k < kRanks; ++k) {
        const std::uint64_t event = k * third + 10 + rng.UniformInt(third - 20);
        const std::uint64_t after = rng.UniformInt(4);
        kills.push_back("kill:rank=" + std::to_string(ranks[k]) +
                        ":event=" + std::to_string(event) +
                        ":phase=persist:after=" + std::to_string(after));
    }
    return kills;
}

/** Spawns the launcher with stdout+stderr to @p out; returns its wait
    status. */
int
SpawnAndWait(const std::vector<std::string>& args,
             const std::filesystem::path& out) {
    std::vector<char*> argv;
    for (const auto& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        throw std::runtime_error("cannot spawn " + args[0]);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

/** The net layer over all launches of a probe. */
struct NetLayer {
    /** Coordinator counters summed over launches (histograms as
        <name>.count). */
    std::map<std::string, double> counters;
    std::vector<double> barrier_wait_ms;
    std::size_t generations = 0;
};

/**
 * One fleet launch into a fresh directory; output checks fill @p report,
 * the coordinator's exports fill @p net. The coordinator always exits
 * cleanly, so a torn coordinator export throws (a failed run).
 */
void
RunLaunch(const RunOptions& options, std::size_t index,
          const std::vector<std::string>& kills, NetLayer& net,
          Report& report) {
    const auto dir = options.work_dir / ("fleet-" + std::to_string(index));
    FreshDir(dir);
    const auto obs = dir / "obs";
    std::vector<std::string> args = {
        (options.bin_dir / "moc_launcher").string(),
        "--binary", (options.bin_dir / "cluster_procs").string(),
        "--ranks", std::to_string(kRanks),
        "--events", std::to_string(kGenerations),
        "--ckpt-dir", (dir / "ckpt").string(),
        "--obs-out-dir", obs.string(),
        "--elastic", "1",
        "--respawn", "1",
        "--timeout-s", "60",
    };
    for (const auto& kill : kills) {
        args.push_back("--fault");
        args.push_back(kill);
    }
    const int status = SpawnAndWait(args, dir / "launcher.txt");

    const std::string out = ReadFile(dir / "launcher.txt");
    const bool verdict = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                         out.find("coordinator verdict 0") != std::string::npos;
    const bool recovered = std::regex_search(
        out, std::regex("recovered generation=[0-9]+ shards=[0-9]+ "
                        "damaged=0 missing=0"));
    const bool rejoined =
        out.find("sealed after rejoin: yes") != std::string::npos;
    report.Check(verdict && recovered && rejoined,
                 "fleet launch " + std::to_string(index) + ": verdict " +
                     (verdict ? "0" : "nonzero") + ", recovered clean " +
                     (recovered ? "yes" : "no") + ", sealed after rejoin " +
                     (rejoined ? "yes" : "no"));

    // The generations the kills tear are the experiment; any other
    // unsealed generation, or a rank that never comes back live, fails.
    const auto journal = moc::obs::ParseRoleEventsJsonl(
        ReadFile(obs / "coordinator.events.jsonl"), "coordinator");
    std::size_t sealed = 0;
    std::size_t unsealed = 0;
    std::set<std::int64_t> dead;
    std::size_t rejoins = 0;
    for (const auto& e : journal.events) {
        if (e.kind == moc::obs::EventKind::kClusterSeal) {
            const bool ok = e.detail.rfind("sealed", 0) == 0;
            sealed += ok ? 1 : 0;
            unsealed += ok ? 0 : 1;
        } else if (e.kind == moc::obs::EventKind::kPeerDeath) {
            dead.insert(e.scope);
        } else if (e.kind == moc::obs::EventKind::kMembershipChange &&
                   e.detail.rfind("rejoined->live", 0) == 0 &&
                   dead.erase(e.scope) != 0) {
            ++rejoins;
        }
    }
    for (std::size_t g = 0; g < sealed; ++g) {
        report.Check(true, "");
    }
    report.Check(unsealed == kills.size() &&
                     sealed + unsealed == kGenerations,
                 "fleet launch " + std::to_string(index) + ": " +
                     std::to_string(sealed) + " sealed, " +
                     std::to_string(unsealed) + " unsealed generation(s)");
    for (std::size_t k = 0; k < kills.size(); ++k) {
        report.Check(k < rejoins, "fleet launch " + std::to_string(index) +
                                      ": a killed rank never came back live");
    }

    const auto metrics =
        moc::json::Parse(ReadFile(obs / "coordinator.metrics.json"));
    for (const auto& [key, value] : metrics.At("counters").AsObject()) {
        net.counters[key] += value.AsNumber();
    }
    for (const auto& [key, value] : metrics.At("histograms").AsObject()) {
        net.counters[key + ".count"] += value.At("count").AsNumber();
    }
    const auto trace = moc::obs::ParseRoleTrace(
        ReadFile(obs / "coordinator.trace.json"), "coordinator.trace.json");
    for (const auto& span : trace.spans) {
        if (span.name == "net.barrier.wait") {
            net.barrier_wait_ms.push_back(
                static_cast<double>(span.duration_ns) / 1e6);
        }
    }
    net.generations += kGenerations;
}

}  // namespace

void
AddFleetNetLayer(const RunOptions& options, Report& report) {
    const std::vector<std::string> kills = KillSchedule(options.seed);
    NetLayer net;
    for (std::size_t i = 0; i < kLaunches; ++i) {
        RunLaunch(options, i, kills, net, report);
    }
    std::filesystem::remove_all(options.work_dir);
    const double per = 1.0 / static_cast<double>(net.generations);
    auto counter = [&](const std::string& key) {
        const auto it = net.counters.find(key);
        return it == net.counters.end() ? 0.0 : it->second * per;
    };
    report.Add("net.frames_sent", "count/event", counter("net.frames_sent"));
    report.Add("net.bytes_sent", "B/event", counter("net.bytes_sent"));
    report.Add("net.barrier_waits", "count/event",
               counter("net.barrier.waits"));
    report.Add("net.barrier_timeouts", "count/event",
               counter("net.barrier.timeouts"));
    report.Add("net.peer_deaths", "count/event", counter("net.peer_deaths"));
    report.Add("net.barrier_wait_ms_p50", "ms",
               Percentile(net.barrier_wait_ms, 0.5),
               net.barrier_wait_ms.size());
}

}  // namespace perfbench
