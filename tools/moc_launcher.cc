/**
 * @file
 * Process launcher for the multi-process cluster gauntlet: forks one
 * coordinator and N rank processes of `examples/cluster_procs` (or any
 * binary speaking its flags), supervises them, and reports the
 * coordinator's verdict.
 *
 *   moc_launcher --binary build/examples/cluster_procs --ranks 3 \
 *       --events 3 --ckpt-dir /tmp/gauntlet \
 *       --fault kill:rank=1:event=2:phase=persist:after=3
 *
 * Supervision rules:
 *  - every flag the launcher does not consume is passed through to every
 *    child (plus `--role`/`--rank`); per-role observability exports get
 *    distinct file names via `--events-out-dir`;
 *  - `--obs-out-dir DIR` wires per-role journal/metrics/trace exports into
 *    DIR and, after teardown — on *every* exit path, including timeout and
 *    SIGKILL'd ranks — merges them onto the coordinator clock as
 *    DIR/cluster_events.jsonl, cluster_trace.json, cluster_metrics.json
 *    (obs/merge.h; torn artifacts of killed ranks are skipped + counted);
 *  - the run's exit code is the coordinator's exit code — a rank dying is
 *    the *experiment*, not a launcher failure;
 *  - when the coordinator exits, every surviving child is SIGKILLed
 *    (SIGKILL also reaps SIGSTOPped ranks left frozen by a `stop:` fault);
 *  - `--timeout-s` bounds the whole run: on expiry everything is killed
 *    and the launcher exits 124 (the `timeout(1)` convention);
 *  - before forking, the port files a previous launch into the same
 *    `--ckpt-dir` published are removed, so a relaunch's ranks wait for
 *    the new coordinator's port instead of dialling the old one.
 */

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/merge.h"

namespace {

struct Child {
    pid_t pid = -1;
    std::string role;  // "coordinator" or "rank<k>"
    bool exited = false;
    bool reported = false;
    int status = 0;
    /** The argv it was spawned with, kept for --respawn re-forks. */
    std::vector<std::string> args;
    bool rank_child = false;
    /** Times this rank has been re-forked after a signal death. */
    std::size_t respawns = 0;
};

/** `--name value` lookup. */
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

/** Flags the launcher consumes; everything else passes through. */
bool
LauncherFlag(const std::string& flag) {
    return flag == "--binary" || flag == "--timeout-s" ||
           flag == "--events-out-dir" || flag == "--metrics-out-dir" ||
           flag == "--obs-out-dir" || flag == "--respawn" ||
           flag == "--http-port";
}

/**
 * Removes the rendezvous files a previous launch into the same --ckpt-dir
 * left behind: the transport port file and the live endpoint's port file
 * (given by --port-file / --http-port-file, or cluster_procs' defaults
 * beside the checkpoint directory). A rank forked before the new
 * coordinator publishes its port would otherwise read the old one, dial
 * a dead port, and never join.
 */
void
RemoveStaleRendezvousFiles(int argc, char** argv) {
    const std::string ckpt_dir =
        FlagStr(argc, argv, "ckpt-dir", "/tmp/moc_gauntlet");
    const std::string port_file = ckpt_dir + ".port";
    const std::string http_file = ckpt_dir + ".http";
    for (const char* path :
         {FlagStr(argc, argv, "port-file", port_file.c_str()),
          FlagStr(argc, argv, "http-port-file", http_file.c_str())}) {
        if (::unlink(path) != 0 && errno != ENOENT) {
            std::fprintf(stderr, "moc_launcher: cannot remove stale %s: %s\n",
                         path, std::strerror(errno));
        }
    }
}

pid_t
Spawn(const std::string& binary, const std::vector<std::string>& args) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const auto& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(binary.c_str(), argv.data());
        std::fprintf(stderr, "moc_launcher: execv %s: %s\n", binary.c_str(),
                     std::strerror(errno));
        ::_exit(127);
    }
    return pid;
}

void
KillSurvivors(std::vector<Child>& children) {
    for (auto& child : children) {
        if (!child.exited && child.pid > 0) {
            // SIGKILL delivers to SIGSTOPped processes too — a rank a
            // `stop:` fault froze is reaped here, not leaked.
            ::kill(child.pid, SIGKILL);
        }
    }
    for (auto& child : children) {
        if (!child.exited && child.pid > 0) {
            ::waitpid(child.pid, &child.status, 0);
            child.exited = true;
        }
    }
}

/** Whole-file read; empty + false when unreadable (never-started rank). */
bool
ReadFileIfAny(const std::string& path, std::string* text) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    *text = buf.str();
    return true;
}

/**
 * Merges the per-role artifacts under @p dir onto the coordinator clock.
 * Runs after teardown on every exit path: the artifacts of SIGKILL'd or
 * timed-out ranks are exactly the evidence a post-mortem needs, so missing
 * files and torn tails are warnings with counts, never failures.
 */
void
MergeObsArtifacts(const std::string& dir,
                  const std::vector<std::string>& roles) {
    std::vector<moc::obs::RoleEvents> role_events;
    std::vector<moc::obs::RoleSpans> role_spans;
    std::vector<std::pair<std::string, std::string>> role_metrics;
    std::size_t torn_traces = 0;
    for (const std::string& role : roles) {
        std::string text;
        if (ReadFileIfAny(dir + "/" + role + ".events.jsonl", &text)) {
            role_events.push_back(
                moc::obs::ParseRoleEventsJsonl(text, role));
        }
        if (ReadFileIfAny(dir + "/" + role + ".trace.json", &text)) {
            try {
                role_spans.push_back(moc::obs::ParseRoleTrace(text, role));
            } catch (const std::exception&) {
                ++torn_traces;  // killed mid-write; the journal still merges
            }
        }
        if (ReadFileIfAny(dir + "/" + role + ".metrics.json", &text)) {
            role_metrics.emplace_back(role, std::move(text));
        }
    }

    const moc::obs::MergedEvents merged =
        moc::obs::MergeRoleEvents(role_events);
    moc::obs::WriteTextFile(dir + "/cluster_events.jsonl",
                            moc::obs::ClusterEventsJsonl(merged),
                            "cluster journal");
    moc::obs::WriteTextFile(dir + "/cluster_trace.json",
                            moc::obs::MergedChromeTraceJson(role_spans),
                            "cluster trace");
    std::size_t torn_metrics = 0;
    moc::obs::WriteTextFile(
        dir + "/cluster_metrics.json",
        moc::obs::ClusterMetricsJson(role_metrics, &torn_metrics),
        "cluster metrics");

    std::printf("moc_launcher: merged %zu/%zu role journal(s) (%zu events) "
                "into %s/cluster_events.jsonl\n",
                role_events.size(), roles.size(), merged.events.size(),
                dir.c_str());
    if (merged.skipped_lines > 0) {
        std::printf("moc_launcher: warning: skipped %zu malformed journal "
                    "line(s) (torn tails of killed ranks)\n",
                    merged.skipped_lines);
    }
    if (torn_traces > 0) {
        std::printf("moc_launcher: warning: %zu role trace(s) unreadable\n",
                    torn_traces);
    }
    if (torn_metrics > 0) {
        std::printf("moc_launcher: warning: %zu role metrics dump(s) "
                    "unreadable\n",
                    torn_metrics);
    }
}

void
ReportChild(Child& child) {
    if (child.reported) {
        return;
    }
    child.reported = true;
    if (WIFSIGNALED(child.status)) {
        std::printf("moc_launcher: %s (pid %d) killed by signal %d%s\n",
                    child.role.c_str(), child.pid, WTERMSIG(child.status),
                    WTERMSIG(child.status) == SIGKILL ? " (SIGKILL)" : "");
    } else if (WIFEXITED(child.status)) {
        std::printf("moc_launcher: %s (pid %d) exited %d\n",
                    child.role.c_str(), child.pid,
                    WEXITSTATUS(child.status));
    }
}

}  // namespace

int
main(int argc, char** argv) {
    const char* binary = FlagStr(argc, argv, "binary", nullptr);
    const double timeout_s = FlagDouble(argc, argv, "timeout-s", 120.0);
    // --respawn N: a rank killed by a signal is re-forked (same argv plus
    // --respawned <count>) up to N times per rank — the supervisor half of
    // the elastic rejoin story. The coordinator is never respawned: it owns
    // the run's identity and verdict.
    const auto respawn_budget =
        static_cast<std::size_t>(FlagDouble(argc, argv, "respawn", 0));
    const char* obs_dir = FlagStr(argc, argv, "obs-out-dir", nullptr);
    // Consumed here and handed to the coordinator only: the ranks must not
    // race for one fixed port — the coordinator owns the scrape surface.
    const char* http_port = FlagStr(argc, argv, "http-port", nullptr);
    // --obs-out-dir implies per-role journal + metrics exports there too.
    const char* events_dir =
        FlagStr(argc, argv, "events-out-dir", obs_dir);
    const char* metrics_dir =
        FlagStr(argc, argv, "metrics-out-dir", obs_dir);
    const auto ranks =
        static_cast<std::size_t>(FlagDouble(argc, argv, "ranks", 3));
    if (binary == nullptr || ranks == 0) {
        std::printf("usage: moc_launcher --binary PATH [--ranks N] "
                    "[--timeout-s S] [--respawn N] [--obs-out-dir DIR] "
                    "[--events-out-dir DIR] [--metrics-out-dir DIR] "
                    "[--http-port P] "
                    "[passthrough flags for the binary...]\n"
                    "  --http-port P: coordinator serves the live endpoint "
                    "on 127.0.0.1:P (0 = ephemeral; port printed and "
                    "published next to the transport port file)\n");
        return 2;
    }
    if (obs_dir != nullptr) {
        ::mkdir(obs_dir, 0755);  // EEXIST is fine
    }

    // Pass-through: every flag pair the launcher didn't consume.
    std::vector<std::string> shared;
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i][0] == '-' && argv[i][1] == '-') {
            if (LauncherFlag(argv[i])) {
                ++i;
                continue;
            }
            shared.push_back(argv[i]);
            shared.push_back(argv[i + 1]);
            ++i;
        }
    }

    RemoveStaleRendezvousFiles(argc, argv);
    std::vector<Child> children;
    {
        std::vector<std::string> args = shared;
        args.emplace_back("--role");
        args.emplace_back("coordinator");
        if (http_port != nullptr) {
            args.emplace_back("--http-port");
            args.emplace_back(http_port);
        }
        if (events_dir != nullptr) {
            args.emplace_back("--events-out");
            args.emplace_back(std::string(events_dir) +
                              "/coordinator.events.jsonl");
        }
        if (metrics_dir != nullptr) {
            args.emplace_back("--metrics-out");
            args.emplace_back(std::string(metrics_dir) +
                              "/coordinator.metrics.json");
        }
        if (obs_dir != nullptr) {
            args.emplace_back("--trace-out");
            args.emplace_back(std::string(obs_dir) +
                              "/coordinator.trace.json");
            args.emplace_back("--prom-out");
            args.emplace_back(std::string(obs_dir) +
                              "/coordinator.prom.txt");
            args.emplace_back("--series-out");
            args.emplace_back(std::string(obs_dir) +
                              "/coordinator.series.jsonl");
        }
        Child child;
        child.pid = Spawn(binary, args);
        child.role = "coordinator";
        child.args = std::move(args);
        children.push_back(std::move(child));
    }
    for (std::size_t r = 0; r < ranks; ++r) {
        std::vector<std::string> args = shared;
        args.emplace_back("--role");
        args.emplace_back("rank");
        args.emplace_back("--rank");
        args.emplace_back(std::to_string(r));
        if (events_dir != nullptr) {
            args.emplace_back("--events-out");
            args.emplace_back(std::string(events_dir) + "/rank" +
                              std::to_string(r) + ".events.jsonl");
        }
        if (metrics_dir != nullptr) {
            args.emplace_back("--metrics-out");
            args.emplace_back(std::string(metrics_dir) + "/rank" +
                              std::to_string(r) + ".metrics.json");
        }
        if (obs_dir != nullptr) {
            args.emplace_back("--trace-out");
            args.emplace_back(std::string(obs_dir) + "/rank" +
                              std::to_string(r) + ".trace.json");
            args.emplace_back("--series-out");
            args.emplace_back(std::string(obs_dir) + "/rank" +
                              std::to_string(r) + ".series.jsonl");
        }
        Child child;
        child.pid = Spawn(binary, args);
        child.role = "rank" + std::to_string(r);
        child.args = std::move(args);
        child.rank_child = true;
        children.push_back(std::move(child));
    }
    for (const auto& child : children) {
        if (child.pid < 0) {
            std::fprintf(stderr, "moc_launcher: fork failed\n");
            KillSurvivors(children);
            return 1;
        }
    }
    std::printf("moc_launcher: %zu rank(s) + coordinator launched from %s\n",
                ranks, binary);

    // Supervise: poll for exits until the coordinator finishes or the
    // global timeout expires. Rank deaths in between are logged and left
    // for the coordinator to handle — they are the experiment.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(timeout_s));
    Child* coordinator = &children.front();
    while (!coordinator->exited) {
        if (std::chrono::steady_clock::now() >= deadline) {
            std::fprintf(stderr,
                         "moc_launcher: timeout after %.1fs, killing fleet\n",
                         timeout_s);
            KillSurvivors(children);
            if (obs_dir != nullptr) {
                std::vector<std::string> roles;
                for (const auto& child : children) {
                    roles.push_back(child.role);
                }
                MergeObsArtifacts(obs_dir, roles);
            }
            return 124;
        }
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        for (auto& child : children) {
            if (child.pid == pid) {
                child.exited = true;
                child.status = status;
                ReportChild(child);
                if (child.rank_child && WIFSIGNALED(status) &&
                    child.respawns < respawn_budget) {
                    // The elastic rejoin path: same argv, fresh process,
                    // fresh transport epoch. --respawned tells the rank its
                    // incarnation (and to skip re-arming its fault specs —
                    // the death already happened).
                    ++child.respawns;
                    std::vector<std::string> args = child.args;
                    args.emplace_back("--respawned");
                    args.emplace_back(std::to_string(child.respawns));
                    child.pid = Spawn(binary, args);
                    child.exited = false;
                    child.reported = false;
                    std::printf("moc_launcher: respawned %s (attempt %zu, "
                                "pid %d)\n",
                                child.role.c_str(), child.respawns,
                                child.pid);
                }
                break;
            }
        }
    }

    KillSurvivors(children);
    for (auto& child : children) {
        if (&child != coordinator) {
            ReportChild(child);
        }
    }
    if (obs_dir != nullptr) {
        std::vector<std::string> roles;
        for (const auto& child : children) {
            roles.push_back(child.role);
        }
        MergeObsArtifacts(obs_dir, roles);
    }
    const int code = WIFEXITED(coordinator->status)
                         ? WEXITSTATUS(coordinator->status)
                         : 128 + WTERMSIG(coordinator->status);
    std::printf("moc_launcher: coordinator verdict %d\n", code);
    return code;
}
