/**
 * @file
 * perfbench_runner: runs one benchmark workload and prints its metrics.
 *
 *   perfbench_runner --workload engine_pec --seed 1 --seconds 10 \
 *       --trace 0 --work-dir DIR --bin-dir DIR
 *
 * Prints one human-readable line per metric (name, value, unit, samples),
 * every failed output check, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Exits 1 when a check
 * failed, 2 on bad arguments. perfbench/run.py builds and calls it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness/workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

const char*
Flag(int argc, char** argv, const char* name) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) {
            return argv[i + 1];
        }
    }
    return nullptr;
}

int
Usage() {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload "
                 "train_facade|engine_pec|engine_hot_delta\n"
                 "    --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--bin-dir DIR\n");
    return 2;
}

/** The result line; metric names and units are plain identifiers. */
std::string
ResultJson(const Report& report) {
    std::string out = "{\"correct\": ";
    out += report.failures().empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted());
    out += ", \"failed\": " + std::to_string(report.failed());
    out += ", \"metrics\": {";
    const char* sep = "";
    for (const auto& m : report.metrics()) {
        if (!m.in_result) {
            continue;
        }
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += sep;
        out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
        sep = ", ";
    }
    out += "}}";
    return out;
}

}  // namespace

int
main(int argc, char** argv) {
    const char* workload = Flag(argc, argv, "--workload");
    const char* seed = Flag(argc, argv, "--seed");
    const char* seconds = Flag(argc, argv, "--seconds");
    const char* trace = Flag(argc, argv, "--trace");
    const char* work_dir = Flag(argc, argv, "--work-dir");
    const char* bin_dir = Flag(argc, argv, "--bin-dir");
    if (workload == nullptr || seed == nullptr || seconds == nullptr ||
        trace == nullptr || work_dir == nullptr || bin_dir == nullptr) {
        return Usage();
    }
    RunOptions options;
    options.seed = std::strtoull(seed, nullptr, 10);
    options.seconds = std::atof(seconds);
    options.trace = std::strcmp(trace, "1") == 0;
    options.work_dir = work_dir;
    options.bin_dir = bin_dir;
    if (options.seconds <= 0.0) {
        return Usage();
    }

    const std::string name = workload;
    Report report;
    try {
        if (name == "train_facade") {
            report = perfbench::RunTrainFacade(options);
        } else if (name == "engine_pec") {
            report = perfbench::RunEngine(options, /*hot_delta=*/false);
        } else if (name == "engine_hot_delta") {
            report = perfbench::RunEngine(options, /*hot_delta=*/true);
        } else {
            return Usage();
        }
    } catch (const std::exception& e) {
        report.Check(false, std::string("workload threw: ") + e.what());
    }
    for (const auto& m : report.metrics()) {
        if (!std::isfinite(m.value)) {
            report.Check(false, "metric " + m.name + " is not finite");
        }
    }

    std::printf("%-32s %14s  %-12s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto& m : report.metrics()) {
        std::printf("%-32s %14.6g  %-12s %s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(),
                    m.samples == 0 ? "-" : std::to_string(m.samples).c_str(),
                    m.in_result ? "" : "  (table only)");
    }
    std::printf("%-32s %14.6g  %-12s\n", "failed_frac",
                report.attempted() == 0
                    ? 1.0
                    : static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted()),
                "ratio");
    for (const auto& f : report.failures()) {
        std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("%s\n", ResultJson(report).c_str());
    return report.failures().empty() ? 0 : 1;
}
