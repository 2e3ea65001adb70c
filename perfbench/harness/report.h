#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

/**
 * @file
 * What one benchmark run produced: named metrics with units, the
 * operations attempted and failed, and the output checks that failed.
 * Also the layer probes shared by several workloads.
 */

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness/measure.h"
#include "harness/recording_store.h"
#include "storage/object_store.h"

namespace perfbench {

/** Command-line inputs of one run. */
struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch root for the fleet's directories (emptied per use). */
    std::filesystem::path work_dir;
    /** Directory holding cluster_procs and moc_launcher. */
    std::filesystem::path bin_dir;
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Samples behind a timing; 0 for counts, ratios and rates. */
    std::size_t samples = 0;
    /** False for a figure shown in the table but left out of the result
        line (see Report::AddTableOnly). */
    bool in_result = true;
};

class Report {
  public:
    void Add(const std::string& name, const std::string& unit, double value,
             std::size_t samples = 0);

    /** Adds a figure to the printed table only, not to the result line. */
    void AddTableOnly(const std::string& name, const std::string& unit,
                      double value, std::size_t samples = 0);

    /**
     * Counts one attempted operation or output check; a failed one is
     * counted in failed() and @p what is kept for the report.
     */
    void Check(bool ok, const std::string& what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<Metric>& metrics() const { return metrics_; }
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * The end-to-end timings of one phase, episode by episode.
 *
 * Other tenants of a shared host slow this one in bursts of seconds to
 * tens of seconds, and a burst slows every save and restore inside it.
 * So each timing and rate is first reduced within an episode (its median
 * save, its bytes per second of save time, ...) and the run reports the
 * median over its episodes: bursts that cover fewer than half of a run's
 * episodes do not move the result.
 */
class EpisodeFigures {
  public:
    /**
     * One finished episode: its setup time, its save and restore times
     * (ms) with the logical bytes they covered, and its net progress
     * (training iterations or sealed generations) over @p loop_s seconds
     * of wall time.
     */
    void Add(double setup_s, const std::vector<double>& save_ms,
             double saved_logical_bytes, const std::vector<double>& restore_ms,
             double restored_logical_bytes, double progress, double loop_s);

    /** Every save time of every episode, ms. */
    const std::vector<double>& save_ms() const { return all_save_ms_; }

    /** Restores timed over all episodes. */
    std::size_t restores() const { return restores_; }

    /**
     * Adds setup_s, save_ms_p50, restore_ms_p50, save_mbps, restore_mbps
     * and train_iters_per_s (medians over episodes), and save_ms_p90 over
     * all saves, where the percentile rule allows, to the table only.
     */
    void AddTo(Report& report) const;

  private:
    std::vector<double> setup_s_;
    std::vector<double> save_p50_;
    std::vector<double> restore_p50_;
    std::vector<double> save_mbps_;
    std::vector<double> restore_mbps_;
    std::vector<double> progress_per_s_;
    std::vector<double> all_save_ms_;
    std::size_t restores_ = 0;
};

/** Peak resident set of this process, MiB. */
double PeakRssMb();

/** Removes @p dir (if present) and creates it empty. */
void FreshDir(const std::filesystem::path& dir);

/**
 * Times the hash, codec and copy kernels of the save and restore paths on
 * @p blobs (the workload's own checkpoint payloads) and adds util.*_gbps
 * and storage.{hash_chunks,encode_delta,apply_delta}_gbps. The delta
 * kernels run with @p chunk_bytes chunks and ~1% of them changed.
 */
void AddKernelRates(Report& report, const std::vector<moc::Blob>& blobs,
                    std::size_t chunk_bytes);

/**
 * Adds the storage.* layer metrics from the traced phase: call and byte
 * counts per checkpoint event, busy time per event, and the median Put.
 */
void AddStoreLayer(Report& report, const std::map<std::string, SpanStats>& spans,
                   const StoreCounts& counts, std::size_t events);

/** Adds obs.trace_overhead_pct and obs.spans_recorded. */
void AddTraceOverhead(Report& report, double untraced_save_p50,
                      double traced_save_p50, std::size_t spans);

/** Median of the named spans' durations (or self times), ms; 0 if none. */
double MedianMs(const std::map<std::string, SpanStats>& spans,
                const std::string& name, bool self = false);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
