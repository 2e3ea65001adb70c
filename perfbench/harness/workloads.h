#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

/**
 * @file
 * The benchmark's workloads. Each runs the program's real save and
 * restore paths with every cost model at time_scale = 0, checks its
 * outputs, and fills a Report.
 *
 * The persist store is a moc::MemoryStore behind the RecordingStore
 * decorator, not a FileStore: on a disk shared with other tenants, the
 * same FileStore-bound run swung 2x (facade save 100 -> 215 ms) from one
 * minute to the next, far beyond any bound a regression gate can use.
 * Every store call still goes through the ObjectStore interface with the
 * program's own keys, bytes and call counts, so the timings are the
 * program's own work: serialization, hashing, delta coding, copies,
 * manifests and thread hand-offs.
 *
 * Untraced (RunOptions::trace false): one phase of RunOptions::seconds
 * that yields the end-to-end metrics. Traced: an untraced half and a
 * traced half of the same length; the traced half yields the per-layer
 * metrics and the two halves' save_ms_p50 give obs.trace_overhead_pct.
 *
 * Every workload runs whole *episodes* (fresh store, fresh program
 * objects, a fixed number of checkpoint events) until the time is up and
 * at least kMinSaveSamples saves were timed, so a run's sample mix does
 * not depend on where the clock ran out and p90 always has ten samples
 * beyond it. The end-to-end figures are medians over episodes (see
 * EpisodeFigures).
 */

#include "harness/report.h"

namespace perfbench {

inline constexpr std::size_t kMinSaveSamples = 100;

/** MocCheckpointSystem facade under a seeded fault schedule. */
Report RunTrainFacade(const RunOptions& options);

/** 4-rank in-process ClusterCheckpointEngine; delta off (PEC) or on. */
Report RunEngine(const RunOptions& options, bool hot_delta);

/**
 * The net.* layer metrics, from kLaunches moc_launcher + cluster_procs
 * fleets over loopback TCP, each rank killed and rejoined once per launch;
 * engine_pec's traced run adds them. The fleet's checks count in @p report.
 */
void AddFleetNetLayer(const RunOptions& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
