#ifndef MOC_NET_TELEMETRY_H_
#define MOC_NET_TELEMETRY_H_

/**
 * @file
 * Live telemetry over the transport: the wire codec for
 * obs::TelemetrySample and the background publisher that streams one
 * sample per interval from a rank to the coordinator as kTelemetry frames
 * (docs/TRANSPORT.md).
 *
 * Telemetry must never slow the data path, so every layer *drops* instead
 * of blocking: Send() returning false (mailbox full, queue full, peer
 * gone) just counts `obs.telemetry.dropped` and moves on, and
 * SocketTransport's writer queue sheds kTelemetry frames first. Samples
 * carry cumulative counter readings, not deltas, so a dropped sample
 * costs freshness only — the next one supersedes it with no coalescing
 * bookkeeping.
 *
 * The coordinator decodes each frame with DecodeTelemetry() and feeds
 * obs::ClusterAggregator (obs/cluster_view.h), which maintains the
 * cluster health view and the straggler detector.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "obs/cluster_view.h"

namespace moc::net {

/** Serializes @p sample as a kTelemetry payload. */
Blob EncodeTelemetry(const obs::TelemetrySample& sample);

/**
 * Parses a kTelemetry payload.
 * @throws DecodeError (util/byte_codec.h) on a truncated payload.
 */
obs::TelemetrySample DecodeTelemetry(const Blob& payload);

/**
 * Background sampler: every interval, snapshots the local metrics
 * registry and the published RankActivity into one TelemetrySample and
 * sends it to the coordinator. Start()/Stop() bracket the thread;
 * PublishNow() forces one synchronous sample (drivers call it at phase
 * edges so transitions reach the aggregator promptly).
 */
class TelemetryPublisher {
  public:
    struct Options {
        /** Destination peer (the coordinator). */
        PeerId coordinator = 0;
        /** This process's rank, stamped into every sample. */
        std::int32_t rank = -1;
        /** Sampling period. */
        Seconds interval_s = 0.05;
        /** Cap on counters carried per sample (bounded frames). */
        std::size_t max_counters = 32;
        /** Counter-name prefixes worth streaming. */
        std::vector<std::string> counter_prefixes = {"ckpt.", "net.",
                                                     "storage."};
    };

    TelemetryPublisher(Transport& transport, Options options);

    /** Stops the thread (idempotent). */
    ~TelemetryPublisher();

    /** Starts the periodic sampler thread (no-op when running). */
    void Start();

    /** Joins the sampler thread; further PublishNow() calls still work. */
    void Stop();

    /**
     * Builds and sends one sample immediately.
     * @return false when the transport shed it (counted, never blocked).
     */
    bool PublishNow();

    /** Samples shed by the transport so far. */
    std::uint64_t dropped() const {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Samples accepted by the transport so far. */
    std::uint64_t published() const {
        return published_.load(std::memory_order_relaxed);
    }

  private:
    /** Snapshot of activity + metrics as one wire-ready sample. */
    obs::TelemetrySample BuildSample() const;

    void Loop();

    Transport& transport_;
    const Options options_;
    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> published_{0};
};

}  // namespace moc::net

#endif  // MOC_NET_TELEMETRY_H_
