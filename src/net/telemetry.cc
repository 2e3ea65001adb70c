#include "net/telemetry.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "util/byte_codec.h"

namespace moc::net {

Blob
EncodeTelemetry(const obs::TelemetrySample& sample) {
    ByteWriter writer;
    writer.U32(static_cast<std::uint32_t>(sample.rank));
    writer.U64(sample.generation);
    writer.U64(sample.iteration);
    writer.Str(sample.phase);
    writer.I64(sample.phase_since_ns);
    writer.I64(sample.sent_ns);
    writer.I64(sample.clock_offset_ns);
    writer.U32(static_cast<std::uint32_t>(sample.counters.size()));
    for (const auto& [name, value] : sample.counters) {
        writer.Str(name);
        writer.F64(value);
    }
    return writer.Take();
}

obs::TelemetrySample
DecodeTelemetry(const Blob& payload) {
    ByteReader reader(payload);
    obs::TelemetrySample sample;
    sample.rank = static_cast<std::int32_t>(reader.U32());
    sample.generation = reader.U64();
    sample.iteration = reader.U64();
    sample.phase = reader.Str();
    sample.phase_since_ns = reader.I64();
    sample.sent_ns = reader.I64();
    sample.clock_offset_ns = reader.I64();
    const std::uint32_t n = reader.Count(4 + 8);  // Str length + F64
    sample.counters.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = reader.Str();
        const double value = reader.F64();
        sample.counters.emplace_back(std::move(name), value);
    }
    return sample;
}

TelemetryPublisher::TelemetryPublisher(Transport& transport, Options options)
    : transport_(transport), options_(std::move(options)) {}

TelemetryPublisher::~TelemetryPublisher() {
    Stop();
}

void
TelemetryPublisher::Start() {
    if (running_.exchange(true)) {
        return;
    }
    thread_ = std::thread([this] { Loop(); });
}

void
TelemetryPublisher::Stop() {
    running_.store(false);
    if (thread_.joinable()) {
        thread_.join();
    }
}

bool
TelemetryPublisher::PublishNow() {
    const obs::TelemetrySample sample = BuildSample();
    obs::TraceContext ctx;
    ctx.generation = sample.generation;
    ctx.iteration = sample.iteration;
    ctx.rank = sample.rank;
    ctx.phase = "";
    const bool sent = transport_.Send(options_.coordinator,
                                      MsgType::kTelemetry,
                                      EncodeTelemetry(sample), ctx);
    if (sent) {
        published_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // Shed, not blocked: the next sample carries newer cumulative
        // readings, so nothing needs resending.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& dropped_ctr =
            obs::MetricsRegistry::Instance().GetCounter(
                "obs.telemetry.dropped");
        dropped_ctr.Add();
    }
    static obs::Counter& sent_ctr =
        obs::MetricsRegistry::Instance().GetCounter("obs.telemetry.sent");
    if (sent) {
        sent_ctr.Add();
    }
    return sent;
}

obs::TelemetrySample
TelemetryPublisher::BuildSample() const {
    obs::TelemetrySample sample;
    sample.rank = options_.rank;
    const obs::RankActivity activity = obs::GetRankActivity();
    sample.generation = activity.generation;
    sample.iteration = activity.iteration;
    sample.phase = activity.phase;
    sample.phase_since_ns = activity.since_ns;
    sample.sent_ns = static_cast<std::int64_t>(obs::Tracer::NowNs());
    sample.clock_offset_ns = obs::ClusterClockOffsetNs();
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Instance().Snapshot();
    for (const auto& [name, value] : snapshot.counters) {
        if (sample.counters.size() >= options_.max_counters) {
            break;
        }
        for (const std::string& prefix : options_.counter_prefixes) {
            if (name.rfind(prefix, 0) == 0) {
                sample.counters.emplace_back(name,
                                             static_cast<double>(value));
                break;
            }
        }
    }
    return sample;
}

void
TelemetryPublisher::Loop() {
    // Sleep in small slices so Stop() never waits a whole interval.
    const auto slice = std::chrono::milliseconds(5);
    auto interval =
        std::chrono::duration<double>(options_.interval_s);
    while (running_.load(std::memory_order_relaxed)) {
        PublishNow();
        auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(interval);
        while (remaining.count() > 0 &&
               running_.load(std::memory_order_relaxed)) {
            const auto nap = remaining < slice ? remaining : slice;
            std::this_thread::sleep_for(nap);
            remaining -= nap;
        }
    }
}

}  // namespace moc::net
