#include "ckpt/async_agent.h"

#include "ckpt/persist_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/store_error.h"
#include "util/logging.h"

namespace moc {

namespace {

/** agent.persist_*: what one persist phase (a blob or a shard batch) moved. */
void
RecordPersist(Bytes bytes, Seconds seconds, bool failed) {
    static obs::Counter& persist_bytes =
        obs::MetricsRegistry::Instance().GetCounter("agent.persist_bytes");
    static obs::Histogram& persist_seconds =
        obs::MetricsRegistry::Instance().GetHistogram("agent.persist_seconds");
    static obs::Counter& failures =
        obs::MetricsRegistry::Instance().GetCounter("agent.persist_failures");
    persist_bytes.Add(bytes);
    persist_seconds.Observe(seconds);
    if (failed) {
        failures.Add();
    }
}

}  // namespace

AsyncCheckpointAgent::AsyncCheckpointAgent(PersistentStore& store,
                                           std::string key_prefix,
                                           const AgentCostModel& cost)
    : store_(store),
      write_time_([&store](Bytes bytes) { return store.WriteTime(bytes); }),
      key_prefix_(std::move(key_prefix)),
      cost_(cost) {
    MOC_CHECK_ARG(cost.snapshot_bandwidth > 0.0 && cost.persist_bandwidth > 0.0,
                  "agent bandwidths must be > 0");
    MOC_CHECK_ARG(cost.time_scale >= 0.0, "time_scale must be >= 0");
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
    persist_thread_ = std::thread([this] { PersistLoop(); });
}

AsyncCheckpointAgent::AsyncCheckpointAgent(ObjectStore& store,
                                           std::string key_prefix,
                                           const AgentCostModel& cost)
    : store_(store),
      write_time_([bandwidth = cost.persist_bandwidth](Bytes bytes) {
          return static_cast<double>(bytes) / bandwidth;
      }),
      key_prefix_(std::move(key_prefix)),
      cost_(cost) {
    MOC_CHECK_ARG(cost.snapshot_bandwidth > 0.0 && cost.persist_bandwidth > 0.0,
                  "agent bandwidths must be > 0");
    MOC_CHECK_ARG(cost.time_scale >= 0.0, "time_scale must be >= 0");
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
    persist_thread_ = std::thread([this] { PersistLoop(); });
}

AsyncCheckpointAgent::~AsyncCheckpointAgent() {
    Drain();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    buffers_.Shutdown();
    snapshot_thread_.join();
    persist_thread_.join();
}

void
AsyncCheckpointAgent::RequestCheckpoint(Blob state, std::size_t iteration,
                                        const obs::TraceContext& ctx) {
    // Finish any previous snapshot first: a training process has a single
    // outstanding snapshot at a time.
    WaitSnapshotComplete();
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_pending_ = true;
    snapshot_in_flight_ = true;
    pending_blob_ = std::move(state);
    pending_shards_.clear();
    pending_iteration_ = iteration;
    pending_ctx_ = ctx;
    ++stats_.checkpoints_requested;
    cv_.notify_all();
}

void
AsyncCheckpointAgent::AttachPipeline(PersistPipeline* pipeline) {
    std::lock_guard<std::mutex> lock(mu_);
    pipeline_ = pipeline;
}

void
AsyncCheckpointAgent::RequestShardedCheckpoint(std::vector<NamedShard> shards,
                                               std::size_t iteration,
                                               const obs::TraceContext& ctx) {
    WaitSnapshotComplete();
    std::lock_guard<std::mutex> lock(mu_);
    MOC_CHECK_ARG(pipeline_ != nullptr,
                  "sharded checkpoints need an attached PersistPipeline");
    snapshot_pending_ = true;
    snapshot_in_flight_ = true;
    pending_blob_.clear();
    pending_shards_ = std::move(shards);
    pending_iteration_ = iteration;
    pending_ctx_ = ctx;
    ++stats_.checkpoints_requested;
    cv_.notify_all();
}

Seconds
AsyncCheckpointAgent::WaitSnapshotComplete() {
    const Seconds start = clock_.Now();
    std::unique_lock<std::mutex> lock(mu_);
    const bool waited = snapshot_pending_ || snapshot_in_flight_;
    cv_.wait(lock, [this] { return !snapshot_pending_ && !snapshot_in_flight_; });
    const Seconds stalled = clock_.Now() - start;
    if (waited && stalled > 0.0) {
        ++stats_.snapshot_stalls;
        stats_.total_stall_time += stalled;
        static obs::Counter& stalls =
            obs::MetricsRegistry::Instance().GetCounter("agent.stalls");
        static obs::Gauge& stall_seconds =
            obs::MetricsRegistry::Instance().GetGauge("agent.stall_seconds");
        stalls.Add();
        stall_seconds.Add(stalled);
    }
    return stalled;
}

void
AsyncCheckpointAgent::Drain() {
    WaitSnapshotComplete();
    buffers_.WaitPersistDrained();
}

std::optional<std::size_t>
AsyncCheckpointAgent::LatestPersistedIteration() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latest_persisted_;
}

AgentStats
AsyncCheckpointAgent::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
AsyncCheckpointAgent::SnapshotLoop() {
    for (;;) {
        Blob blob;
        std::vector<NamedShard> shards;
        std::size_t iteration = 0;
        obs::TraceContext ctx;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return snapshot_pending_ || stop_; });
            if (stop_ && !snapshot_pending_) {
                return;
            }
            snapshot_pending_ = false;
            blob = std::move(pending_blob_);
            shards = std::move(pending_shards_);
            pending_blob_.clear();
            pending_shards_.clear();
            iteration = pending_iteration_;
            ctx = pending_ctx_;
        }
        // GPU -> CPU copy into a snapshot buffer (costed by total bytes,
        // whether the payload is one blob or keyed shards).
        ctx.phase = "snapshot";
        const obs::TraceContextScope ctx_scope(ctx);
        const obs::TraceSpan span("agent.snapshot", "agent");
        const std::size_t idx = buffers_.AcquireForSnapshot();
        Bytes total = blob.size();
        for (const auto& shard : shards) {
            total += shard.data.size();
        }
        const Seconds copy_time =
            static_cast<double>(total) / cost_.snapshot_bandwidth;
        clock_.Advance(copy_time * cost_.time_scale);
        auto& slot = buffers_.Payload(idx);
        slot.data = std::move(blob);
        slot.shards = std::move(shards);
        slot.iteration = iteration;
        slot.ctx = ctx;
        buffers_.CompleteSnapshot(idx);
        static obs::Counter& snapshot_bytes =
            obs::MetricsRegistry::Instance().GetCounter("agent.snapshot_bytes");
        static obs::Histogram& snapshot_seconds =
            obs::MetricsRegistry::Instance().GetHistogram("agent.snapshot_seconds");
        snapshot_bytes.Add(total);
        snapshot_seconds.Observe(copy_time * cost_.time_scale);
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.bytes_snapshotted += total;
            snapshot_in_flight_ = false;
        }
        cv_.notify_all();
    }
}

void
AsyncCheckpointAgent::PersistLoop() {
    for (;;) {
        const auto idx = buffers_.AcquireForPersist();
        if (!idx) {
            return;
        }
        auto& slot = buffers_.Payload(*idx);
        obs::TraceContext ctx = slot.ctx;
        ctx.phase = "persist";
        const obs::TraceContextScope ctx_scope(ctx);
        const obs::TraceSpan span("agent.persist", "agent");
        if (!slot.shards.empty()) {
            PersistShards(slot);
            buffers_.CompletePersist(*idx);
            cv_.notify_all();
            continue;
        }
        const Seconds write_time = write_time_(slot.data.size());
        clock_.Advance(write_time * cost_.time_scale);
        bool persisted = true;
        try {
            store_.Put(key_prefix_ + "/ckpt", slot.data);
        } catch (const StoreError& e) {
            persisted = false;
            MOC_WARN << "agent: persist of iteration " << slot.iteration
                     << " failed (" << StoreErrorKindName(e.kind())
                     << "); checkpoint dropped";
        }
        RecordPersist(persisted ? slot.data.size() : 0,
                      write_time * cost_.time_scale, !persisted);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (persisted) {
                stats_.bytes_persisted += slot.data.size();
                ++stats_.checkpoints_persisted;
                latest_persisted_ = slot.iteration;
            } else {
                ++stats_.persist_failures;
            }
        }
        buffers_.CompletePersist(*idx);
        cv_.notify_all();
    }
}

void
AsyncCheckpointAgent::PersistShards(TripleBuffer::Slot& slot) {
    PersistPipeline* pipeline = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        pipeline = pipeline_;
    }
    MOC_ASSERT(pipeline != nullptr, "sharded slot without a pipeline");
    // The pipeline's workers charge the write cost and run the commit
    // protocol (versioned keys, verify, dedup, manifest records); the agent
    // only waits for its own batch so the buffer can rotate.
    const Seconds start = clock_.Now();
    const auto batch = pipeline->MakeBatch();
    for (auto& shard : slot.shards) {
        pipeline->Submit(key_prefix_ + "/" + shard.key, std::move(shard.data),
                         slot.iteration, batch, slot.ctx);
    }
    batch->Wait();
    RecordPersist(batch->bytes_written(), clock_.Now() - start,
                  batch->failed() != 0);
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.bytes_persisted += batch->bytes_written();
        stats_.shards_persisted += batch->written();
        stats_.shards_deduped += batch->deduped();
        if (batch->failed() == 0) {
            ++stats_.checkpoints_persisted;
            latest_persisted_ = slot.iteration;
        } else {
            ++stats_.persist_failures;
        }
    }
    slot.shards.clear();
}

}  // namespace moc
