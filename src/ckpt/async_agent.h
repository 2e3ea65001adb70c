#ifndef MOC_CKPT_ASYNC_AGENT_H_
#define MOC_CKPT_ASYNC_AGENT_H_

/**
 * @file
 * The per-node asynchronous checkpointing agent (Section 5.2): a real
 * threaded two-phase pipeline. The training thread hands the agent a
 * serialized state blob; an internal snapshot thread performs the GPU->CPU
 * copy (costed by bandwidth), and a persist thread drains filled buffers to
 * the persistent store. The training thread may ask how long it must stall
 * before a weight update (the "S" blocks of Fig. 3).
 */

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "ckpt/triple_buffer.h"
#include "storage/object_store.h"
#include "storage/persistent_store.h"
#include "util/clock.h"

namespace moc {

class PersistPipeline;

/** Transfer-rate model of the agent's two phases. */
struct AgentCostModel {
    /** GPU -> CPU copy bandwidth, bytes/s. */
    double snapshot_bandwidth = 1.0 * kGiB;
    /** CPU -> storage bandwidth, bytes/s. */
    double persist_bandwidth = 0.5 * kGiB;
    /**
     * Wall-time scale: phase durations are multiplied by this before
     * sleeping, so tests can run a "1 GiB" checkpoint in milliseconds while
     * preserving the ratios that drive overlap behaviour.
     */
    double time_scale = 1.0;
};

/** Aggregate statistics of an agent's lifetime. */
struct AgentStats {
    std::size_t checkpoints_requested = 0;
    std::size_t checkpoints_persisted = 0;
    std::size_t snapshot_stalls = 0;
    Seconds total_stall_time = 0.0;
    Bytes bytes_snapshotted = 0;
    Bytes bytes_persisted = 0;
    /** Persist writes the store rejected (StoreError); checkpoint dropped. */
    std::size_t persist_failures = 0;
    /** Keyed shards physically written (per-shard persist path). */
    std::size_t shards_persisted = 0;
    /** Keyed shards recorded by dedup reference instead of re-persisted. */
    std::size_t shards_deduped = 0;
};

/**
 * One node's asynchronous checkpoint agent.
 */
class AsyncCheckpointAgent {
  public:
    /**
     * @param store destination of persisted checkpoints.
     * @param key_prefix store key prefix for this agent's checkpoints;
     *        checkpoints are stored as "<prefix>/ckpt" (latest wins).
     */
    AsyncCheckpointAgent(PersistentStore& store, std::string key_prefix,
                         const AgentCostModel& cost);

    /**
     * Agent over any ObjectStore (a FileStore, a FaultyStore chain, ...);
     * the persist phase is costed by cost.persist_bandwidth. A store that
     * throws StoreError drops that checkpoint and counts a persist failure
     * instead of killing the persist thread.
     */
    AsyncCheckpointAgent(ObjectStore& store, std::string key_prefix,
                         const AgentCostModel& cost);

    /** Stops the pipeline (drains pending persists first). */
    ~AsyncCheckpointAgent();

    AsyncCheckpointAgent(const AsyncCheckpointAgent&) = delete;
    AsyncCheckpointAgent& operator=(const AsyncCheckpointAgent&) = delete;

    /**
     * Initiates an asynchronous checkpoint of @p state for @p iteration.
     * Blocks only if all three buffers are busy (itself a stall, counted).
     * @p ctx (optional) is the checkpoint-event identity stamped on the
     * snapshot/persist spans this request produces (obs/trace.h); it rides
     * the triple-buffer slot across the agent's thread hops.
     */
    void RequestCheckpoint(Blob state, std::size_t iteration,
                           const obs::TraceContext& ctx = {});

    /**
     * Routes this agent's persist phase through @p pipeline: shards of a
     * sharded checkpoint are submitted as keyed writes
     * ("<prefix>/<shard.key>@<iteration>") instead of one latest-wins
     * blob. The pipeline must outlive the agent. Call before the first
     * RequestShardedCheckpoint.
     */
    void AttachPipeline(PersistPipeline* pipeline);

    /**
     * Initiates an asynchronous *sharded* checkpoint: the snapshot phase
     * copies every shard (costed by their total bytes), the persist phase
     * drains them through the attached PersistPipeline as per-shard keyed
     * writes. Requires AttachPipeline.
     */
    void RequestShardedCheckpoint(std::vector<NamedShard> shards,
                                  std::size_t iteration,
                                  const obs::TraceContext& ctx = {});

    /**
     * Blocks until the most recently requested snapshot has finished its
     * GPU->CPU phase — the paper's pre-weight-update barrier. Returns the
     * time spent waiting.
     */
    Seconds WaitSnapshotComplete();

    /** Blocks until every requested checkpoint is persisted. */
    void Drain();

    /** Iteration of the newest fully persisted checkpoint, if any. */
    std::optional<std::size_t> LatestPersistedIteration() const;

    AgentStats stats() const;

  private:
    void PersistLoop();

    /** Drains one sharded slot through the attached pipeline. */
    void PersistShards(TripleBuffer::Slot& slot);

    ObjectStore& store_;
    /** Simulated seconds one persist write of N bytes takes. */
    std::function<Seconds(Bytes)> write_time_;
    std::string key_prefix_;
    AgentCostModel cost_;
    WallClock clock_;
    TripleBuffer buffers_;
    std::thread snapshot_thread_;
    std::thread persist_thread_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    /** Per-shard persist sink; nullptr = the latest-wins blob path. */
    PersistPipeline* pipeline_ = nullptr;
    /** Pending snapshot request handed to the snapshot thread. */
    bool snapshot_pending_ = false;
    Blob pending_blob_;
    std::vector<NamedShard> pending_shards_;
    std::size_t pending_iteration_ = 0;
    obs::TraceContext pending_ctx_;
    bool snapshot_in_flight_ = false;
    bool stop_ = false;
    std::optional<std::size_t> latest_persisted_;
    AgentStats stats_;

    void SnapshotLoop();
};

}  // namespace moc

#endif  // MOC_CKPT_ASYNC_AGENT_H_
