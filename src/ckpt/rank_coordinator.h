#ifndef MOC_CKPT_RANK_COORDINATOR_H_
#define MOC_CKPT_RANK_COORDINATOR_H_

/**
 * @file
 * The cluster checkpoint barrier over a Transport: how the coordinator and
 * the ranks agree that a generation is sealed — whether they are threads
 * sharing an InprocHub (ClusterCheckpointEngine) or real processes over
 * TCP (examples/cluster_procs via tools/moc_launcher).
 *
 * Protocol per checkpoint event (docs/TRANSPORT.md):
 *
 *   coordinator --kCkptBegin(iteration)--> every rank
 *   rank: persist shards, then --kRankDone(iteration, reports, ok)-->
 *   coordinator: collect a kRankDone from every participant, or a
 *   kPeerDeath for it, under the barrier deadline.
 *
 * The recovery invariant is enforced here: SealIfComplete seals a
 * generation only when *every* participant reported and *every* shard of
 * every report verified — a SIGKILL'd rank (kPeerDeath), a failed or
 * unverified shard, or a deadline miss leaves the generation unsealed, so
 * it can never become a restart target (docs/FAULT_MODEL.md).
 */

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.h"
#include "storage/manifest.h"
#include "util/bytes.h"

namespace moc {

/** One rank's integrity record for one persisted shard. */
struct ShardReport {
    /** Logical shard key (already rank-qualified, e.g. "rank1/dense/1"). */
    std::string key;
    /** Generation the shard belongs to. */
    std::size_t iteration = 0;
    Bytes bytes = 0;
    /** CRC-32C of the shard bytes at write time. */
    std::uint32_t crc = 0;
    /** The write was read back and CRC-matched. */
    bool verified = false;
    /** Recorded by reference to ref_iteration instead of re-written. */
    bool deduped = false;
    std::size_t ref_iteration = 0;
    /** The write failed (StoreError after retries, or verify mismatch). */
    bool failed = false;
};

/** One rank's kRankDone message, decoded. */
struct RankDone {
    net::PeerId rank = 0;
    std::uint64_t iteration = 0;
    /** Every shard persisted fine on this rank. */
    bool ok = false;
    std::vector<ShardReport> reports;
};

/** Wire codec of the kRankDone payload. */
Blob EncodeRankDone(const RankDone& done);
/** @throws DecodeError (util/byte_codec.h) on a truncated payload. */
RankDone DecodeRankDone(net::PeerId from, const Blob& payload);

/** Outcome of one coordinator-side barrier wait. */
struct BarrierResult {
    /** Every participant delivered a kRankDone for the iteration. */
    bool complete = false;
    /** The barrier deadline passed with ranks still silent. */
    bool timed_out = false;
    std::vector<RankDone> reports;
    /** Participants declared dead while the barrier waited. */
    std::vector<net::PeerId> dead;
    /**
     * kJoinRequest frames that arrived mid-barrier — a respawned rank
     * asking back in. The barrier itself never admits anyone (the
     * in-flight generation's participant set is fixed); the control loop
     * hands these to the MembershipTable *after* the seal decision, so a
     * rejoiner first participates in the next generation.
     */
    std::vector<net::Message> joins;

    /** complete, every report ok, every shard verified. */
    bool AllVerified() const;
};

/**
 * Coordinator side of the barrier. Not thread-safe; the coordinator owns
 * one and drives it from its control loop.
 */
class CheckpointCoordinator {
  public:
    CheckpointCoordinator(net::Transport& transport,
                          std::vector<net::PeerId> participants);

    /**
     * Broadcasts kCkptBegin for @p iteration; returns ranks reached.
     * @param extra appended after the iteration word — the elastic control
     *        loop ships the current placement assignments here
     *        (ckpt/membership.h codecs). Pre-elastic ranks never read past
     *        the iteration, so the extension is wire-compatible.
     */
    std::size_t BeginGeneration(std::uint64_t iteration,
                                const obs::TraceContext& ctx,
                                const Blob* extra = nullptr);

    /**
     * Collects kRankDone messages for @p iteration until every participant
     * reported or died, or @p deadline_s passed. kPeerDeath for a
     * participant counts it dead (it can no longer report; its epoch is
     * gone). Stale kRankDone frames for other iterations are dropped.
     */
    BarrierResult AwaitReports(std::uint64_t iteration, Seconds deadline_s);

    /** Broadcasts kShutdown (orderly end of run); returns ranks reached. */
    std::size_t Shutdown();

    /** Participants not yet declared dead by an earlier barrier. */
    const std::vector<net::PeerId>& participants() const {
        return participants_;
    }

    /**
     * Replaces the participant set for subsequent generations — how
     * elastic membership drives the barrier: after every membership
     * transition the control loop installs MembershipTable::LiveRanks()
     * here, so seals are always against *current* live membership.
     */
    void SetParticipants(std::vector<net::PeerId> participants) {
        participants_ = std::move(participants);
    }

    /**
     * Installs a tap on every message AwaitReports receives, *before* the
     * barrier dispatch — how the cluster observability plane sees
     * kTelemetry (and kPeerDeath) frames without owning the receive queue
     * (examples/cluster_procs feeds obs::ClusterAggregator through this).
     * The observer must not call back into the coordinator.
     */
    void SetMessageObserver(std::function<void(const net::Message&)> observer) {
        observer_ = std::move(observer);
    }

  private:
    net::Transport& transport_;
    std::vector<net::PeerId> participants_;
    std::function<void(const net::Message&)> observer_;
};

/** What a rank's AwaitBegin observed. */
struct BeginEvent {
    std::uint64_t iteration = 0;
    /** The coordinator's trace identity for the event (phase "barrier"). */
    obs::TraceContext ctx;
    /** kShutdown arrived instead: the run is over. */
    bool shutdown = false;
    /** Payload bytes after the iteration word (the placement assignments
        under elastic membership; empty from a pre-elastic coordinator). */
    Blob extra;
};

/**
 * Rank side of the barrier. Not thread-safe; each rank owns one.
 */
class RankParticipant {
  public:
    RankParticipant(net::Transport& transport,
                    net::PeerId coordinator = net::kCoordinatorPeer);

    /**
     * Waits up to @p timeout_s for the next kCkptBegin (or kShutdown).
     * Returns nullopt on timeout or coordinator death.
     */
    std::optional<BeginEvent> AwaitBegin(Seconds timeout_s);

    /** Sends this rank's kRankDone for @p iteration. */
    bool SendDone(std::uint64_t iteration, std::vector<ShardReport> reports,
                  bool ok, const obs::TraceContext& ctx);

  private:
    net::Transport& transport_;
    net::PeerId coordinator_;
};

/**
 * Records every shard report of @p result in @p manifest
 * (RecordPersistVersion, dedup refs preserved).
 */
void RecordReports(CheckpointManifest& manifest, const BarrierResult& result);

/**
 * Seals generation @p iteration in @p manifest iff @p result satisfies the
 * recovery invariant (AllVerified), journaling the outcome as a
 * cluster_seal event either way. Returns true when sealed.
 */
bool SealIfComplete(CheckpointManifest& manifest, std::uint64_t iteration,
                    const BarrierResult& result);

}  // namespace moc

#endif  // MOC_CKPT_RANK_COORDINATOR_H_
