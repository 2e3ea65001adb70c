#include "ckpt/rank_coordinator.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/byte_codec.h"
#include "util/clock.h"

namespace moc {

namespace {

using net::MsgType;
using net::PeerId;

}  // namespace

Blob
EncodeRankDone(const RankDone& done) {
    ByteWriter w;
    w.U64(done.iteration);
    w.U8(done.ok ? 1 : 0);
    w.U32(static_cast<std::uint32_t>(done.reports.size()));
    for (const auto& r : done.reports) {
        w.Str(r.key);
        w.U64(r.iteration);
        w.U64(r.bytes);
        w.U32(r.crc);
        w.U8(static_cast<std::uint8_t>((r.verified ? 1 : 0) |
                                       (r.deduped ? 2 : 0) |
                                       (r.failed ? 4 : 0)));
        w.U64(r.ref_iteration);
    }
    return w.Take();
}

RankDone
DecodeRankDone(PeerId from, const Blob& payload) {
    ByteReader reader(payload);
    RankDone done;
    done.rank = from;
    done.iteration = reader.U64();
    done.ok = reader.U8() != 0;
    // Str length, iteration, bytes, crc, flags, ref_iteration.
    const std::uint32_t count = reader.Count(4 + 8 + 8 + 4 + 1 + 8);
    done.reports.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        ShardReport r;
        r.key = reader.Str();
        r.iteration = static_cast<std::size_t>(reader.U64());
        r.bytes = reader.U64();
        r.crc = reader.U32();
        const std::uint8_t flags = reader.U8();
        r.verified = (flags & 1) != 0;
        r.deduped = (flags & 2) != 0;
        r.failed = (flags & 4) != 0;
        r.ref_iteration = static_cast<std::size_t>(reader.U64());
        done.reports.push_back(std::move(r));
    }
    return done;
}

bool
BarrierResult::AllVerified() const {
    if (!complete) {
        return false;
    }
    for (const auto& done : reports) {
        if (!done.ok) {
            return false;
        }
        for (const auto& r : done.reports) {
            if (r.failed || !r.verified) {
                return false;
            }
        }
    }
    return true;
}

CheckpointCoordinator::CheckpointCoordinator(net::Transport& transport,
                                             std::vector<PeerId> participants)
    : transport_(transport), participants_(std::move(participants)) {}

std::size_t
CheckpointCoordinator::BeginGeneration(std::uint64_t iteration,
                                       const obs::TraceContext& ctx,
                                       const Blob* extra) {
    ByteWriter w;
    w.U64(iteration);
    if (extra != nullptr && !extra->empty()) {
        w.Raw(extra->data(), extra->size());
    }
    const Blob payload = w.Take();
    std::size_t reached = 0;
    for (const PeerId rank : participants_) {
        if (transport_.Send(rank, MsgType::kCkptBegin, payload, ctx)) {
            ++reached;
        }
    }
    return reached;
}

BarrierResult
CheckpointCoordinator::AwaitReports(std::uint64_t iteration,
                                    Seconds deadline_s) {
    static obs::Counter& barriers =
        obs::MetricsRegistry::Instance().GetCounter("net.barrier.waits");
    static obs::Counter& barrier_timeouts =
        obs::MetricsRegistry::Instance().GetCounter("net.barrier.timeouts");
    barriers.Add();

    BarrierResult result;
    std::set<PeerId> pending(participants_.begin(), participants_.end());
    const WallClock clock;
    const Seconds deadline = clock.Now() + deadline_s;
    while (!pending.empty()) {
        const Seconds remain = deadline - clock.Now();
        if (remain <= 0.0) {
            result.timed_out = true;
            barrier_timeouts.Add();
            break;
        }
        auto msg = transport_.Recv(remain);
        if (!msg) {
            continue;  // deadline check decides
        }
        if (observer_) {
            observer_(*msg);
        }
        if (msg->type == MsgType::kRankDone && pending.count(msg->from)) {
            RankDone done;
            try {
                done = DecodeRankDone(msg->from, msg->payload);
            } catch (const std::runtime_error&) {
                continue;  // truncated payload: drop, the rank may resend
            }
            if (done.iteration != iteration) {
                continue;  // stale report from an earlier event
            }
            pending.erase(msg->from);
            result.reports.push_back(std::move(done));
        } else if (msg->type == MsgType::kPeerDeath &&
                   pending.count(msg->from)) {
            pending.erase(msg->from);
            result.dead.push_back(msg->from);
        } else if (msg->type == MsgType::kJoinRequest) {
            // Never admitted mid-generation: surfaced to the control loop,
            // which runs the membership handshake after the seal decision.
            result.joins.push_back(std::move(*msg));
        }
        // Everything else (a duplicate report, a non-participant frame) is
        // dropped: the coordinator control loop owns this queue.
    }
    // Drop dead ranks from future barriers: their epochs are gone and a
    // rejoin would need a fresh generation anyway.
    for (const PeerId dead : result.dead) {
        participants_.erase(
            std::remove(participants_.begin(), participants_.end(), dead),
            participants_.end());
    }
    result.complete =
        result.dead.empty() && result.reports.size() == participants_.size();
    return result;
}

std::size_t
CheckpointCoordinator::Shutdown() {
    std::size_t reached = 0;
    for (const PeerId rank : participants_) {
        if (transport_.Send(rank, MsgType::kShutdown, {})) {
            ++reached;
        }
        // No kGoodbye from this side: the *closing* side announces its own
        // goodbye (the rank, on its way out). A goodbye from here would
        // race the rank's and could retire the connection before the
        // rank's farewell got through, turning a clean exit into a
        // spurious eof death.
    }
    return reached;
}

RankParticipant::RankParticipant(net::Transport& transport,
                                 PeerId coordinator)
    : transport_(transport), coordinator_(coordinator) {}

std::optional<BeginEvent>
RankParticipant::AwaitBegin(Seconds timeout_s) {
    const WallClock clock;
    const Seconds deadline = clock.Now() + timeout_s;
    while (true) {
        const Seconds remain = deadline - clock.Now();
        if (remain <= 0.0) {
            return std::nullopt;
        }
        auto msg = transport_.Recv(remain);
        if (!msg) {
            continue;
        }
        if (msg->type == MsgType::kCkptBegin) {
            BeginEvent event;
            try {
                ByteReader reader(msg->payload);
                event.iteration = reader.U64();
                const std::size_t extra_bytes = reader.remaining();
                const std::uint8_t* extra = reader.Raw(extra_bytes);
                event.extra.assign(extra, extra + extra_bytes);
            } catch (const std::runtime_error&) {
                continue;
            }
            event.ctx = msg->ctx;
            return event;
        }
        if (msg->type == MsgType::kShutdown ||
            (msg->type == MsgType::kPeerDeath && msg->from == coordinator_)) {
            BeginEvent event;
            event.shutdown = true;
            return event;
        }
    }
}

bool
RankParticipant::SendDone(std::uint64_t iteration,
                          std::vector<ShardReport> reports, bool ok,
                          const obs::TraceContext& ctx) {
    RankDone done;
    done.rank = transport_.self();
    done.iteration = iteration;
    done.ok = ok;
    done.reports = std::move(reports);
    return transport_.Send(coordinator_, MsgType::kRankDone,
                           EncodeRankDone(done), ctx);
}

void
RecordReports(CheckpointManifest& manifest, const BarrierResult& result) {
    for (const auto& done : result.reports) {
        for (const auto& r : done.reports) {
            if (r.failed) {
                continue;  // nothing landed; the gap keeps the gen unsealed
            }
            manifest.RecordPersistVersion(
                r.key, r.iteration, r.bytes, r.crc, r.verified,
                r.deduped ? std::optional<std::size_t>(r.ref_iteration)
                          : std::nullopt);
        }
    }
}

bool
SealIfComplete(CheckpointManifest& manifest, std::uint64_t iteration,
               const BarrierResult& result) {
    std::size_t shards = 0;
    Bytes bytes = 0;
    for (const auto& done : result.reports) {
        shards += done.reports.size();
        for (const auto& r : done.reports) {
            if (!r.deduped && !r.failed) {
                bytes += r.bytes;
            }
        }
    }
    const bool sealed = result.AllVerified();
    if (sealed) {
        manifest.MarkCheckpointComplete(StoreLevel::kPersist,
                                        static_cast<std::size_t>(iteration));
    }
    obs::JournalEvent event;
    event.kind = obs::EventKind::kClusterSeal;
    event.iteration = iteration;
    event.gen = iteration;
    event.bytes = bytes;
    std::ostringstream detail;
    detail << (sealed ? "sealed" : "unsealed") << " shards=" << shards
           << " ranks=" << result.reports.size();
    if (!result.dead.empty()) {
        detail << " dead=" << result.dead.size();
    }
    if (result.timed_out) {
        detail << " timeout";
    }
    event.detail = detail.str();
    obs::EventJournal::Instance().Append(std::move(event));
    return sealed;
}

}  // namespace moc
