#include "ckpt/membership.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace moc::ckpt {

namespace {

struct StateName {
    MemberState state;
    const char* name;
};

constexpr StateName kStateNames[] = {
    {MemberState::kJoined, "joined"},   {MemberState::kLive, "live"},
    {MemberState::kSuspect, "suspect"}, {MemberState::kDead, "dead"},
    {MemberState::kRejoined, "rejoined"},
};

MemberState
StateFromName(const std::string& name) {
    for (const auto& entry : kStateNames) {
        if (name == entry.name) {
            return entry.state;
        }
    }
    throw std::invalid_argument("unknown member state '" + name + "'");
}

bool
IsLiveState(MemberState state) {
    return state == MemberState::kJoined || state == MemberState::kLive ||
           state == MemberState::kRejoined;
}

obs::Counter&
ChangesCounter() {
    static obs::Counter& c =
        obs::MetricsRegistry::Instance().GetCounter("cluster.membership.changes");
    return c;
}

}  // namespace

const char*
MemberStateName(MemberState state) {
    for (const auto& entry : kStateNames) {
        if (entry.state == state) {
            return entry.name;
        }
    }
    return "unknown";
}

Blob
EncodeJoinRequest(const JoinRequest& request) {
    ByteWriter w;
    w.U32(static_cast<std::uint32_t>(request.rank));
    w.U32(request.incarnation);
    return w.Take();
}

JoinRequest
DecodeJoinRequest(const Blob& payload) {
    ByteReader r(payload);
    JoinRequest request;
    request.rank = r.U32();
    request.incarnation = r.U32();
    return request;
}

void
EncodePlacementAssignments(const PlacementPlan& plan,
                           ByteWriter& writer) {
    writer.U64(plan.version);
    writer.U32(static_cast<std::uint32_t>(plan.assignments.size()));
    for (const auto& [expert, hosts] : plan.assignments) {
        writer.U64(expert);
        writer.U32(static_cast<std::uint32_t>(hosts.size()));
        for (std::size_t rank : hosts) {
            writer.U32(static_cast<std::uint32_t>(rank));
        }
    }
}

PlacementPlan
DecodePlacementAssignments(ByteReader& reader) {
    PlacementPlan plan;
    plan.version = reader.U64();
    const std::uint32_t experts = reader.Count(8 + 4);  // id + host count
    for (std::uint32_t i = 0; i < experts; ++i) {
        const std::uint64_t expert = reader.U64();
        const std::uint32_t hosts = reader.Count(4);
        std::vector<std::size_t>& out =
            plan.assignments[static_cast<std::size_t>(expert)];
        out.reserve(hosts);
        for (std::uint32_t h = 0; h < hosts; ++h) {
            out.push_back(reader.U32());
        }
    }
    return plan;
}

Blob
EncodeJoinAccept(const JoinAccept& accept) {
    ByteWriter w;
    w.U8(accept.accepted ? 1 : 0);
    w.Str(accept.reason);
    w.U64(accept.membership_version);
    EncodePlacementAssignments(accept.placement, w);
    return w.Take();
}

JoinAccept
DecodeJoinAccept(const Blob& payload) {
    ByteReader r(payload);
    JoinAccept accept;
    accept.accepted = r.U8() != 0;
    accept.reason = r.Str();
    accept.membership_version = r.U64();
    accept.placement = DecodePlacementAssignments(r);
    return accept;
}

std::vector<std::size_t>
MembershipSnapshot::LiveRanks() const {
    std::vector<std::size_t> live;
    for (const MemberInfo& m : members) {
        if (IsLiveState(m.state)) {
            live.push_back(m.rank);
        }
    }
    return live;
}

MembershipSnapshot
ParseMembershipJson(const std::string& text) {
    const json::Value doc = json::Parse(text);
    if (doc.StringOr("schema", "") != "moc-membership/1") {
        throw std::invalid_argument("not a moc-membership/1 document");
    }
    MembershipSnapshot snap;
    snap.version = doc.U64Or("version", 0);
    for (const json::Value& entry : doc.At("members").AsArray()) {
        MemberInfo m;
        m.rank = static_cast<std::size_t>(entry.At("rank").AsU64());
        m.state = StateFromName(entry.At("state").AsString());
        m.epoch = static_cast<std::uint32_t>(entry.U64Or("epoch", 0));
        m.incarnation =
            static_cast<std::uint32_t>(entry.U64Or("incarnation", 1));
        m.death_cause = entry.StringOr("death_cause", "");
        snap.members.push_back(std::move(m));
    }
    return snap;
}

void
MembershipTable::Transition(MemberInfo& member, MemberState to,
                            const std::string& cause) {
    const MemberState from = member.state;
    member.state = to;
    ++version_;
    std::size_t live = 0;
    for (const auto& [rank, info] : members_) {
        (void)rank;
        live += IsLiveState(info.state) ? 1 : 0;
    }
    std::ostringstream detail;
    detail << MemberStateName(from) << "->" << MemberStateName(to);
    if (!cause.empty()) {
        detail << " cause=" << cause;
    }
    detail << " epoch=" << member.epoch << " incarnation=" << member.incarnation
           << " version=" << version_;
    obs::JournalEvent event;
    event.kind = obs::EventKind::kMembershipChange;
    event.scope = static_cast<std::int64_t>(member.rank);
    event.detail = detail.str();
    obs::EventJournal::Instance().Append(std::move(event));
    ChangesCounter().Add();
    obs::MetricsRegistry::Instance()
        .GetGauge("cluster.membership.live")
        .Set(static_cast<double>(live));
    obs::MetricsRegistry::Instance()
        .GetGauge("cluster.membership.version")
        .Set(static_cast<double>(version_));
}

void
MembershipTable::AdmitInitial(std::size_t rank, std::uint32_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    MemberInfo& member = members_[rank];
    member.rank = rank;
    member.epoch = epoch;
    member.incarnation = 1;
    Transition(member, MemberState::kJoined, "connect");
}

void
MembershipTable::MarkLive(std::size_t rank) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = members_.find(rank);
    if (it == members_.end() || it->second.state == MemberState::kDead ||
        it->second.state == MemberState::kLive) {
        return;
    }
    Transition(it->second, MemberState::kLive, "barrier_done");
}

void
MembershipTable::MarkSuspect(std::size_t rank) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = members_.find(rank);
    if (it == members_.end() || it->second.state == MemberState::kDead ||
        it->second.state == MemberState::kSuspect) {
        return;
    }
    Transition(it->second, MemberState::kSuspect, "barrier_timeout");
}

void
MembershipTable::OnPeerDeath(std::size_t rank, const std::string& cause) {
    std::lock_guard<std::mutex> lock(mu_);
    MemberInfo& member = members_[rank];
    member.rank = rank;
    if (member.state == MemberState::kDead) {
        return;  // one eviction per death, however many signals arrive
    }
    member.death_cause = cause;
    Transition(member, MemberState::kDead, cause);
    static obs::Counter& deaths =
        obs::MetricsRegistry::Instance().GetCounter("cluster.membership.deaths");
    deaths.Add();
}

JoinAccept
MembershipTable::OnJoinRequest(std::size_t rank, std::uint32_t epoch,
                               std::uint32_t incarnation) {
    std::lock_guard<std::mutex> lock(mu_);
    JoinAccept verdict;
    const auto it = members_.find(rank);
    if (it != members_.end() && epoch <= it->second.epoch) {
        // A zombie: the pre-death incarnation (same epoch) or an even older
        // connection replaying. Its transport frames are already being
        // dropped by the epoch gate; refuse membership too so it can never
        // be sealed against.
        verdict.accepted = false;
        std::ostringstream why;
        why << "stale epoch " << epoch << " <= " << it->second.epoch;
        verdict.reason = why.str();
        verdict.membership_version = version_;
        return verdict;
    }
    MemberInfo& member = members_[rank];
    member.rank = rank;
    member.epoch = epoch;
    const bool rejoin =
        it != members_.end() && member.state == MemberState::kDead;
    if (rejoin) {
        member.incarnation =
            std::max(member.incarnation + 1, incarnation + 1);
        member.death_cause.clear();
        Transition(member, MemberState::kRejoined, "join_request");
        obs::JournalEvent event;
        event.kind = obs::EventKind::kRejoin;
        event.scope = static_cast<std::int64_t>(rank);
        std::ostringstream detail;
        detail << "epoch=" << epoch << " incarnation=" << member.incarnation;
        event.detail = detail.str();
        obs::EventJournal::Instance().Append(std::move(event));
        static obs::Counter& rejoins =
            obs::MetricsRegistry::Instance().GetCounter(
                "cluster.membership.rejoins");
        rejoins.Add();
    } else {
        member.incarnation = std::max<std::uint32_t>(1, incarnation);
        Transition(member, MemberState::kJoined, "join_request");
    }
    verdict.accepted = true;
    verdict.membership_version = version_;
    return verdict;
}

std::vector<std::size_t>
MembershipTable::LiveRanks() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::size_t> live;
    for (const auto& [rank, member] : members_) {
        if (IsLiveState(member.state)) {
            live.push_back(rank);
        }
    }
    return live;
}

MemberInfo
MembershipTable::Info(std::size_t rank) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = members_.find(rank);
    if (it == members_.end()) {
        MemberInfo unknown;
        unknown.rank = rank;
        unknown.state = MemberState::kDead;
        unknown.incarnation = 0;
        unknown.death_cause = "never joined";
        return unknown;
    }
    return it->second;
}

std::uint64_t
MembershipTable::version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
}

std::size_t
MembershipTable::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return members_.size();
}

std::string
MembershipTable::ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;
    out << "{\"schema\": \"moc-membership/1\", \"version\": " << version_
        << ", \"members\": [";
    bool first = true;
    for (const auto& [rank, member] : members_) {
        if (!first) {
            out << ", ";
        }
        first = false;
        out << "{\"rank\": " << rank << ", \"state\": \""
            << MemberStateName(member.state) << "\", \"epoch\": "
            << member.epoch << ", \"incarnation\": " << member.incarnation;
        if (!member.death_cause.empty()) {
            out << ", \"death_cause\": \"" << obs::JsonEscape(member.death_cause)
                << "\"";
        }
        out << "}";
    }
    out << "]}";
    return out.str();
}

}  // namespace moc::ckpt
