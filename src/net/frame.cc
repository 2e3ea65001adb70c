#include "net/frame.h"

#include <cstring>
#include <stdexcept>

#include "util/byte_codec.h"
#include "util/crc32.h"

namespace moc::net {

namespace {

constexpr std::uint8_t kMagic[4] = {'M', 'O', 'C', 'F'};

struct PhaseEntry {
    PhaseId id;
    const char* literal;
};

constexpr PhaseEntry kPhases[] = {
    {PhaseId::kNone, ""},         {PhaseId::kSerialize, "serialize"},
    {PhaseId::kSnapshot, "snapshot"}, {PhaseId::kPersist, "persist"},
    {PhaseId::kVerify, "verify"}, {PhaseId::kSeal, "seal"},
    {PhaseId::kRecover, "recover"}, {PhaseId::kBarrier, "barrier"},
};

}  // namespace

const char*
MsgTypeName(MsgType type) {
    switch (type) {
        case MsgType::kHello: return "hello";
        case MsgType::kWelcome: return "welcome";
        case MsgType::kHeartbeat: return "heartbeat";
        case MsgType::kGoodbye: return "goodbye";
        case MsgType::kData: return "data";
        case MsgType::kCkptBegin: return "ckpt_begin";
        case MsgType::kRankDone: return "rank_done";
        case MsgType::kPeerDeath: return "peer_death";
        case MsgType::kShutdown: return "shutdown";
        case MsgType::kTimePing: return "time_ping";
        case MsgType::kTimePong: return "time_pong";
        case MsgType::kTelemetry: return "telemetry";
        case MsgType::kJoinRequest: return "join_request";
        case MsgType::kJoinAccept: return "join_accept";
    }
    return "unknown";
}

const char*
PhaseLiteral(PhaseId id) {
    for (const auto& entry : kPhases) {
        if (entry.id == id) {
            return entry.literal;
        }
    }
    return "";
}

PhaseId
PhaseIdOf(const char* phase) {
    if (phase == nullptr) {
        return PhaseId::kNone;
    }
    for (const auto& entry : kPhases) {
        if (std::strcmp(entry.literal, phase) == 0) {
            return entry.id;
        }
    }
    return PhaseId::kNone;
}

Blob
EncodeFrame(const Frame& frame) {
    if (frame.payload.size() > kMaxPayload) {
        throw std::invalid_argument("frame payload over kMaxPayload");
    }
    ByteWriter w(kHeaderSize + frame.payload.size() + kTrailerSize);
    w.Raw(kMagic, sizeof(kMagic));
    w.U8(kWireVersion);
    w.U8(static_cast<std::uint8_t>(frame.type));
    w.U8(static_cast<std::uint8_t>(PhaseIdOf(frame.ctx.phase)));
    w.U8(frame.flags);
    w.U32(frame.src_peer);
    w.U32(frame.epoch);
    w.U64(frame.seq);
    w.U64(frame.ctx.generation);
    w.U64(frame.ctx.iteration);
    w.U32(static_cast<std::uint32_t>(frame.ctx.rank));
    w.U32(static_cast<std::uint32_t>(frame.payload.size()));
    w.Raw(frame.payload.data(), frame.payload.size());
    w.U32(Crc32c(w.data(), w.size()));
    return w.Take();
}

void
FrameDecoder::Feed(const void* data, std::size_t len) {
    // Compact once consumed bytes dominate, so the buffer stays bounded by
    // the largest in-flight frame instead of the whole stream history.
    if (offset_ > 4096 && offset_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
        offset_ = 0;
    }
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + len);
}

void
FrameDecoder::SkipJunk(std::size_t n) {
    offset_ += n;
    stats_.junk_bytes += n;
    ++stats_.resyncs;
}

std::optional<Frame>
FrameDecoder::Next() {
    while (true) {
        // Hunt for the magic; everything before it is junk.
        while (buffer_.size() - offset_ >= 4 &&
               std::memcmp(buffer_.data() + offset_, kMagic, 4) != 0) {
            ++offset_;
            ++stats_.junk_bytes;
        }
        const std::size_t avail = buffer_.size() - offset_;
        if (avail < kHeaderSize) {
            return std::nullopt;  // a partial header: wait for more stream
        }
        const std::uint8_t* p = buffer_.data() + offset_;
        ByteReader header(p, kHeaderSize);
        header.Raw(sizeof(kMagic));  // matched by the hunt above
        const std::uint8_t version = header.U8();
        const std::uint8_t type = header.U8();
        Frame frame;
        frame.ctx.phase = PhaseLiteral(static_cast<PhaseId>(header.U8()));
        frame.flags = header.U8();
        frame.src_peer = header.U32();
        frame.epoch = header.U32();
        frame.seq = header.U64();
        frame.ctx.generation = header.U64();
        frame.ctx.iteration = header.U64();
        frame.ctx.rank = static_cast<std::int32_t>(header.U32());
        const std::uint32_t payload_len = header.U32();
        if (version != kWireVersion || payload_len > kMaxPayload ||
            type == 0 || type > kMaxMsgType) {
            // A magic collision inside junk, or a garbled header: not a
            // frame. Skip one byte and rescan.
            SkipJunk(1);
            continue;
        }
        const std::size_t total = kHeaderSize + payload_len + kTrailerSize;
        if (avail < total) {
            return std::nullopt;  // torn so far: the rest may still arrive
        }
        const std::uint32_t want =
            ByteReader(p + kHeaderSize + payload_len, kTrailerSize).U32();
        if (want != Crc32c(p, kHeaderSize + payload_len)) {
            // Bit damage (or a truncated frame whose tail was overwritten
            // by the next one). Drop it; resync on the next magic.
            ++stats_.crc_rejects;
            SkipJunk(1);
            continue;
        }
        frame.type = static_cast<MsgType>(type);
        frame.payload.assign(p + kHeaderSize, p + kHeaderSize + payload_len);
        offset_ += total;
        ++stats_.frames;
        return frame;
    }
}

}  // namespace moc::net
