#ifndef MOC_NET_FRAME_H_
#define MOC_NET_FRAME_H_

/**
 * @file
 * The wire codec of the transport layer (docs/TRANSPORT.md): fixed-header
 * frames carrying a typed message, the sender's session epoch, and the
 * checkpoint TraceContext, closed by a CRC-32C trailer over the whole
 * frame.
 *
 * Layout (little-endian, kHeaderSize = 48 bytes):
 *
 *   offset size field
 *   0      4    magic "MOCF"
 *   4      1    version (kWireVersion)
 *   5      1    type (MsgType)
 *   6      1    phase (PhaseId, the TraceContext phase)
 *   7      1    flags (reserved, 0)
 *   8      4    src_peer
 *   12     4    epoch      (sender's session epoch; stale epochs rejected)
 *   16     8    seq        (sender-local, monotonically increasing)
 *   24     8    generation (TraceContext)
 *   32     8    iteration  (TraceContext)
 *   40     4    rank       (TraceContext, int32)
 *   44     4    payload_len
 *   48     ..   payload
 *   48+n   4    CRC-32C over bytes [0, 48+n)
 *
 * `FrameDecoder` is an incremental parser tolerant of everything a real
 * byte stream does to framing: partial reads (frames split at any byte),
 * torn frames (a sender died mid-write), junk between frames, and bit
 * damage (the CRC trailer rejects the frame and the decoder resynchronizes
 * on the next magic). A damaged frame is *dropped*, never delivered —
 * request/reply retries (transport.h) recover the loss.
 *
 * Header fields and message payloads are written and read with
 * util/byte_codec.h (ByteWriter/ByteReader), the codec every persisted and
 * wire format shares.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/trace.h"
#include "storage/object_store.h"
#include "util/byte_codec.h"

namespace moc::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 48;
inline constexpr std::size_t kTrailerSize = 4;
/** Upper bound on one frame's payload; bigger lengths are junk. */
inline constexpr std::size_t kMaxPayload = kMaxCodecString;

/** Typed message vocabulary of the transport (docs/TRANSPORT.md). */
enum class MsgType : std::uint8_t {
    kHello = 1,     ///< connect handshake: "peer <src_peer> joining"
    kWelcome = 2,   ///< handshake reply: header epoch = assigned session epoch
    kHeartbeat = 3, ///< liveness beacon; never queued for Recv
    kGoodbye = 4,   ///< orderly close announcement
    kData = 5,      ///< application payload
    kCkptBegin = 6, ///< coordinator -> rank: start checkpoint `iteration`
    kRankDone = 7,  ///< rank -> coordinator: shard reports for `iteration`
    kPeerDeath = 8, ///< synthetic, local only: a peer was declared dead
    kShutdown = 9,  ///< coordinator -> rank: run is over, exit cleanly
    kTimePing = 10, ///< clock-alignment probe: payload = sender's clock t0
    kTimePong = 11, ///< reply: echoes t0, carries responder's t1 and t2
                    ///< (net/clock_sync.h); never queued for Recv
    kTelemetry = 12, ///< rank -> coordinator: periodic metric deltas +
                     ///< in-flight phase summary (net/telemetry.h); dropped,
                     ///< never blocked, under backpressure
    kJoinRequest = 13, ///< rank -> coordinator: membership admission ask —
                       ///< sent after the transport handshake, carrying the
                       ///< rank's incarnation count (ckpt/membership.h); the
                       ///< frame epoch is the rank's fresh session epoch
    kJoinAccept = 14,  ///< coordinator -> rank: admission verdict + the
                       ///< membership version and current PlacementPlan the
                       ///< rank must checkpoint under
};

/** The highest MsgType value; the decoder rejects bytes beyond it. */
inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kJoinAccept);

/** Stable wire name of @p type ("hello", "ckpt_begin", ...). */
const char* MsgTypeName(MsgType type);

/**
 * Checkpoint phases as one wire byte. TraceContext stores its phase as a
 * string literal; the codec maps the known literals onto this enum so the
 * receiving process can re-install an identical context.
 */
enum class PhaseId : std::uint8_t {
    kNone = 0,
    kSerialize,
    kSnapshot,
    kPersist,
    kVerify,
    kSeal,
    kRecover,
    kBarrier,
};

/** The string literal of @p id ("" for kNone); stable storage. */
const char* PhaseLiteral(PhaseId id);

/** Best-effort inverse of PhaseLiteral; unknown phases map to kNone. */
PhaseId PhaseIdOf(const char* phase);

/** One decoded (or to-be-encoded) frame. */
struct Frame {
    MsgType type = MsgType::kData;
    std::uint8_t flags = 0;
    std::uint32_t src_peer = 0;
    std::uint32_t epoch = 0;
    std::uint64_t seq = 0;
    /** Checkpoint-event identity carried in the header. */
    obs::TraceContext ctx;
    Blob payload;
};

/** Serializes @p frame into one contiguous wire image. */
Blob EncodeFrame(const Frame& frame);

/**
 * Incremental frame parser over an arbitrary byte stream.
 * Not thread-safe; each connection owns one.
 */
class FrameDecoder {
  public:
    /** Codec health counters, for net.* metrics. */
    struct Stats {
        std::uint64_t frames = 0;       ///< frames successfully decoded
        std::uint64_t crc_rejects = 0;  ///< frames dropped on CRC mismatch
        std::uint64_t junk_bytes = 0;   ///< bytes discarded hunting for magic
        std::uint64_t resyncs = 0;      ///< times the decoder skipped junk
    };

    /** Appends @p len raw stream bytes. */
    void Feed(const void* data, std::size_t len);

    /**
     * Extracts the next complete, CRC-valid frame, or nullopt when the
     * buffered bytes hold none (call Feed with more stream first). Damaged
     * or torn frames are skipped with resynchronization on the next magic.
     */
    std::optional<Frame> Next();

    const Stats& stats() const { return stats_; }

    /** Bytes buffered but not yet consumed (a partial frame's prefix). */
    std::size_t pending_bytes() const { return buffer_.size() - offset_; }

  private:
    /** Discards @p n bytes as junk, counting one resync. */
    void SkipJunk(std::size_t n);

    std::vector<std::uint8_t> buffer_;
    std::size_t offset_ = 0;
    Stats stats_;
};

}  // namespace moc::net

#endif  // MOC_NET_FRAME_H_
