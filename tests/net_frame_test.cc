/**
 * @file
 * Unit tests for the transport wire codec (net/frame.h): frame round
 * trips, partial-read reassembly, CRC rejection with magic resync, junk
 * tolerance, torn-frame fuzzing, and the bounds-checked payload codec.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "net/frame.h"
#include "util/byte_codec.h"
#include "util/rng.h"

namespace moc::net {
namespace {

Frame
SampleFrame(std::uint64_t seq = 7) {
    Frame frame;
    frame.type = MsgType::kRankDone;
    frame.src_peer = 3;
    frame.epoch = 2;
    frame.seq = seq;
    frame.ctx.generation = 11;
    frame.ctx.iteration = 512;
    frame.ctx.rank = 3;
    frame.ctx.phase = PhaseLiteral(PhaseId::kPersist);
    frame.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
    return frame;
}

void
ExpectSample(const Frame& got, std::uint64_t seq = 7) {
    EXPECT_EQ(got.type, MsgType::kRankDone);
    EXPECT_EQ(got.src_peer, 3U);
    EXPECT_EQ(got.epoch, 2U);
    EXPECT_EQ(got.seq, seq);
    EXPECT_EQ(got.ctx.generation, 11U);
    EXPECT_EQ(got.ctx.iteration, 512U);
    EXPECT_EQ(got.ctx.rank, 3);
    EXPECT_STREQ(got.ctx.phase, PhaseLiteral(PhaseId::kPersist));
    EXPECT_EQ(got.payload, (Blob{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42}));
}

TEST(NetFrame, RoundTripsThroughEncodeDecode) {
    const Blob wire = EncodeFrame(SampleFrame());
    EXPECT_EQ(wire.size(), kHeaderSize + 6 + kTrailerSize);

    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got);
    EXPECT_EQ(decoder.pending_bytes(), 0U);
    EXPECT_EQ(decoder.stats().frames, 1U);
    EXPECT_EQ(decoder.stats().crc_rejects, 0U);
}

TEST(NetFrame, ReassemblesByteAtATime) {
    const Blob wire = EncodeFrame(SampleFrame());
    FrameDecoder decoder;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        EXPECT_FALSE(decoder.Next().has_value());
        decoder.Feed(&wire[i], 1);
    }
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got);
}

TEST(NetFrame, EmptyPayloadFrame) {
    Frame frame;
    frame.type = MsgType::kHeartbeat;
    frame.src_peer = 9;
    const Blob wire = EncodeFrame(frame);
    EXPECT_EQ(wire.size(), kHeaderSize + kTrailerSize);

    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, MsgType::kHeartbeat);
    EXPECT_TRUE(got->payload.empty());
}

TEST(NetFrame, RejectsBitDamageAndResyncsOnNextFrame) {
    Blob stream = EncodeFrame(SampleFrame(1));
    stream[kHeaderSize + 2] ^= 0x40;  // flip one payload bit
    const Blob good = EncodeFrame(SampleFrame(2));
    stream.insert(stream.end(), good.begin(), good.end());

    FrameDecoder decoder;
    decoder.Feed(stream.data(), stream.size());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got, 2);
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_EQ(decoder.stats().crc_rejects, 1U);
    EXPECT_GE(decoder.stats().resyncs, 1U);
}

TEST(NetFrame, SkipsJunkBeforeMagic) {
    Blob stream = {'g', 'a', 'r', 'b', 'a', 'g', 'e', 0x00, 0xFF};
    const std::size_t junk = stream.size();
    const Blob good = EncodeFrame(SampleFrame());
    stream.insert(stream.end(), good.begin(), good.end());

    FrameDecoder decoder;
    decoder.Feed(stream.data(), stream.size());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got);
    EXPECT_EQ(decoder.stats().junk_bytes, junk);
}

TEST(NetFrame, TornTailStaysPendingUntilCompleted) {
    const Blob wire = EncodeFrame(SampleFrame());
    const std::size_t cut = wire.size() - 3;

    FrameDecoder decoder;
    decoder.Feed(wire.data(), cut);
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_EQ(decoder.pending_bytes(), cut);

    decoder.Feed(wire.data() + cut, wire.size() - cut);
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got);
}

TEST(NetFrame, TornFrameFollowedByFreshFrameRecovers) {
    // A sender died mid-write: half a frame, then a new connection's frame.
    const Blob torn = EncodeFrame(SampleFrame(1));
    const Blob good = EncodeFrame(SampleFrame(2));
    Blob stream(torn.begin(), torn.begin() + kHeaderSize + 2);
    stream.insert(stream.end(), good.begin(), good.end());

    FrameDecoder decoder;
    decoder.Feed(stream.data(), stream.size());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got, 2);
}

TEST(NetFrame, RejectsOversizePayloadLengthAsJunk) {
    Blob wire = EncodeFrame(SampleFrame());
    // Corrupt payload_len (offset 44) to an absurd value; the decoder must
    // treat the header as junk instead of waiting for 4 GiB.
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(wire.data() + 44, &huge, sizeof(huge));
    const Blob good = EncodeFrame(SampleFrame(3));
    wire.insert(wire.end(), good.begin(), good.end());

    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    auto got = decoder.Next();
    ASSERT_TRUE(got.has_value());
    ExpectSample(*got, 3);
    EXPECT_GE(decoder.stats().resyncs, 1U);
}

TEST(NetFrame, FuzzSeededDamageNeverDeliversCorruptFrames) {
    // Concatenate many frames, sprinkle seeded damage, and require every
    // delivered frame to be bit-exact with an original.
    Rng rng(0x5EEDF00DULL);
    Blob stream;
    std::size_t sent = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        Frame frame = SampleFrame(i);
        frame.payload.resize(rng.UniformInt(64));
        for (auto& b : frame.payload) {
            b = static_cast<std::uint8_t>(rng.UniformInt(256));
        }
        const Blob wire = EncodeFrame(frame);
        stream.insert(stream.end(), wire.begin(), wire.end());
        ++sent;
    }
    std::size_t damaged = 0;
    for (auto& b : stream) {
        if (rng.Uniform() < 0.001) {
            b ^= static_cast<std::uint8_t>(1 + rng.UniformInt(255));
            ++damaged;
        }
    }
    ASSERT_GT(damaged, 0U);

    FrameDecoder decoder;
    std::size_t offset = 0;
    std::size_t delivered = 0;
    while (offset < stream.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng.UniformInt(97),
                                  stream.size() - offset);
        decoder.Feed(stream.data() + offset, chunk);
        offset += chunk;
        while (auto got = decoder.Next()) {
            // Delivered frames must be intact: re-encoding reproduces a
            // byte image whose CRC the decoder would accept again.
            EXPECT_EQ(got->src_peer, 3U);
            EXPECT_EQ(got->epoch, 2U);
            ++delivered;
        }
    }
    EXPECT_LE(delivered, sent);
    EXPECT_GT(delivered, 0U);
    EXPECT_EQ(decoder.stats().frames, delivered);
    EXPECT_GT(decoder.stats().crc_rejects + decoder.stats().junk_bytes, 0U);
}

TEST(NetFrame, PhaseMappingRoundTrips) {
    for (const PhaseId id :
         {PhaseId::kNone, PhaseId::kSerialize, PhaseId::kSnapshot,
          PhaseId::kPersist, PhaseId::kVerify, PhaseId::kSeal,
          PhaseId::kRecover, PhaseId::kBarrier}) {
        EXPECT_EQ(PhaseIdOf(PhaseLiteral(id)), id);
    }
    EXPECT_EQ(PhaseIdOf("no-such-phase"), PhaseId::kNone);
    EXPECT_EQ(PhaseIdOf(nullptr), PhaseId::kNone);
}

TEST(NetFrame, PayloadCodecRoundTrips) {
    ByteWriter w;
    w.U8(7);
    w.U32(0xCAFEBABEu);
    w.U64(1ULL << 40);
    w.I64(-12345);
    w.F64(2.5);
    w.Str("expert/3/w");
    const Blob bytes = w.Take();

    ByteReader r(bytes);
    EXPECT_EQ(r.U8(), 7);
    EXPECT_EQ(r.U32(), 0xCAFEBABEu);
    EXPECT_EQ(r.U64(), 1ULL << 40);
    EXPECT_EQ(r.I64(), -12345);
    EXPECT_DOUBLE_EQ(r.F64(), 2.5);
    EXPECT_EQ(r.Str(), "expert/3/w");
    EXPECT_EQ(r.remaining(), 0U);
}

TEST(NetFrame, PayloadReaderThrowsOnTruncation) {
    ByteWriter w;
    w.U64(99);
    w.Str("abc");
    Blob bytes = w.Take();
    bytes.resize(bytes.size() - 2);  // tear the string

    ByteReader r(bytes);
    EXPECT_EQ(r.U64(), 99U);
    EXPECT_THROW(r.Str(), std::runtime_error);

    ByteReader empty(bytes);
    empty.U64();
    (void)empty.U32();  // the torn string's length prefix still fits...
    EXPECT_THROW((void)empty.U32(), std::runtime_error);  // ...but no more
}

TEST(NetFrame, MsgTypeNamesAreStable) {
    EXPECT_STREQ(MsgTypeName(MsgType::kHello), "hello");
    EXPECT_STREQ(MsgTypeName(MsgType::kCkptBegin), "ckpt_begin");
    EXPECT_STREQ(MsgTypeName(MsgType::kRankDone), "rank_done");
    EXPECT_STREQ(MsgTypeName(MsgType::kPeerDeath), "peer_death");
}

}  // namespace
}  // namespace moc::net
