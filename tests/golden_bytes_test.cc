/**
 * @file
 * Golden-byte pins of every binary format the system persists or sends.
 * Each test encodes one fixed value and compares the bytes, in hex, with
 * the image the format has always had. A codec refactor must leave all of
 * them passing unedited: a changed byte here is a format change, which
 * would strand every checkpoint and every peer written before it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/membership.h"
#include "ckpt/rank_coordinator.h"
#include "core/moc_system.h"
#include "net/frame.h"
#include "net/telemetry.h"
#include "storage/delta_codec.h"
#include "storage/file_store.h"
#include "temp_path.h"
#include "tensor/serialize.h"

namespace moc {
namespace {

/** Lowercase hex of @p bytes, two digits per byte. */
std::string
Hex(const std::vector<std::uint8_t>& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::uint8_t b : bytes) {
        out.push_back(kDigits[b >> 4]);
        out.push_back(kDigits[b & 0xF]);
    }
    return out;
}

TEST(ByteCodecGolden, FrameWithEveryHeaderFieldSet) {
    net::Frame frame;
    frame.type = net::MsgType::kRankDone;
    frame.flags = 0x5A;
    frame.src_peer = 0x01020304;
    frame.epoch = 0x0A0B0C0D;
    frame.seq = 0x1122334455667788ULL;
    frame.ctx.generation = 0x0102030405060708ULL;
    frame.ctx.iteration = 0x1112131415161718ULL;
    frame.ctx.rank = -2;
    frame.ctx.phase = net::PhaseLiteral(net::PhaseId::kPersist);
    frame.payload = {0xDE, 0xAD, 0xBE};
    EXPECT_EQ(Hex(net::EncodeFrame(frame)),
              "4d4f43460107035a040302010d0c0b0a887766554433221108070605"
              "040302011817161514131211feffffff03000000deadbed9c5952a");
}

TEST(ByteCodecGolden, DeltaRecordOfFixedBlob) {
    Blob blob(40);
    for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    // Chunks 0 and 2 of 16-byte chunks; chunk 2 is the 8-byte tail.
    EXPECT_EQ(Hex(EncodeDelta(blob, {0, 2}, 16, 0x0102030405ULL)),
              "4d4f4344010000002800000000000000050403020100000010000000"
              "030000000200000005030a11181f262d343b424950575e656ce3eaf1"
              "f8ff060d14");
}

TEST(ByteCodecGolden, ExtraStateOfFixedState) {
    ExtraState extra;
    extra.iteration = 0x0102030405060708ULL;
    extra.adam_step = 0x1112131415161718ULL;
    extra.gating_rng.s[0] = 0x2122232425262728ULL;
    extra.gating_rng.s[1] = 0x3132333435363738ULL;
    extra.gating_rng.s[2] = 0x4142434445464748ULL;
    extra.gating_rng.s[3] = 0x5152535455565758ULL;
    extra.gating_rng.have_cached_gaussian = true;
    extra.gating_rng.cached_gaussian = -1.25;
    EXPECT_EQ(Hex(SerializeExtraState(extra)),
              "08070605040302011817161514131211282726252423222138373635"
              "343332314847464544434241585756555453525101000000000000f4"
              "bf");
}

TEST(ByteCodecGolden, TensorOfFixedValues) {
    Tensor t({2, 1});
    t.data()[0] = 1.5F;
    t.data()[1] = -2.0F;
    EXPECT_EQ(Hex(SerializeTensor(t)),
              "54434f4d02000000020000000000000001000000000000000000c03f"
              "000000c07cced8b8");
}

TEST(ByteCodecGolden, FileStoreFileIsPayloadThenCrcTrailer) {
    const auto root = UniqueTempPath("moc_golden_fs");
    std::filesystem::remove_all(root);
    {
        FileStore store(root);
        store.Put("a/b", Blob{0x00, 0x01, 0x7F, 0x80, 0xFF});
    }
    std::ifstream in(root / "a" / "b.blob", std::ios::binary);
    ASSERT_TRUE(in.good());
    const Blob file{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
    EXPECT_EQ(Hex(file),
              "00017f80ffd3c8b237");
    std::filesystem::remove_all(root);
}

TEST(ByteCodecGolden, JoinAcceptPayload) {
    ckpt::JoinAccept accept;
    accept.accepted = true;
    accept.reason = "ok";
    accept.membership_version = 0x0102030405060708ULL;
    accept.placement.version = 9;
    accept.placement.assignments[3] = {1, 2};
    EXPECT_EQ(Hex(ckpt::EncodeJoinAccept(accept)),
              "01020000006f6b080706050403020109000000000000000100000003"
              "00000000000000020000000100000002000000");
}

TEST(ByteCodecGolden, RankDonePayload) {
    RankDone done;
    done.iteration = 0x0102030405060708ULL;
    done.ok = true;
    ShardReport r;
    r.key = "r1";
    r.iteration = 7;
    r.bytes = 0x1000;
    r.crc = 0xCAFEBABE;
    r.verified = true;
    r.failed = true;
    r.ref_iteration = 5;
    done.reports.push_back(r);
    EXPECT_EQ(Hex(EncodeRankDone(done)),
              "08070605040302010101000000020000007231070000000000000000"
              "10000000000000bebafeca050500000000000000");
}

TEST(ByteCodecGolden, TelemetryPayload) {
    obs::TelemetrySample sample;
    sample.rank = 2;
    sample.generation = 3;
    sample.iteration = 4;
    sample.phase = "seal";
    sample.phase_since_ns = -5;
    sample.sent_ns = 6;
    sample.clock_offset_ns = -7;
    sample.counters = {{"c", 0.5}};
    EXPECT_EQ(Hex(net::EncodeTelemetry(sample)),
              "0200000003000000000000000400000000000000040000007365616c"
              "fbffffffffffffff0600000000000000f9ffffffffffffff01000000"
              "0100000063000000000000e03f");
}

}  // namespace
}  // namespace moc
