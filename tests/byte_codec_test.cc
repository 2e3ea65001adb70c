/**
 * @file
 * The shared byte codec (util/byte_codec.h) and the decoders built on it:
 * the little-endian layout of every field width, bounds checks at every
 * offset past the end, the truncation sweep (every strict prefix of a valid
 * encoding throws DecodeError from every decoder), and exact consumption
 * (checkpoint decoders refuse bytes after their last field).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "ckpt/membership.h"
#include "ckpt/rank_coordinator.h"
#include "core/moc_system.h"
#include "net/telemetry.h"
#include "nn/parameter.h"
#include "storage/delta_codec.h"
#include "tensor/serialize.h"
#include "util/byte_codec.h"
#include "util/rng.h"

namespace moc {
namespace {

using Bytes8 = std::vector<std::uint8_t>;

// ---------- the codec ----------

TEST(ByteCodec, EveryWidthIsLittleEndianAndReadsBack) {
    ByteWriter w;
    w.U8(0xA5);
    w.U32(0x01020304U);
    w.U64(0x0102030405060708ULL);
    w.I64(-2);
    w.F64(1.0);
    w.Str("ab");
    w.Str("");
    w.Raw("xyz", 3);
    const Bytes8 bytes = w.Take();
    EXPECT_EQ(bytes,
              (Bytes8{0xA5,                                            // U8
                      0x04, 0x03, 0x02, 0x01,                          // U32
                      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // U64
                      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // I64
                      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // F64
                      0x02, 0x00, 0x00, 0x00, 'a', 'b',                // Str
                      0x00, 0x00, 0x00, 0x00,                          // Str ""
                      'x', 'y', 'z'}));                                // Raw

    ByteReader r(bytes);
    EXPECT_EQ(r.U8(), 0xA5);
    EXPECT_EQ(r.U32(), 0x01020304U);
    EXPECT_EQ(r.U64(), 0x0102030405060708ULL);
    EXPECT_EQ(r.I64(), -2);
    EXPECT_EQ(r.F64(), 1.0);
    EXPECT_EQ(r.Str(), "ab");
    EXPECT_EQ(r.Str(), "");
    EXPECT_EQ(r.offset(), bytes.size() - 3);
    EXPECT_EQ(std::memcmp(r.Raw(3), "xyz", 3), 0);
    EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(ByteCodec, ReadsPastTheEndThrowAtEveryOffset) {
    const Bytes8 bytes(13, 0x5A);
    const std::vector<std::pair<std::size_t, std::function<void(ByteReader&)>>>
        reads = {
            {1, [](ByteReader& r) { r.U8(); }},
            {4, [](ByteReader& r) { r.U32(); }},
            {8, [](ByteReader& r) { r.U64(); }},
            {8, [](ByteReader& r) { r.I64(); }},
            {8, [](ByteReader& r) { r.F64(); }},
            {5, [](ByteReader& r) { r.Raw(5); }},
        };
    for (std::size_t at = 0; at <= bytes.size(); ++at) {
        for (const auto& [width, read] : reads) {
            ByteReader r(bytes);
            r.Raw(at);
            if (at + width <= bytes.size()) {
                EXPECT_NO_THROW(read(r)) << "width " << width << " at " << at;
                EXPECT_EQ(r.offset(), at + width);
            } else {
                EXPECT_THROW(read(r), DecodeError)
                    << "width " << width << " at " << at;
                EXPECT_EQ(r.offset(), at) << "a failed read moved the cursor";
            }
        }
        // Past its length prefix, every string here claims 0x5A5A5A5A bytes.
        ByteReader r(bytes);
        r.Raw(at);
        EXPECT_THROW(r.Str(), DecodeError) << "string at " << at;
    }
    // A hostile size cannot wrap the check: remaining() < n, not
    // offset + n > size.
    ByteReader r(bytes);
    r.U8();
    EXPECT_THROW(r.Raw(~std::size_t{0}), DecodeError);
    EXPECT_THROW(r.Raw(~std::size_t{0} - 11), DecodeError);
}

TEST(ByteCodec, CountBoundsElementsByRemainingBytes) {
    ByteWriter w;
    w.U32(3);
    w.Raw("123456789012", 12);
    const Bytes8 bytes = w.Take();
    EXPECT_EQ(ByteReader(bytes).Count(4), 3U);
    EXPECT_THROW(ByteReader(bytes).Count(5), DecodeError);
}

TEST(ByteCodec, ExpectEndRejectsTrailingBytes) {
    const Bytes8 bytes = {1, 2, 3};
    ByteReader r(bytes);
    r.U8();
    EXPECT_THROW(r.ExpectEnd(), DecodeError);
    r.Raw(2);
    EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(ByteCodec, DecodeErrorIsARuntimeError) {
    ByteReader r(nullptr, 0);
    EXPECT_THROW(r.U8(), std::runtime_error);
}

// ---------- every decoder, every strict prefix ----------

/** Calls @p decode on every strict prefix of @p valid; each must throw. */
void
ExpectEveryPrefixThrows(const Bytes8& valid,
                        const std::function<void(const Bytes8&)>& decode,
                        const char* what) {
    ASSERT_NO_THROW(decode(valid)) << what << ": the full encoding must decode";
    for (std::size_t len = 0; len < valid.size(); ++len) {
        const Bytes8 prefix(valid.begin(),
                            valid.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW(decode(prefix), DecodeError)
            << what << ": prefix of " << len << " of " << valid.size()
            << " bytes";
    }
}

/** Two parameters, one of them empty, with Adam moments set. */
struct Params {
    Params() {
        Rng rng(7);
        a.adam_m() = Tensor::Randn({2, 3}, rng, 1.0F);
        a.adam_v() = Tensor::Randn({2, 3}, rng, 1.0F);
    }
    std::vector<Parameter*> list() { return {&a, &b}; }

    Rng seed{5};
    Parameter a{"a", Tensor::Randn({2, 3}, seed, 1.0F)};
    Parameter b{"b", Tensor()};
};

ExtraState
SampleExtra() {
    Rng rng(3);
    rng.Gaussian();  // arm the cached sample
    return ExtraState{41, 17, rng.GetState()};
}

PlacementPlan
SamplePlacement() {
    PlacementPlan plan;
    plan.version = 4;
    plan.assignments[0] = {0, 2};
    plan.assignments[5] = {1};
    return plan;
}

TEST(ByteCodecSweep, TensorRecord) {
    Rng rng(1);
    ExpectEveryPrefixThrows(
        SerializeTensor(Tensor::Randn({3, 2}, rng, 1.0F)),
        [](const Bytes8& b) { ParseTensorRecord(b.data(), b.size()); },
        "ParseTensorRecord");
}

TEST(ByteCodecSweep, ParamList) {
    Params params;
    for (const bool weights : {true, false}) {
        ExpectEveryPrefixThrows(
            SerializeParamList(params.list(), weights),
            [&params, weights](const Bytes8& b) {
                DeserializeParamList(b, params.list(), weights);
            },
            weights ? "DeserializeParamList(weights)"
                    : "DeserializeParamList(moments)");
    }
}

TEST(ByteCodecSweep, ExtraState) {
    ExpectEveryPrefixThrows(
        SerializeExtraState(SampleExtra()),
        [](const Bytes8& b) { DeserializeExtraState(b); },
        "DeserializeExtraState");
}

TEST(ByteCodecSweep, DeltaRecord) {
    Blob blob(300);
    for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 13);
    }
    ExpectEveryPrefixThrows(
        EncodeDelta(blob, {0, 2}, 128, 9),
        [](const Bytes8& b) { ParseDelta(b); }, "ParseDelta");
}

TEST(ByteCodecSweep, Telemetry) {
    obs::TelemetrySample sample;
    sample.rank = 1;
    sample.generation = 2;
    sample.iteration = 3;
    sample.phase = "persist";
    sample.phase_since_ns = 4;
    sample.sent_ns = 5;
    sample.clock_offset_ns = -6;
    sample.counters = {{"ckpt.events", 7.0}, {"net.frames_sent", 8.5}};
    ExpectEveryPrefixThrows(
        net::EncodeTelemetry(sample),
        [](const Bytes8& b) { net::DecodeTelemetry(b); }, "DecodeTelemetry");
}

TEST(ByteCodecSweep, JoinRequestAndAccept) {
    ExpectEveryPrefixThrows(
        ckpt::EncodeJoinRequest({.rank = 3, .incarnation = 2}),
        [](const Bytes8& b) { ckpt::DecodeJoinRequest(b); },
        "DecodeJoinRequest");
    ckpt::JoinAccept accept;
    accept.accepted = true;
    accept.reason = "rejoined";
    accept.membership_version = 12;
    accept.placement = SamplePlacement();
    ExpectEveryPrefixThrows(
        ckpt::EncodeJoinAccept(accept),
        [](const Bytes8& b) { ckpt::DecodeJoinAccept(b); }, "DecodeJoinAccept");
}

TEST(ByteCodecSweep, RankDone) {
    RankDone done;
    done.iteration = 8;
    done.ok = true;
    done.reports.push_back({.key = "rank1/dense/0",
                            .iteration = 8,
                            .bytes = 4096,
                            .crc = 0xDEADBEEF,
                            .verified = true});
    done.reports.push_back({.key = "rank1/expert/2/w",
                            .iteration = 8,
                            .bytes = 512,
                            .deduped = true,
                            .ref_iteration = 4});
    ExpectEveryPrefixThrows(
        EncodeRankDone(done),
        [](const Bytes8& b) { DecodeRankDone(1, b); }, "DecodeRankDone");
}

TEST(ByteCodecSweep, PlacementAssignments) {
    ByteWriter w;
    ckpt::EncodePlacementAssignments(SamplePlacement(), w);
    ExpectEveryPrefixThrows(
        w.Take(),
        [](const Bytes8& b) {
            ByteReader r(b);
            ckpt::DecodePlacementAssignments(r);
        },
        "DecodePlacementAssignments");
}

TEST(ByteCodecSweep, HostileCountsThrowBeforeReserving) {
    // A u32 count of 2^32 - 1 elements behind a payload that holds none:
    // reserving for it first would ask for tens of GiB.
    ByteWriter telemetry;
    telemetry.U32(1);
    telemetry.U64(2);
    telemetry.U64(3);
    telemetry.Str("");
    telemetry.I64(0);
    telemetry.I64(0);
    telemetry.I64(0);
    telemetry.U32(0xFFFFFFFFU);
    EXPECT_THROW(net::DecodeTelemetry(telemetry.Take()), DecodeError);

    ByteWriter done;
    done.U64(1);
    done.U8(1);
    done.U32(0xFFFFFFFFU);
    EXPECT_THROW(DecodeRankDone(0, done.Take()), DecodeError);

    ByteWriter placement;
    placement.U64(1);
    placement.U32(1);
    placement.U64(0);
    placement.U32(0xFFFFFFFFU);
    const Bytes8 bytes = placement.Take();
    ByteReader r(bytes);
    EXPECT_THROW(ckpt::DecodePlacementAssignments(r), DecodeError);
}

TEST(ByteCodecSweep, DeltaRejectsWrappingLogicalSize) {
    // A logical size of 2^64 - 1 in 16-byte chunks: (size + 15) / 16 wraps
    // to 0 chunks, so a record claiming no chunks and no payload used to
    // parse as a consistent 16-EiB blob.
    ByteWriter w;
    w.Raw("MOCD", 4);
    w.U32(1);                       // version
    w.U64(~std::uint64_t{0});       // logical_bytes
    w.U64(0);                       // base_iteration
    w.U32(16);                      // chunk_bytes
    w.U32(0);                       // num_chunks, the wrapped count
    w.U32(0);                       // changed_count
    EXPECT_THROW(ParseDelta(w.Take()), DecodeError);
}

// ---------- exact consumption ----------

TEST(ByteCodecSweep, ParamListRejectsTrailingBytes) {
    Params params;
    for (const bool weights : {true, false}) {
        Blob blob = SerializeParamList(params.list(), weights);
        blob.push_back(0);
        EXPECT_THROW(DeserializeParamList(blob, params.list(), weights),
                     DecodeError);
    }
}

TEST(ByteCodecSweep, ExtraStateRejectsTrailingBytes) {
    Blob blob = SerializeExtraState(SampleExtra());
    blob.push_back(0);
    EXPECT_THROW(DeserializeExtraState(blob), DecodeError);
}

}  // namespace
}  // namespace moc
