/**
 * @file
 * Unit tests for the tensor module: shape/data semantics, math kernels
 * (validated against hand computations and finite differences), and the
 * checkpoint serialization format.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "util/crc32.h"

namespace moc {
namespace {

// ---------- Tensor basics ----------

TEST(Tensor, ZeroInitialized) {
    Tensor t({2, 3});
    EXPECT_EQ(t.size(), 6U);
    EXPECT_EQ(t.rank(), 2U);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i], 0.0F);
    }
}

TEST(Tensor, FromValuesAndAt) {
    auto t = Tensor::FromValues(2, 2, {1, 2, 3, 4});
    EXPECT_EQ(t.At(0, 0), 1.0F);
    EXPECT_EQ(t.At(0, 1), 2.0F);
    EXPECT_EQ(t.At(1, 0), 3.0F);
    EXPECT_EQ(t.At(1, 1), 4.0F);
}

TEST(Tensor, FromValuesRejectsSizeMismatch) {
    EXPECT_THROW(Tensor::FromValues(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ValueSemanticsCopy) {
    auto a = Tensor::FromValues(1, 2, {1, 2});
    Tensor b = a;
    b[0] = 99.0F;
    EXPECT_EQ(a[0], 1.0F);
}

TEST(Tensor, ReshapePreservesData) {
    auto t = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
    auto r = t.Reshape({3, 2});
    EXPECT_EQ(r.At(2, 1), 6.0F);
    EXPECT_THROW(t.Reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, RowExtracts) {
    auto t = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
    auto row = t.Row(1);
    EXPECT_EQ(row.rank(), 1U);
    EXPECT_EQ(row[0], 4.0F);
    EXPECT_EQ(row[2], 6.0F);
}

TEST(Tensor, SumMeanNorm) {
    auto t = Tensor::FromValues(1, 4, {1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(t.Sum(), 10.0);
    EXPECT_DOUBLE_EQ(t.Mean(), 2.5);
    EXPECT_NEAR(t.Norm(), std::sqrt(30.0), 1e-6);
}

TEST(Tensor, RandnStatistics) {
    Rng rng(1);
    auto t = Tensor::Randn({100, 100}, rng, 2.0F);
    EXPECT_NEAR(t.Mean(), 0.0, 0.05);
    double sq = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        sq += static_cast<double>(t[i]) * t[i];
    }
    EXPECT_NEAR(std::sqrt(sq / static_cast<double>(t.size())), 2.0, 0.05);
}

TEST(Tensor, AllCloseToleratesEpsilon) {
    auto a = Tensor::FromValues(1, 2, {1.0F, 2.0F});
    auto b = Tensor::FromValues(1, 2, {1.0F + 1e-6F, 2.0F});
    EXPECT_TRUE(a.AllClose(b, 1e-5F));
    EXPECT_FALSE(a.AllClose(b, 1e-8F));
}

// ---------- MatMul family ----------

TEST(Ops, MatMulHandComputed) {
    auto a = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
    auto b = Tensor::FromValues(3, 2, {7, 8, 9, 10, 11, 12});
    auto c = MatMul(a, b);
    EXPECT_EQ(c.At(0, 0), 58.0F);
    EXPECT_EQ(c.At(0, 1), 64.0F);
    EXPECT_EQ(c.At(1, 0), 139.0F);
    EXPECT_EQ(c.At(1, 1), 154.0F);
}

TEST(Ops, MatMulRejectsInnerMismatch) {
    Tensor a({2, 3});
    Tensor b({4, 2});
    EXPECT_THROW(MatMul(a, b), std::invalid_argument);
}

TEST(Ops, MatMulTransAMatchesExplicitTranspose) {
    Rng rng(2);
    auto a = Tensor::Randn({4, 3}, rng, 1.0F);  // [k, m]
    auto b = Tensor::Randn({4, 5}, rng, 1.0F);  // [k, n]
    auto c = MatMulTransA(a, b);                // [m, n]
    // Explicit: c[m][n] = sum_k a[k][m] * b[k][n].
    for (std::size_t m = 0; m < 3; ++m) {
        for (std::size_t n = 0; n < 5; ++n) {
            double acc = 0.0;
            for (std::size_t k = 0; k < 4; ++k) {
                acc += static_cast<double>(a.At(k, m)) * b.At(k, n);
            }
            EXPECT_NEAR(c.At(m, n), acc, 1e-4);
        }
    }
}

TEST(Ops, MatMulTransBMatchesExplicitTranspose) {
    Rng rng(3);
    auto a = Tensor::Randn({2, 4}, rng, 1.0F);  // [m, n]
    auto b = Tensor::Randn({3, 4}, rng, 1.0F);  // [k, n]
    auto c = MatMulTransB(a, b);                // [m, k]
    for (std::size_t m = 0; m < 2; ++m) {
        for (std::size_t k = 0; k < 3; ++k) {
            double acc = 0.0;
            for (std::size_t n = 0; n < 4; ++n) {
                acc += static_cast<double>(a.At(m, n)) * b.At(k, n);
            }
            EXPECT_NEAR(c.At(m, k), acc, 1e-4);
        }
    }
}

// ---------- Elementwise ----------

TEST(Ops, AddMulScaleAxpy) {
    auto a = Tensor::FromValues(1, 3, {1, 2, 3});
    auto b = Tensor::FromValues(1, 3, {10, 20, 30});
    EXPECT_EQ(Add(a, b).At(0, 2), 33.0F);
    EXPECT_EQ(Mul(a, b).At(0, 1), 40.0F);
    EXPECT_EQ(Scale(a, 2.0F).At(0, 0), 2.0F);
    Axpy(a, b, 0.5F);
    EXPECT_EQ(a.At(0, 0), 6.0F);
}

TEST(Ops, AddRowBiasAndSumRows) {
    auto x = Tensor::FromValues(2, 2, {1, 2, 3, 4});
    auto bias = Tensor::FromVector({10, 20});
    AddRowBias(x, bias);
    EXPECT_EQ(x.At(1, 1), 24.0F);
    auto sums = SumRows(x);
    EXPECT_EQ(sums[0], 24.0F);  // 11 + 13
    EXPECT_EQ(sums[1], 46.0F);  // 22 + 24
}

// ---------- Softmax ----------

TEST(Ops, RowSoftmaxSumsToOne) {
    Rng rng(4);
    auto x = Tensor::Randn({5, 7}, rng, 3.0F);
    auto y = RowSoftmax(x);
    for (std::size_t r = 0; r < 5; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 7; ++c) {
            sum += y.At(r, c);
            EXPECT_GT(y.At(r, c), 0.0F);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, RowSoftmaxStableForLargeLogits) {
    auto x = Tensor::FromValues(1, 2, {1000.0F, 1000.0F});
    auto y = RowSoftmax(x);
    EXPECT_NEAR(y.At(0, 0), 0.5F, 1e-6F);
}

TEST(Ops, RowSoftmaxBackwardFiniteDifference) {
    Rng rng(5);
    auto x = Tensor::Randn({2, 4}, rng, 1.0F);
    auto dy = Tensor::Randn({2, 4}, rng, 1.0F);
    auto y = RowSoftmax(x);
    auto dx = RowSoftmaxBackward(y, dy);
    const float eps = 1e-3F;
    for (std::size_t i = 0; i < x.size(); ++i) {
        Tensor xp = x;
        Tensor xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        auto yp = RowSoftmax(xp);
        auto ym = RowSoftmax(xm);
        double num = 0.0;
        for (std::size_t j = 0; j < x.size(); ++j) {
            num += static_cast<double>(yp[j] - ym[j]) / (2.0 * eps) * dy[j];
        }
        EXPECT_NEAR(dx[i], num, 5e-3);
    }
}

// ---------- Activations ----------

TEST(Ops, GeluKnownValues) {
    auto x = Tensor::FromVector({0.0F, 1.0F, -1.0F});
    auto y = Gelu(x.Reshape({1, 3}));
    EXPECT_NEAR(y[0], 0.0F, 1e-6F);
    EXPECT_NEAR(y[1], 0.8412F, 1e-3F);
    EXPECT_NEAR(y[2], -0.1588F, 1e-3F);
}

TEST(Ops, GeluBackwardFiniteDifference) {
    Rng rng(6);
    auto x = Tensor::Randn({1, 8}, rng, 1.0F);
    Tensor dy({1, 8});
    dy.Fill(1.0F);
    auto dx = GeluBackward(x, dy);
    const float eps = 1e-3F;
    for (std::size_t i = 0; i < x.size(); ++i) {
        Tensor xp = x;
        Tensor xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double num =
            static_cast<double>(Gelu(xp)[i] - Gelu(xm)[i]) / (2.0 * eps);
        EXPECT_NEAR(dx[i], num, 5e-3);
    }
}

TEST(Ops, ReluAndBackward) {
    auto x = Tensor::FromValues(1, 4, {-1, 0, 2, -3});
    auto y = Relu(x);
    EXPECT_EQ(y[0], 0.0F);
    EXPECT_EQ(y[2], 2.0F);
    Tensor dy({1, 4});
    dy.Fill(1.0F);
    auto dx = ReluBackward(x, dy);
    EXPECT_EQ(dx[0], 0.0F);
    EXPECT_EQ(dx[2], 1.0F);
}

// ---------- LayerNorm ----------

TEST(Ops, LayerNormNormalizesRows) {
    Rng rng(7);
    auto x = Tensor::Randn({4, 16}, rng, 3.0F);
    Tensor gain({16});
    gain.Fill(1.0F);
    Tensor bias({16});
    std::vector<float> mean;
    std::vector<float> rstd;
    auto y = LayerNormForward(x, gain, bias, mean, rstd);
    for (std::size_t r = 0; r < 4; ++r) {
        double mu = 0.0;
        double var = 0.0;
        for (std::size_t c = 0; c < 16; ++c) {
            mu += y.At(r, c);
        }
        mu /= 16.0;
        for (std::size_t c = 0; c < 16; ++c) {
            var += (y.At(r, c) - mu) * (y.At(r, c) - mu);
        }
        var /= 16.0;
        EXPECT_NEAR(mu, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Ops, LayerNormBackwardFiniteDifference) {
    Rng rng(8);
    auto x = Tensor::Randn({2, 6}, rng, 1.0F);
    auto gain = Tensor::Randn({6}, rng, 0.5F);
    auto bias = Tensor::Randn({6}, rng, 0.5F);
    auto dy = Tensor::Randn({2, 6}, rng, 1.0F);

    std::vector<float> mean;
    std::vector<float> rstd;
    LayerNormForward(x, gain, bias, mean, rstd);
    Tensor dgain({6});
    Tensor dbias({6});
    auto dx = LayerNormBackward(x, dy, gain, mean, rstd, dgain, dbias);

    auto loss = [&](const Tensor& xx) {
        std::vector<float> m;
        std::vector<float> r;
        auto y = LayerNormForward(xx, gain, bias, m, r);
        double l = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i) {
            l += static_cast<double>(y[i]) * dy[i];
        }
        return l;
    };
    const float eps = 1e-3F;
    for (std::size_t i = 0; i < x.size(); ++i) {
        Tensor xp = x;
        Tensor xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double num = (loss(xp) - loss(xm)) / (2.0 * eps);
        EXPECT_NEAR(dx[i], num, 5e-3);
    }
}

// ---------- CrossEntropy ----------

TEST(Ops, CrossEntropyUniformLogits) {
    Tensor logits({2, 4});
    std::vector<int> targets{0, 3};
    const double loss = CrossEntropy(logits, targets, nullptr);
    EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(Ops, CrossEntropyGradientFiniteDifference) {
    Rng rng(9);
    auto logits = Tensor::Randn({3, 5}, rng, 1.0F);
    std::vector<int> targets{1, 4, 0};
    Tensor dlogits;
    CrossEntropy(logits, targets, &dlogits);
    const float eps = 1e-3F;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Tensor lp = logits;
        Tensor lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        const double num = (CrossEntropy(lp, targets, nullptr) -
                            CrossEntropy(lm, targets, nullptr)) /
                           (2.0 * eps);
        EXPECT_NEAR(dlogits[i], num, 5e-3);
    }
}

TEST(Ops, CrossEntropyIgnoreIndexSkips) {
    Tensor logits({2, 3});
    logits.At(0, 1) = 10.0F;
    std::vector<int> targets{1, kIgnoreIndex};
    Tensor dlogits;
    const double loss = CrossEntropy(logits, targets, &dlogits);
    EXPECT_LT(loss, 0.01);
    // Ignored row contributes no gradient.
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(dlogits.At(1, c), 0.0F);
    }
}

TEST(Ops, RowArgmaxPicksMax) {
    auto x = Tensor::FromValues(2, 3, {1, 5, 2, 9, 0, 3});
    const auto idx = RowArgmax(x);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
}

// ---------- Serialization ----------

TEST(Serialize, RoundTripPreservesEverything) {
    Rng rng(10);
    auto t = Tensor::Randn({3, 4, 5}, rng, 1.0F);
    const auto blob = SerializeTensor(t);
    EXPECT_EQ(blob.size(), SerializedTensorSize(t));
    const auto back = DeserializeTensor(blob);
    EXPECT_TRUE(back.AllClose(t, 0.0F));
    EXPECT_EQ(back.shape(), t.shape());
}

TEST(Serialize, DetectsCorruption) {
    Rng rng(11);
    auto t = Tensor::Randn({8}, rng, 1.0F);
    auto blob = SerializeTensor(t);
    blob[blob.size() / 2] ^= 0xFF;
    EXPECT_THROW(DeserializeTensor(blob), std::runtime_error);
}

TEST(Serialize, DetectsTruncation) {
    Rng rng(12);
    auto t = Tensor::Randn({8}, rng, 1.0F);
    auto blob = SerializeTensor(t);
    blob.resize(blob.size() - 5);
    EXPECT_THROW(DeserializeTensor(blob), std::runtime_error);
}

TEST(Serialize, RejectsGarbage) {
    std::vector<std::uint8_t> garbage(64, 0x42);
    EXPECT_THROW(DeserializeTensor(garbage), std::runtime_error);
}

TEST(Serialize, PointerOverloadsMatchVectorOnUnalignedSubRange) {
    Rng rng(13);
    const auto t = Tensor::Randn({5, 7}, rng, 1.0F);
    const auto blob = SerializeTensor(t);
    // Three bytes of prefix put the record off every natural alignment;
    // trailing bytes check that the parser stays inside its range.
    const std::uint8_t pad[5] = {0xEE, 0xEE, 0xEE, 0xEE, 0xEE};
    ByteWriter writer;
    writer.Raw(pad, 3);
    SerializeTensor(t, writer);
    writer.Raw(pad, 5);
    const std::vector<std::uint8_t> buffer = writer.Take();
    ASSERT_EQ(buffer.size(), 3 + blob.size() + 5);
    EXPECT_TRUE(std::equal(blob.begin(), blob.end(), buffer.begin() + 3));
    const Tensor from_pointer = DeserializeTensor(buffer.data() + 3, blob.size());
    const Tensor from_vector = DeserializeTensor(blob);
    EXPECT_EQ(from_pointer.shape(), from_vector.shape());
    EXPECT_TRUE(from_pointer.AllClose(from_vector, 0.0F));
    EXPECT_THROW(DeserializeTensor(buffer.data() + 3, blob.size() - 1),
                 std::runtime_error);
}

TEST(Serialize, ParseTensorRecordPointsIntoTheBlob) {
    Rng rng(16);
    const auto t = Tensor::Randn({3, 4}, rng, 1.0F);
    const auto blob = SerializeTensor(t);
    const TensorRecord record = ParseTensorRecord(blob.data(), blob.size());
    EXPECT_EQ(record.shape, t.shape());
    EXPECT_EQ(record.data_bytes, t.size() * sizeof(float));
    // magic, rank, two dims: the data follows the 24-byte header in place.
    EXPECT_EQ(record.data, blob.data() + 24);
    Tensor out({3, 4});
    const float* storage = out.data();
    record.CopyTo(out);
    EXPECT_EQ(out.data(), storage);
    EXPECT_TRUE(out.AllClose(t, 0.0F));
    auto corrupt = blob;
    corrupt[30] ^= 0x01;
    EXPECT_THROW(ParseTensorRecord(corrupt.data(), corrupt.size()),
                 std::runtime_error);
}

/** Appends @p value's bytes to @p out. */
template <typename T>
void
Put(std::vector<std::uint8_t>& out, T value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(T));
}

/** A tensor header (magic, rank, dims) plus @p data_bytes zero bytes,
    sealed with a valid CRC trailer, so only the size checks can refuse it. */
std::vector<std::uint8_t>
HostileTensorBlob(std::uint32_t rank, const std::vector<std::uint64_t>& dims,
                  std::size_t data_bytes = 0) {
    std::vector<std::uint8_t> blob;
    Put<std::uint32_t>(blob, 0x4D4F4354);  // "MOCT"
    Put(blob, rank);
    for (const auto d : dims) {
        Put(blob, d);
    }
    blob.resize(blob.size() + data_bytes, 0);
    Put(blob, Crc32(blob.data(), blob.size()));
    return blob;
}

TEST(Serialize, HostileShapesWithValidCrcThrowBeforeAllocating) {
    // The control: a well-formed 2 × 3 tensor in the same hand-built form.
    EXPECT_EQ(DeserializeTensor(HostileTensorBlob(2, {2, 3}, 24)).size(), 6U);
    // A rank of 2^32 - 1 with no dims behind it: sizing the shape from it
    // would ask for 32 GiB.
    EXPECT_THROW(DeserializeTensor(HostileTensorBlob(0xFFFFFFFFU, {})),
                 std::runtime_error);
    EXPECT_THROW(DeserializeTensor(HostileTensorBlob(3, {4, 4})),
                 std::runtime_error);
    // 2^40 elements fit in size_t but not in a 16-byte payload.
    EXPECT_THROW(DeserializeTensor(HostileTensorBlob(1, {1ULL << 40}, 16)),
                 std::runtime_error);
    // Element counts that overflow size_t: 2^33 × 2^33 wraps to 0 and
    // (2^62 + 1) × 4 to 4, which must not pass for an empty or a 16-byte
    // payload.
    EXPECT_THROW(
        DeserializeTensor(HostileTensorBlob(2, {1ULL << 33, 1ULL << 33})),
        std::runtime_error);
    EXPECT_THROW(
        DeserializeTensor(HostileTensorBlob(2, {(1ULL << 62) + 1, 4}, 16)),
        std::runtime_error);
}

}  // namespace
}  // namespace moc
