/**
 * @file
 * Additional coverage: load-aware selection through the full checkpoint
 * system, store concurrency under parallel writers, serialization sweeps
 * over random shapes, classifier recovery semantics, and misc edge cases.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/moc_system.h"
#include "data/corpus.h"
#include "faults/trainer.h"
#include "nn/model.h"
#include "storage/memory_store.h"
#include "tensor/serialize.h"

namespace moc {
namespace {

LmConfig
TinyLm() {
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    cfg.seed = 5;
    return cfg;
}

// ---------- Load-aware selection end-to-end ----------

TEST(LoadAwareSystem, PrioritizesBusiestExperts) {
    MoeTransformerLm model(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 1;
    cfg.pec.k_persist = 1;
    cfg.pec.policy = SelectionPolicy::kLoadAware;
    cfg.i_ckpt = 4;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);

    // Route heavily to expert 2 of every layer.
    const std::size_t layers = system.ledger().num_moe_layers();
    for (std::size_t m = 0; m < layers; ++m) {
        system.ledger().RecordRouting(m, {1, 1, 50, 1}, 53);
    }
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    // Expert 2's state must now be persisted at iteration 4.
    for (std::size_t m = 0; m < layers; ++m) {
        const auto v = system.manifest().Latest(
            StoreLevel::kPersist, "moe/" + std::to_string(m) + "/expert/2/w");
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->iteration, 4U);
        // A lightly-used expert stays at the initial checkpoint.
        const auto v0 = system.manifest().Latest(
            StoreLevel::kPersist, "moe/" + std::to_string(m) + "/expert/0/w");
        ASSERT_TRUE(v0.has_value());
        EXPECT_EQ(v0->iteration, 0U);
    }
}

TEST(LoadAwareSystem, FullTrainingRunWorks) {
    CorpusConfig cc;
    cc.vocab_size = 32;
    cc.seed = 3;
    ZipfMarkovCorpus corpus(cc);
    LmBatchStream train(corpus, 4, 12, 0);
    LmBatchStream valid(corpus, 4, 12, 1);
    MoeTransformerLm model(TinyLm());
    LmTrainerConfig cfg;
    cfg.moc.pec.k_snapshot = 2;
    cfg.moc.pec.k_persist = 1;
    cfg.moc.pec.policy = SelectionPolicy::kLoadAware;
    cfg.moc.i_ckpt = 8;
    cfg.parallel = {.dp = 4, .ep = 4, .tp = 1, .pp = 1};
    cfg.gpus_per_node = 2;
    cfg.total_iterations = 48;
    cfg.adam.lr = 3e-3;
    auto injector = FaultInjector::At(26, 0);
    const auto log = RunFaultTolerantLmTraining(model, train, valid, cfg, injector);
    EXPECT_EQ(log.recoveries.size(), 1U);
    EXPECT_LT(log.final_eval_loss, 4.0);
}

// ---------- Store concurrency ----------

TEST(Concurrency, ParallelPutsAreConsistent) {
    MemoryStore store;
    constexpr int kThreads = 8;
    constexpr int kKeysPerThread = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t] {
            for (int i = 0; i < kKeysPerThread; ++i) {
                const std::string key =
                    "k/" + std::to_string(t) + "/" + std::to_string(i);
                store.Put(key, Blob(16, static_cast<std::uint8_t>(t)));
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(store.Count(), static_cast<std::size_t>(kThreads * kKeysPerThread));
    EXPECT_EQ(store.TotalBytes(),
              static_cast<Bytes>(kThreads * kKeysPerThread * 16));
}

TEST(Concurrency, OverwriteRaceKeepsAccountingSane) {
    MemoryStore store;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store] {
            for (int i = 0; i < 500; ++i) {
                store.Put("hot", Blob(static_cast<std::size_t>(8 + i % 8), 0xEE));
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(store.Count(), 1U);
    const auto blob = store.Get("hot");
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(store.TotalBytes(), blob->size());
}

TEST(Concurrency, ManifestParallelRecordAndQuery) {
    CheckpointManifest manifest;
    std::thread writer([&manifest] {
        for (std::size_t i = 1; i <= 500; ++i) {
            manifest.RecordSave(StoreLevel::kPersist, "k", i, 0, 10);
        }
    });
    std::thread reader([&manifest] {
        for (int i = 0; i < 500; ++i) {
            const auto v = manifest.Latest(StoreLevel::kPersist, "k");
            if (v) {
                EXPECT_GE(v->iteration, 1U);
                EXPECT_LE(v->iteration, 500U);
            }
        }
    });
    writer.join();
    reader.join();
    EXPECT_EQ(manifest.Latest(StoreLevel::kPersist, "k")->iteration, 500U);
}

// ---------- Serialization sweep ----------

class SerializeShapes
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(SerializeShapes, RoundTrip) {
    Rng rng(17);
    const auto t = Tensor::Randn(GetParam(), rng, 1.0F);
    const auto back = DeserializeTensor(SerializeTensor(t));
    EXPECT_EQ(back.shape(), t.shape());
    EXPECT_TRUE(back.AllClose(t, 0.0F));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SerializeShapes,
    ::testing::Values(std::vector<std::size_t>{1}, std::vector<std::size_t>{7},
                      std::vector<std::size_t>{3, 5},
                      std::vector<std::size_t>{1, 1, 1},
                      std::vector<std::size_t>{2, 3, 4},
                      std::vector<std::size_t>{64, 64}));

// ---------- Param-list round trip with optimizer moments ----------

TEST(ParamSerialization, OptimizerMomentsRoundTrip) {
    Rng rng(9);
    Parameter a("a", Tensor::Randn({4, 4}, rng, 1.0F));
    Parameter b("b", Tensor::Randn({8}, rng, 1.0F));
    a.adam_m() = Tensor::Randn({4, 4}, rng, 1.0F);
    a.adam_v() = Tensor::Randn({4, 4}, rng, 1.0F);
    b.adam_m() = Tensor::Randn({8}, rng, 1.0F);
    b.adam_v() = Tensor::Randn({8}, rng, 1.0F);
    const Blob blob = SerializeParamList({&a, &b}, /*weights=*/false);

    Parameter a2("a", Tensor({4, 4}));
    Parameter b2("b", Tensor({8}));
    DeserializeParamList(blob, {&a2, &b2}, /*weights=*/false);
    EXPECT_TRUE(a2.adam_m().AllClose(a.adam_m(), 0.0F));
    EXPECT_TRUE(a2.adam_v().AllClose(a.adam_v(), 0.0F));
    EXPECT_TRUE(b2.adam_m().AllClose(b.adam_m(), 0.0F));
}

TEST(ParamSerialization, RestoresIntoTheTensorsTheParametersOwn) {
    Rng rng(17);
    Parameter a("a", Tensor::Randn({4, 4}, rng, 1.0F));
    a.adam_m() = Tensor::Randn({4, 4}, rng, 1.0F);
    a.adam_v() = Tensor::Randn({4, 4}, rng, 1.0F);
    const Blob weights = SerializeParamList({&a}, /*weights=*/true);
    const Blob moments = SerializeParamList({&a}, /*weights=*/false);

    Parameter b("a", Tensor({4, 4}));
    b.adam_m() = Tensor({4, 4});
    b.adam_v() = Tensor({4, 4});
    const float* value = b.value().data();
    const float* m = b.adam_m().data();
    const float* v = b.adam_v().data();
    DeserializeParamList(weights, {&b}, /*weights=*/true);
    DeserializeParamList(moments, {&b}, /*weights=*/false);
    EXPECT_EQ(b.value().data(), value);
    EXPECT_EQ(b.adam_m().data(), m);
    EXPECT_EQ(b.adam_v().data(), v);
    EXPECT_TRUE(b.value().AllClose(a.value(), 0.0F));
    EXPECT_TRUE(b.adam_m().AllClose(a.adam_m(), 0.0F));
    EXPECT_TRUE(b.adam_v().AllClose(a.adam_v(), 0.0F));
}

TEST(ParamSerialization, MomentPairIsCheckedBeforeEitherIsCopied) {
    // A damaged v record must leave m untouched too, as when both were
    // parsed into new tensors before either was assigned.
    Rng rng(18);
    Parameter a("a", Tensor::Randn({4}, rng, 1.0F));
    a.adam_m() = Tensor::Randn({4}, rng, 1.0F);
    a.adam_v() = Tensor::Randn({4}, rng, 1.0F);
    Blob blob = SerializeParamList({&a}, /*weights=*/false);
    blob[blob.size() - 6] ^= 0x01;  // a data byte of the v record
    Parameter b("a", Tensor({4}));
    b.adam_m() = Tensor({4});
    b.adam_v() = Tensor({4});
    EXPECT_THROW(DeserializeParamList(blob, {&b}, /*weights=*/false),
                 std::runtime_error);
    EXPECT_TRUE(b.adam_m().AllClose(Tensor({4}), 0.0F));
    EXPECT_TRUE(b.adam_v().AllClose(Tensor({4}), 0.0F));
}

TEST(ParamSerialization, ArityMismatchRejected) {
    Rng rng(10);
    Parameter a("a", Tensor::Randn({4}, rng, 1.0F));
    const Blob blob = SerializeParamList({&a}, true);
    Parameter b("b", Tensor({4}));
    Parameter c("c", Tensor({4}));
    EXPECT_THROW(DeserializeParamList(blob, {&b, &c}, true),
                 std::invalid_argument);
}

TEST(ParamSerialization, ShapeMismatchRejected) {
    Rng rng(11);
    Parameter a("a", Tensor::Randn({4}, rng, 1.0F));
    const Blob blob = SerializeParamList({&a}, true);
    Parameter wrong("w", Tensor({5}));
    EXPECT_THROW(DeserializeParamList(blob, {&wrong}, true),
                 std::invalid_argument);
}

/** Appends @p value's bytes to @p out. */
template <typename T>
void
PutPod(Blob& out, T value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(T));
}

TEST(Serialize, ParamListBytesUnchanged) {
    // The layout SerializeParamList has always written: a u32 tensor count,
    // then per tensor a u64 size and SerializeTensor's bytes. An empty
    // tensor covers the record with no data bytes.
    Rng rng(14);
    Parameter a("a", Tensor::Randn({3, 5}, rng, 1.0F));
    Parameter b("b", Tensor::Randn({7}, rng, 1.0F));
    Parameter c("c", Tensor());
    for (Parameter* p : {&a, &b}) {
        p->adam_m() = Tensor::Randn(p->value().shape(), rng, 1.0F);
        p->adam_v() = Tensor::Randn(p->value().shape(), rng, 1.0F);
    }
    const std::vector<Parameter*> params = {&a, &b, &c};
    for (const bool weights : {true, false}) {
        Blob expected;
        PutPod(expected, static_cast<std::uint32_t>(weights ? 3 : 6));
        for (const Parameter* p : params) {
            for (const Tensor* t :
                 weights ? std::vector<const Tensor*>{&p->value()}
                         : std::vector<const Tensor*>{&p->adam_m(),
                                                      &p->adam_v()}) {
                const auto bytes = SerializeTensor(*t);
                PutPod(expected, static_cast<std::uint64_t>(bytes.size()));
                expected.insert(expected.end(), bytes.begin(), bytes.end());
            }
        }
        EXPECT_EQ(SerializeParamList(params, weights), expected)
            << (weights ? "weights" : "moments");
    }
}

TEST(Serialize, ParamListRejectsWrappingRecordSize) {
    // A record size near 2^64 makes offset + size wrap below the blob size;
    // the record that follows is a valid tensor with a valid CRC.
    Rng rng(15);
    const auto tensor = SerializeTensor(Tensor::Randn({4}, rng, 1.0F));
    Blob blob;
    PutPod(blob, std::uint32_t{1});
    PutPod(blob, ~std::uint64_t{0} - 7);
    blob.insert(blob.end(), tensor.begin(), tensor.end());
    Parameter p("p", Tensor({4}));
    EXPECT_THROW(DeserializeParamList(blob, {&p}, true), std::runtime_error);
}

// ---------- ExtraState edge cases ----------

TEST(ExtraStateSerialization, RoundTripWithCachedGaussian) {
    Rng rng(12);
    rng.Gaussian();  // arm the cached second sample
    ExtraState extra{123, 456, rng.GetState()};
    const ExtraState back = DeserializeExtraState(SerializeExtraState(extra));
    EXPECT_EQ(back.iteration, 123U);
    EXPECT_EQ(back.adam_step, 456U);
    Rng a(0);
    Rng b(0);
    a.SetState(extra.gating_rng);
    b.SetState(back.gating_rng);
    EXPECT_DOUBLE_EQ(a.Gaussian(), b.Gaussian());
    EXPECT_EQ(a.Next(), b.Next());
}

TEST(ExtraStateSerialization, TruncatedBlobRejected) {
    ExtraState extra{};
    Blob blob = SerializeExtraState(extra);
    blob.resize(blob.size() - 4);
    EXPECT_THROW(DeserializeExtraState(blob), std::invalid_argument);
}

// ---------- Multiple node failures ----------

TEST(MultiNodeFailure, AllNodesDownFallsBackToStorage) {
    MoeTransformerLm model(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 4;
    cfg.pec.k_persist = 1;
    cfg.i_ckpt = 4;
    cfg.two_level_recovery = true;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);
    extra.iteration = 4;
    system.Checkpoint(4, extra);
    // Both nodes die: two-level recovery degrades to pure storage recovery.
    const auto report = system.RecoverFromFault({0, 1});
    EXPECT_EQ(report.plan.bytes_from_memory, 0U);
    EXPECT_GT(report.plan.bytes_from_storage, 0U);
    EXPECT_EQ(report.plan.restart_iteration, 4U);
}

}  // namespace
}  // namespace moc
