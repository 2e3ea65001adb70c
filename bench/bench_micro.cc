/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot paths of the MoC system:
 * sequential selection, shard planning, tensor and param-list
 * (de)serialization, CRC-32 and CRC-32C, the manifest, MoE
 * forward/backward, and the checkpoint save path.
 */

#include <benchmark/benchmark.h>

#include "core/moc_system.h"
#include "core/selection.h"
#include "core/sharding.h"
#include "dist/presets.h"
#include "nn/model.h"
#include "storage/manifest.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/crc32.h"

namespace moc {
namespace {

void
BM_SequentialSelect(benchmark::State& state) {
    SequentialSelector sel(64);
    std::size_t c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sel.Select(c++, 5, static_cast<std::size_t>(state.range(0))));
    }
}
BENCHMARK(BM_SequentialSelect)->Arg(1)->Arg(8)->Arg(32);

void
BM_ShardPlanFull(benchmark::State& state) {
    const ModelSpec spec = Gpt350M16E();
    const ModelStateInventory inv(spec, StateBytes{});
    const RankTopology topo(Case3().parallel, Case3().GpusPerNode());
    ShardingPlanner planner(inv, topo, ShardingOptions{true, true, true});
    for (auto _ : state) {
        benchmark::DoNotOptimize(planner.PlanFull().BottleneckBytes());
    }
}
BENCHMARK(BM_ShardPlanFull);

void
BM_TensorSerialize(benchmark::State& state) {
    Rng rng(1);
    const auto t = Tensor::Randn({static_cast<std::size_t>(state.range(0)), 64},
                                 rng, 1.0F);
    for (auto _ : state) {
        benchmark::DoNotOptimize(SerializeTensor(t));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(t.size() * sizeof(float)));
}
BENCHMARK(BM_TensorSerialize)->Arg(64)->Arg(1024);

void
BM_TensorRoundTrip(benchmark::State& state) {
    Rng rng(1);
    const auto t = Tensor::Randn({256, 64}, rng, 1.0F);
    const auto blob = SerializeTensor(t);
    for (auto _ : state) {
        benchmark::DoNotOptimize(DeserializeTensor(blob));
    }
}
BENCHMARK(BM_TensorRoundTrip);

/** Shared body of the CRC benches: @p crc over a range(0)-byte buffer. */
template <typename Fn>
void
CrcBench(benchmark::State& state, Fn crc) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5A);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crc(data.data(), data.size()));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}

void
BM_Crc32(benchmark::State& state) {
    CrcBench(state, Crc32);
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20)->Arg(16 << 20);

void
BM_Crc32c(benchmark::State& state) {
    CrcBench(state, Crc32c);
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(1 << 20)->Arg(16 << 20);

/** The tiny MoE language model the model-level benches share. */
LmConfig
TinyMoeConfig(std::size_t experts) {
    LmConfig cfg;
    cfg.vocab = 64;
    cfg.max_seq = 16;
    cfg.hidden = 32;
    cfg.num_heads = 2;
    cfg.head_dim = 16;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = experts;
    return cfg;
}

/** SerializeParamList over every group of the tiny MoE, weights and moments:
    the facade's serialize stage for one full checkpoint. */
void
BM_SerializeParamList(benchmark::State& state) {
    MoeTransformerLm model(TinyMoeConfig(8));
    const auto groups = model.ParameterGroups();
    std::int64_t bytes = 0;
    for (auto _ : state) {
        for (const auto& group : groups) {
            for (const bool weights : {true, false}) {
                const Blob blob = SerializeParamList(group.params, weights);
                bytes += static_cast<std::int64_t>(blob.size());
                benchmark::DoNotOptimize(blob.data());
                benchmark::ClobberMemory();
            }
        }
    }
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SerializeParamList);

/** DeserializeParamList of the same blobs back into the model. */
void
BM_DeserializeParamList(benchmark::State& state) {
    MoeTransformerLm model(TinyMoeConfig(8));
    const auto groups = model.ParameterGroups();
    std::vector<Blob> blobs;
    for (const auto& group : groups) {
        for (const bool weights : {true, false}) {
            blobs.push_back(SerializeParamList(group.params, weights));
        }
    }
    std::int64_t bytes = 0;
    for (auto _ : state) {
        std::size_t i = 0;
        for (const auto& group : groups) {
            for (const bool weights : {true, false}) {
                DeserializeParamList(blobs[i], group.params, weights);
                bytes += static_cast<std::int64_t>(blobs[i++].size());
            }
        }
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_DeserializeParamList);

void
BM_MatMul(benchmark::State& state) {
    Rng rng(2);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = Tensor::Randn({n, n}, rng, 1.0F);
    const auto b = Tensor::Randn({n, n}, rng, 1.0F);
    for (auto _ : state) {
        benchmark::DoNotOptimize(MatMul(a, b));
    }
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128);

void
BM_MoeForwardBackward(benchmark::State& state) {
    MoeTransformerLm model(
        TinyMoeConfig(static_cast<std::size_t>(state.range(0))));
    LmBatch batch;
    batch.batch = 4;
    batch.seq = 16;
    Rng rng(3);
    for (std::size_t i = 0; i < batch.batch * batch.seq; ++i) {
        batch.inputs.push_back(static_cast<TokenId>(rng.UniformInt(64)));
        batch.targets.push_back(static_cast<TokenId>(rng.UniformInt(64)));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.TrainBackward(batch));
    }
}
BENCHMARK(BM_MoeForwardBackward)->Arg(4)->Arg(16);

void
BM_ManifestLookup(benchmark::State& state) {
    CheckpointManifest manifest;
    for (int i = 0; i < 1000; ++i) {
        manifest.RecordSave(StoreLevel::kPersist, "key/" + std::to_string(i), 10, 0,
                            100);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(manifest.Latest(StoreLevel::kPersist, "key/500"));
    }
}
BENCHMARK(BM_ManifestLookup);

void
BM_CheckpointEvent(benchmark::State& state) {
    const LmConfig cfg = TinyMoeConfig(8);
    MoeTransformerLm model(cfg);
    RankTopology topo({.dp = 8, .ep = 8, .tp = 1, .pp = 1}, 4);
    MocSystemConfig sys_cfg;
    sys_cfg.pec.k_snapshot = static_cast<std::size_t>(state.range(0));
    sys_cfg.pec.k_persist = 1;
    sys_cfg.i_ckpt = 1;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(sys_cfg, model, topo, cfg.ToModelSpec(), extra);
    std::size_t iteration = 0;
    for (auto _ : state) {
        ++iteration;
        extra.iteration = iteration;
        benchmark::DoNotOptimize(system.Checkpoint(iteration, extra));
    }
}
BENCHMARK(BM_CheckpointEvent)->Arg(1)->Arg(8);

}  // namespace
}  // namespace moc
