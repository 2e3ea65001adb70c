/**
 * @file
 * System-level property tests:
 *  - fault transparency: with full checkpointing, training with faults at
 *    arbitrary points produces bit-identical results to fault-free training;
 *  - PEC recovery exactness: after any fault, every expert's weights are
 *    bit-identical to a state that was actually checkpointed, at exactly the
 *    iteration the recovery plan reports;
 *  - CSV writer round-trip properties.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/moc_system.h"
#include "data/corpus.h"
#include "faults/trainer.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "temp_path.h"
#include "util/csv.h"

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

struct LmFixtures {
    CorpusConfig corpus_cfg;
    ZipfMarkovCorpus corpus;
    LmBatchStream train;
    LmBatchStream valid;

    LmFixtures()
        : corpus_cfg([] {
              CorpusConfig c;
              c.vocab_size = 32;
              c.seed = 3;
              return c;
          }()),
          corpus(corpus_cfg),
          train(corpus, 4, 12, 0),
          valid(corpus, 4, 12, 1) {}
};

// ---------- Fault transparency ----------

class FaultTransparency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultTransparency, FullCheckpointingMakesFaultsInvisible) {
    LmFixtures fx;
    LmTrainerConfig cfg;
    cfg.moc.pec.k_snapshot = 4;
    cfg.moc.pec.k_persist = 4;  // full state every checkpoint
    cfg.moc.i_ckpt = 6;
    cfg.parallel = {.dp = 4, .ep = 4, .tp = 1, .pp = 1};
    cfg.gpus_per_node = 2;
    cfg.total_iterations = 42;
    cfg.adam.lr = 3e-3;

    MoeTransformerLm reference(TinyLm());
    FaultInjector none(std::vector<FaultEvent>{});
    const auto ref_log =
        RunFaultTolerantLmTraining(reference, fx.train, fx.valid, cfg, none);

    // A random schedule of 1-3 faults at random iterations/nodes.
    Rng rng(GetParam());
    std::vector<FaultEvent> events;
    const std::size_t n_faults = 1 + rng.UniformInt(3);
    for (std::size_t i = 0; i < n_faults; ++i) {
        events.push_back(FaultEvent{6 + rng.UniformInt(34),
                                    {static_cast<NodeId>(rng.UniformInt(2))}});
    }
    FaultInjector injector(std::move(events));
    MoeTransformerLm faulty(TinyLm());
    const auto log =
        RunFaultTolerantLmTraining(faulty, fx.train, fx.valid, cfg, injector);

    EXPECT_DOUBLE_EQ(log.plt, 0.0);
    EXPECT_DOUBLE_EQ(log.final_eval_loss, ref_log.final_eval_loss);
    // Final weights bit-identical.
    const auto ref_params = reference.AllParameters();
    const auto params = faulty.AllParameters();
    ASSERT_EQ(ref_params.size(), params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(params[i]->value().AllClose(ref_params[i]->value(), 0.0F))
            << params[i]->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Schedules, FaultTransparency,
                         ::testing::Values(11, 22, 33, 44));

// ---------- PEC recovery exactness ----------

class PecExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PecExactness, RecoveredExpertsMatchACheckpointedState) {
    LmFixtures fx;
    MoeTransformerLm model(TinyLm());
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig cfg;
    cfg.pec.k_snapshot = 2;
    cfg.pec.k_persist = 1;
    cfg.i_ckpt = 4;
    cfg.two_level_recovery = (GetParam() % 2) == 0;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(cfg, model, topo, TinyLm().ToModelSpec(), extra);

    Adam adam(AdamConfig{.lr = 3e-3});
    const auto params = model.AllParameters();

    // Test-side history: (expert group key, iteration) -> first-param copy.
    std::map<std::pair<std::string, std::size_t>, Tensor> history;
    auto snapshot_history = [&](std::size_t iteration) {
        for (auto& g : model.ParameterGroups()) {
            if (g.kind == ModuleKind::kExpert) {
                history[{g.key, iteration}] = g.params.front()->value();
            }
        }
    };
    snapshot_history(0);

    Rng rng(GetParam());
    std::size_t iter = 0;
    while (iter < 24) {
        model.TrainBackward(fx.train.Get(iter));
        system.RecordRouting(model.MoeLayers());
        adam.Step(params);
        ++iter;
        if (system.ShouldCheckpoint(iter)) {
            system.Checkpoint(iter, {iter, adam.step_count(),
                                     model.gating_rng().GetState()});
            snapshot_history(iter);
        }
    }

    const NodeId victim = static_cast<NodeId>(rng.UniformInt(2));
    const auto report = system.RecoverFromFault({victim});
    // Every expert must now hold EXACTLY the state recorded at its reported
    // recovery iteration.
    std::size_t checked = 0;
    for (auto& g : model.ParameterGroups()) {
        if (g.kind != ModuleKind::kExpert) {
            continue;
        }
        const std::size_t recovered_iter =
            report.plan.expert_recovered_iteration[g.moe_index][g.expert];
        const auto it = history.find({g.key, recovered_iter});
        ASSERT_NE(it, history.end())
            << g.key << " recovered at unrecorded iteration " << recovered_iter;
        EXPECT_TRUE(g.params.front()->value().AllClose(it->second, 0.0F))
            << g.key << " @ " << recovered_iter;
        ++checked;
    }
    EXPECT_EQ(checked, 4U);  // 1 MoE layer (layer 1 of 2) x 4 experts
}

INSTANTIATE_TEST_SUITE_P(Seeds, PecExactness, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- CsvWriter ----------

TEST(Csv, BasicRender) {
    CsvWriter csv({"a", "b"});
    csv.AddRow({"1", "2"});
    csv.AddRow({"x,y", "he said \"hi\""});
    const std::string out = csv.ToString();
    EXPECT_NE(out.find("a,b\n"), std::string::npos);
    EXPECT_NE(out.find("\"x,y\""), std::string::npos);
    EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, ArityEnforced) {
    CsvWriter csv({"a", "b"});
    EXPECT_THROW(csv.AddRow({"only"}), std::invalid_argument);
}

TEST(Csv, WritesFile) {
    CsvWriter csv({"k", "v"});
    csv.AddRow({"x", "1"});
    const auto dir = UniqueTempPath("moc_csv_test");
    const std::string path = (dir / "sub" / "out.csv").string();
    ASSERT_TRUE(csv.WriteFile(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "k,v");
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace moc
