/**
 * @file
 * Tests for the moc_cli tool's argument parsing and subcommands.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli_lib.h"
#include "core/cold_start.h"
#include "core/moc_system.h"
#include "nn/model.h"
#include "storage/file_store.h"
#include "temp_path.h"

namespace moc {
namespace {

using cli::Args;
using cli::Main;
using cli::ParseArgs;

TEST(CliArgs, ParsesOptionsAndPositionals) {
    const Args args = ParseArgs({"pos1", "--dp", "16", "pos2", "--ep", "8"});
    EXPECT_EQ(args.positional, (std::vector<std::string>{"pos1", "pos2"}));
    EXPECT_EQ(args.Get("dp", ""), "16");
    EXPECT_EQ(args.GetInt("ep", 0), 8);
    EXPECT_EQ(args.GetInt("missing", 42), 42);
}

TEST(CliArgs, RejectsDanglingFlagAndJunkInts) {
    EXPECT_THROW(ParseArgs({"--dp"}), std::invalid_argument);
    const Args args = ParseArgs({"--dp", "abc"});
    EXPECT_THROW(args.GetInt("dp", 0), std::invalid_argument);
}

TEST(Cli, UsageOnNoCommand) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({}, out, err), 2);
    EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"frobnicate"}, out, err), 2);
}

TEST(Cli, PlanPrintsPerRankSummary) {
    std::ostringstream out;
    std::ostringstream err;
    const int rc = Main({"plan", "--dp", "16", "--ep", "8", "--k", "1",
                         "--strategy", "full"},
                        out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("bottleneck"), std::string::npos);
    EXPECT_NE(out.str().find("2 EP groups"), std::string::npos);
}

TEST(Cli, PlanValidatesDegrees) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"plan", "--dp", "10", "--ep", "4"}, out, err), 2);
}

TEST(Cli, SimulatePrintsGantts) {
    std::ostringstream out;
    std::ostringstream err;
    const int rc = Main({"simulate", "--gpus", "16", "--gpu", "a800"}, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("Baseline"), std::string::npos);
    EXPECT_NE(out.str().find("MoC-Async"), std::string::npos);
    EXPECT_NE(out.str().find("Snapshot"), std::string::npos);
}

TEST(Cli, TraceCheckValidatesGoodAndBad) {
    namespace fs = std::filesystem;
    const fs::path dir = UniqueTempPath("moc_cli_trace");
    fs::create_directories(dir);
    const fs::path good = dir / "good.txt";
    const fs::path bad = dir / "bad.txt";
    {
        std::ofstream(good) << "# ok\n10 0\n20 1,2\n";
        std::ofstream(bad) << "oops\n";
    }
    std::ostringstream out1;
    std::ostringstream err;
    EXPECT_EQ(Main({"trace-check", good.string()}, out1, err), 0);
    EXPECT_NE(out1.str().find("2 fault event(s)"), std::string::npos);
    std::ostringstream out2;
    EXPECT_EQ(Main({"trace-check", bad.string()}, out2, err), 1);
    EXPECT_NE(out2.str().find("invalid trace"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Cli, InspectReadsRealCheckpoint) {
    // Build a real checkpoint on disk, then inspect it.
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    MoeTransformerLm model(cfg);
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig sys_cfg;
    sys_cfg.pec.k_snapshot = 4;
    sys_cfg.pec.k_persist = 4;
    sys_cfg.i_ckpt = 4;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(sys_cfg, model, topo, cfg.ToModelSpec(), extra);
    extra.iteration = 12;
    extra.adam_step = 12;
    system.Checkpoint(12, extra);

    namespace fs = std::filesystem;
    const fs::path dir = UniqueTempPath("moc_cli_inspect");
    fs::remove_all(dir);
    {
        FileStore disk(dir);
        CopyStore(system.storage(), disk);
    }
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"inspect", dir.string()}, out, err), 0) << err.str();
    EXPECT_NE(out.str().find("restart point: iteration 12"), std::string::npos);
    EXPECT_NE(out.str().find("moe/0/expert/0/w"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Cli, InspectWithoutArgIsUsageError) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"inspect"}, out, err), 2);
}

/** Builds a real two-generation checkpoint directory for fsck tests. */
std::filesystem::path
MakeCheckpointDir(const std::string& name) {
    LmConfig cfg;
    cfg.vocab = 32;
    cfg.max_seq = 12;
    cfg.hidden = 16;
    cfg.num_heads = 2;
    cfg.head_dim = 8;
    cfg.num_layers = 2;
    cfg.ffn_mult = 2;
    cfg.num_experts = 4;
    MoeTransformerLm model(cfg);
    RankTopology topo({.dp = 4, .ep = 4, .tp = 1, .pp = 1}, 2);
    MocSystemConfig sys_cfg;
    sys_cfg.pec.k_snapshot = 4;
    sys_cfg.pec.k_persist = 4;
    sys_cfg.i_ckpt = 4;
    ExtraState extra{0, 0, model.gating_rng().GetState()};
    MocCheckpointSystem system(sys_cfg, model, topo, cfg.ToModelSpec(), extra);
    for (const std::size_t iter : {8, 12}) {
        extra.iteration = iter;
        extra.adam_step = iter;
        system.Checkpoint(iter, extra);
    }
    const auto dir = UniqueTempPath(name);
    std::filesystem::remove_all(dir);
    FileStore disk(dir);
    CopyStore(system.storage(), disk);
    return dir;
}

/** Flips one payload byte of @p file in place. */
void
CorruptFile(const std::filesystem::path& file) {
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(16);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
}

TEST(Cli, FsckWithoutArgIsUsageError) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck"}, out, err), 2);
}

TEST(Cli, FsckCleanStoreExitsZero) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_clean");
    const auto json = dir / "fsck.json";
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string(), "--json", json.string()}, out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("clean:"), std::string::npos) << out.str();
    std::ifstream in(json);
    std::stringstream doc;
    doc << in.rdbuf();
    EXPECT_NE(doc.str().find("\"moc-fsck/1\""), std::string::npos);
    EXPECT_NE(doc.str().find("\"exit_code\": 0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, FsckDamagedTwinIsRepairable) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_repairable");
    CorruptFile(dir / "gen" / "8" / "moe" / "0" / "expert" / "0" / "w.blob");
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string()}, out, err), 1) << out.str();
    EXPECT_NE(out.str().find("damaged file"), std::string::npos) << out.str();
    std::filesystem::remove_all(dir);
}

TEST(Cli, FsckNonexistentDirExitsTwoWithoutCreatingIt) {
    const auto dir = UniqueTempPath("moc_cli_fsck_no_such_dir");
    std::filesystem::remove_all(dir);
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string()}, out, err), 2) << out.str();
    EXPECT_NE(out.str().find("not a directory"), std::string::npos)
        << out.str();
    // The scrub must not have conjured the directory into existence.
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Cli, ReportMissingMetricsFileExitsTwo) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"report", "--metrics", "/no/such/metrics.json"}, out, err),
              2)
        << out.str();
}

TEST(Cli, ReportUnparsableMetricsExitsTwo) {
    const auto path = UniqueTempPath("moc_cli_bad_metrics.json");
    std::ofstream(path) << "this is not json {";
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"report", "--metrics", path.string()}, out, err), 2)
        << out.str();
    std::filesystem::remove(path);
}

TEST(Cli, TraceMissingFileExitsTwo) {
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"trace", "--trace", "/no/such/trace.json"}, out, err), 2)
        << out.str();
}

TEST(Cli, FsckAllExtraStateCopiesGoneIsFatal) {
    const auto dir = MakeCheckpointDir("moc_cli_fsck_fatal");
    CorruptFile(dir / "extra" / "state.blob");
    CorruptFile(dir / "gen" / "8" / "extra" / "state.blob");
    CorruptFile(dir / "gen" / "12" / "extra" / "state.blob");
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(Main({"fsck", dir.string()}, out, err), 2) << out.str();
    EXPECT_NE(out.str().find("FATAL"), std::string::npos) << out.str();
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace moc
