/**
 * @file
 * Unit tests for the ckpt module: the triple-buffer state machine and the
 * threaded asynchronous checkpoint agent vs the blocking baseline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ckpt/async_agent.h"
#include "ckpt/blocking.h"
#include "ckpt/triple_buffer.h"

namespace moc {
namespace {

Blob
MakeBlob(std::size_t size, std::uint8_t fill = 0xAA) {
    return Blob(size, fill);
}

// ---------- TripleBuffer ----------

TEST(TripleBuffer, InitiallyAllFree) {
    TripleBuffer tb;
    for (std::size_t i = 0; i < TripleBuffer::kNumBuffers; ++i) {
        EXPECT_EQ(tb.state(i), BufferState::kFree);
    }
    EXPECT_FALSE(tb.RecoveryBuffer().has_value());
}

TEST(TripleBuffer, SnapshotPersistRecoveryCycle) {
    TripleBuffer tb;
    const std::size_t idx = tb.AcquireForSnapshot();
    EXPECT_EQ(tb.state(idx), BufferState::kFilling);
    tb.Payload(idx).iteration = 10;
    tb.CompleteSnapshot(idx);
    EXPECT_EQ(tb.state(idx), BufferState::kFilled);

    const auto pidx = tb.AcquireForPersist();
    ASSERT_TRUE(pidx.has_value());
    EXPECT_EQ(*pidx, idx);
    EXPECT_EQ(tb.state(idx), BufferState::kPersisting);
    tb.CompletePersist(idx);
    EXPECT_EQ(tb.state(idx), BufferState::kRecovery);
    EXPECT_EQ(tb.RecoveryBuffer().value(), idx);
}

TEST(TripleBuffer, NewRecoveryReleasesOld) {
    TripleBuffer tb;
    // First checkpoint.
    auto a = tb.AcquireForSnapshot();
    tb.Payload(a).iteration = 1;
    tb.CompleteSnapshot(a);
    tb.CompletePersist(tb.AcquireForPersist().value());
    // Second checkpoint.
    auto b = tb.AcquireForSnapshot();
    tb.Payload(b).iteration = 2;
    tb.CompleteSnapshot(b);
    tb.CompletePersist(tb.AcquireForPersist().value());
    EXPECT_EQ(tb.RecoveryBuffer().value(), b);
    EXPECT_EQ(tb.state(a), BufferState::kFree);
}

TEST(TripleBuffer, OnlyOnePersistInFlight) {
    TripleBuffer tb;
    auto a = tb.AcquireForSnapshot();
    tb.Payload(a).iteration = 1;
    tb.CompleteSnapshot(a);
    auto b = tb.AcquireForSnapshot();
    tb.Payload(b).iteration = 2;
    tb.CompleteSnapshot(b);

    auto first = tb.AcquireForPersist();
    ASSERT_TRUE(first.has_value());
    // While `first` persists, no second persist may start: probe from a
    // thread and verify it blocks until CompletePersist.
    std::atomic<bool> acquired{false};
    std::thread prober([&] {
        auto second = tb.AcquireForPersist();
        acquired = second.has_value();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(acquired.load());
    tb.CompletePersist(*first);
    prober.join();
    EXPECT_TRUE(acquired.load());
}

TEST(TripleBuffer, PersistsOldestFirst) {
    TripleBuffer tb;
    auto a = tb.AcquireForSnapshot();
    tb.Payload(a).iteration = 5;
    auto b = tb.AcquireForSnapshot();
    tb.Payload(b).iteration = 3;
    tb.CompleteSnapshot(a);
    tb.CompleteSnapshot(b);
    const auto first = tb.AcquireForPersist();
    EXPECT_EQ(tb.Payload(first.value()).iteration, 3U);
}

TEST(TripleBuffer, TryAcquireExhausts) {
    TripleBuffer tb;
    EXPECT_TRUE(tb.TryAcquireForSnapshot().has_value());
    EXPECT_TRUE(tb.TryAcquireForSnapshot().has_value());
    EXPECT_TRUE(tb.TryAcquireForSnapshot().has_value());
    EXPECT_FALSE(tb.TryAcquireForSnapshot().has_value());
}

TEST(TripleBuffer, ShutdownUnblocksPersistWaiter) {
    TripleBuffer tb;
    std::optional<std::size_t> result{99};
    std::thread waiter([&] { result = tb.AcquireForPersist(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    tb.Shutdown();
    waiter.join();
    EXPECT_FALSE(result.has_value());
}

// ---------- AsyncCheckpointAgent ----------

AgentCostModel
FastAgent() {
    AgentCostModel cost;
    cost.snapshot_bandwidth = 1e6;  // 1 MB/s
    cost.persist_bandwidth = 1e6;
    cost.time_scale = 1.0;
    return cost;
}

TEST(AsyncAgent, PersistsRequestedCheckpoints) {
    PersistentStore store;
    {
        AsyncCheckpointAgent agent(store, "node0", FastAgent());
        agent.RequestCheckpoint(MakeBlob(1000), 10);
        agent.Drain();
        EXPECT_EQ(agent.LatestPersistedIteration().value(), 10U);
        const auto stats = agent.stats();
        EXPECT_EQ(stats.checkpoints_requested, 1U);
        EXPECT_EQ(stats.checkpoints_persisted, 1U);
        EXPECT_EQ(stats.bytes_persisted, 1000U);
    }
    EXPECT_TRUE(store.Contains("node0/ckpt"));
}

TEST(AsyncAgent, LatestCheckpointWins) {
    PersistentStore store;
    AsyncCheckpointAgent agent(store, "n", FastAgent());
    agent.RequestCheckpoint(MakeBlob(100, 1), 1);
    agent.RequestCheckpoint(MakeBlob(100, 2), 2);
    agent.Drain();
    EXPECT_EQ(agent.LatestPersistedIteration().value(), 2U);
    EXPECT_EQ(store.Get("n/ckpt")->front(), 2);
}

TEST(AsyncAgent, RequestReturnsBeforePersistCompletes) {
    // Make persist slow: the request must return promptly while the
    // persist phase is still running.
    StorageIoModel io;
    io.write_bandwidth = 10e3;  // 100 KB takes 10 s to persist
    io.latency = 0.0;
    PersistentStore store(io);
    AgentCostModel cost;
    cost.snapshot_bandwidth = 100e6;
    cost.persist_bandwidth = 10e3;
    cost.time_scale = 0.01;  // shrink to ~100 ms of real time
    AsyncCheckpointAgent agent(store, "n", cost);

    WallClock clock;
    const Seconds start = clock.Now();
    agent.RequestCheckpoint(MakeBlob(100000), 1);
    const Seconds stall = agent.WaitSnapshotComplete();
    const Seconds elapsed = clock.Now() - start;
    EXPECT_LT(elapsed, 0.08);  // snapshot is fast; persist (~0.1 s) is hidden
    EXPECT_GE(stall, 0.0);
    agent.Drain();
    EXPECT_EQ(agent.stats().checkpoints_persisted, 1U);
}

TEST(AsyncAgent, StallAccountingWhenSnapshotSlow) {
    PersistentStore store;
    AgentCostModel cost;
    cost.snapshot_bandwidth = 1e6;
    cost.persist_bandwidth = 100e6;
    cost.time_scale = 0.5;  // 100 KB snapshot ~ 50 ms
    AsyncCheckpointAgent agent(store, "n", cost);
    agent.RequestCheckpoint(MakeBlob(100000), 1);
    const Seconds stall = agent.WaitSnapshotComplete();
    EXPECT_GT(stall, 0.01);
    EXPECT_GE(agent.stats().snapshot_stalls, 1U);
    EXPECT_GT(agent.stats().total_stall_time, 0.0);
}

TEST(AsyncAgent, ManyCheckpointsAllPersist) {
    PersistentStore store;
    AsyncCheckpointAgent agent(store, "n", FastAgent());
    for (std::size_t i = 1; i <= 10; ++i) {
        agent.RequestCheckpoint(MakeBlob(500), i);
    }
    agent.Drain();
    EXPECT_EQ(agent.stats().checkpoints_persisted, 10U);
    EXPECT_EQ(agent.LatestPersistedIteration().value(), 10U);
}

// ---------- BlockingCheckpointer ----------

TEST(Blocking, ChargesBothPhases) {
    StorageIoModel io;
    io.latency = 0.0;
    PersistentStore store(io);
    // 100 KB at 1 MB/s snapshot + 1 MB/s persist = 0.2 s, scaled by 0.25.
    BlockingCheckpointer ckpt(store, "n", 1e6, 1e6, 0.25);
    const Seconds blocked = ckpt.Checkpoint(MakeBlob(100000), 7);
    EXPECT_GE(blocked, 0.04);
    EXPECT_EQ(ckpt.LatestPersistedIteration().value(), 7U);
    EXPECT_TRUE(store.Contains("n/ckpt"));
}

TEST(Blocking, BlockingExceedsAsyncOverhead) {
    // The headline property of asynchronous checkpointing: for the same
    // payload, bandwidths and F&B work, the training-visible time is
    // smaller. Both sides run the same simulated F&B sleep and are timed on
    // the same wall clock; only the async side overlaps it with the
    // snapshot, so the margin is the whole persist phase plus the overlap.
    const auto forward_backward = std::chrono::milliseconds(15);
    StorageIoModel io;
    io.latency = 0.0;
    PersistentStore store(io);
    const double scale = 0.05;
    WallClock clock;

    BlockingCheckpointer blocking(store, "b", 1e6, 1e6, scale);
    Seconds start = clock.Now();
    blocking.Checkpoint(MakeBlob(200000), 1);
    std::this_thread::sleep_for(forward_backward);
    const Seconds blocked = clock.Now() - start;

    AgentCostModel cost;
    cost.snapshot_bandwidth = 1e6;
    cost.persist_bandwidth = 1e6;
    cost.time_scale = scale;
    AsyncCheckpointAgent agent(store, "a", cost);
    start = clock.Now();
    agent.RequestCheckpoint(MakeBlob(200000), 1);
    std::this_thread::sleep_for(forward_backward);
    agent.WaitSnapshotComplete();
    const Seconds visible = clock.Now() - start;
    agent.Drain();
    EXPECT_LT(visible, blocked);
}

}  // namespace
}  // namespace moc
