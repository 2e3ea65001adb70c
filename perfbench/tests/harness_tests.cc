/**
 * @file
 * Tests of the benchmark's own helpers: the percentile reporting rule,
 * the per-episode medians, union-based self time, span parenting across
 * threads, and the RecordingStore decorator's pass-through.
 *
 *   cmake --build <build-dir> --target perfbench_tests
 *   <build-dir>/perfbench_tests
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/measure.h"
#include "harness/recording_store.h"
#include "harness/report.h"
#include "storage/faulty_store.h"
#include "storage/memory_store.h"
#include "storage/store_error.h"

namespace perfbench {
namespace {

TEST(PerfbenchPercentile, P90OnlyWithTenSamplesBeyondIt) {
    EXPECT_FALSE(PercentileSupported(99, 0.9));
    EXPECT_TRUE(PercentileSupported(100, 0.9));
    EXPECT_FALSE(PercentileSupported(999, 0.99));
    EXPECT_TRUE(PercentileSupported(1000, 0.99));

    std::vector<double> samples;
    for (int i = 99; i >= 1; --i) {
        samples.push_back(i);
    }
    Summary s = Summarize(samples);
    EXPECT_EQ(s.n, 99U);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_FALSE(s.p90.has_value());

    samples.push_back(100);
    s = Summarize(samples);
    EXPECT_DOUBLE_EQ(s.p50, 50.5);
    ASSERT_TRUE(s.p90.has_value());
    EXPECT_NEAR(*s.p90, 90.1, 1e-9);
}

TEST(PerfbenchPercentile, EmptyAndSingle) {
    EXPECT_EQ(Percentile({}, 0.5), 0.0);
    EXPECT_EQ(Percentile({7.0}, 0.9), 7.0);
}

TEST(PerfbenchEpisodeFigures, MedianOverEpisodesAndP90InTableOnly) {
    EpisodeFigures figures;
    // Two steady episodes and one slowed 10x by a burst: the medians over
    // episodes read the steady ones.
    for (const double slow : {1.0, 10.0, 1.0}) {
        std::vector<double> saves(40);
        for (std::size_t i = 0; i < saves.size(); ++i) {
            saves[i] = slow * static_cast<double>(i + 1);
        }
        figures.Add(/*setup_s=*/0.5 * slow, saves,
                    /*saved_logical_bytes=*/820e3 * slow, {2.0 * slow},
                    /*restored_logical_bytes=*/4e3, /*progress=*/10.0,
                    /*loop_s=*/2.0 * slow);
    }
    EXPECT_EQ(figures.save_ms().size(), 120U);
    EXPECT_EQ(figures.restores(), 3U);

    Report report;
    figures.AddTo(report);
    std::map<std::string, Metric> by_name;
    for (const auto& m : report.metrics()) {
        by_name[m.name] = m;
    }
    EXPECT_DOUBLE_EQ(by_name.at("setup_s").value, 0.5);
    EXPECT_DOUBLE_EQ(by_name.at("save_ms_p50").value, 20.5);
    EXPECT_EQ(by_name.at("save_ms_p50").samples, 120U);
    EXPECT_DOUBLE_EQ(by_name.at("restore_ms_p50").value, 2.0);
    // 820 kB over 820 ms of saves per steady episode; 4 kB over 2 ms.
    EXPECT_DOUBLE_EQ(by_name.at("save_mbps").value, 1.0);
    EXPECT_DOUBLE_EQ(by_name.at("restore_mbps").value, 2.0);
    EXPECT_DOUBLE_EQ(by_name.at("train_iters_per_s").value, 5.0);
    EXPECT_TRUE(by_name.at("save_ms_p50").in_result);
    EXPECT_FALSE(by_name.at("save_ms_p90").in_result);
}

TEST(PerfbenchSelfTime, SubtractsUnionOfOverlappingChildren) {
    const std::vector<Span> spans = {
        {.name = "parent", .id = 1, .parent = 0, .start_ns = 0, .end_ns = 100},
        // Two overlapping children cover [10, 60): 50, not 30 + 30.
        {.name = "child", .id = 2, .parent = 1, .start_ns = 10, .end_ns = 40},
        {.name = "child", .id = 3, .parent = 1, .start_ns = 30, .end_ns = 60},
        {.name = "child", .id = 4, .parent = 1, .start_ns = 70, .end_ns = 80},
        // Clipped to the parent: only [90, 100) counts.
        {.name = "child", .id = 5, .parent = 1, .start_ns = 90, .end_ns = 120},
        // A grandchild does not reduce the parent's self time twice.
        {.name = "leaf", .id = 6, .parent = 2, .start_ns = 15, .end_ns = 20},
    };
    const auto self = SelfTimesNs(spans);
    EXPECT_EQ(self.at(1), 100 - (50 + 10 + 10));
    EXPECT_EQ(self.at(2), 30 - 5);
    EXPECT_EQ(self.at(3), 30);
    EXPECT_EQ(self.at(6), 5);
}

TEST(PerfbenchSelfTime, WorkerThreadSpansNestUnderTheMainThreadsOpenSpan) {
    SpanRecorder recorder(true);
    {
        const ScopedSpan outer(&recorder, "outer");
        std::vector<std::thread> workers;
        for (int t = 0; t < 3; ++t) {
            workers.emplace_back([&recorder] {
                const ScopedSpan child(&recorder, "child");
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
            });
        }
        for (auto& w : workers) {
            w.join();
        }
    }
    const auto spans = recorder.Spans();
    ASSERT_EQ(spans.size(), 4U);
    const Span* outer = nullptr;
    for (const auto& s : spans) {
        if (s.name == "outer") {
            outer = &s;
        }
    }
    ASSERT_NE(outer, nullptr);
    std::int64_t child_sum = 0;
    for (const auto& s : spans) {
        if (s.name == "child") {
            EXPECT_EQ(s.parent, outer->id);
            child_sum += s.end_ns - s.start_ns;
        }
    }
    const std::int64_t outer_ns = outer->end_ns - outer->start_ns;
    const std::int64_t self = SelfTimesNs(spans).at(outer->id);
    // The three sleeps overlap: summing them would exceed the outer span.
    EXPECT_GT(child_sum, outer_ns);
    EXPECT_GE(self, 0);
    EXPECT_LT(self, outer_ns);
}

TEST(PerfbenchSelfTime, DisabledRecorderRecordsNothing) {
    SpanRecorder recorder(false);
    { const ScopedSpan span(&recorder, "x"); }
    { const ScopedSpan span(nullptr, "y"); }
    EXPECT_TRUE(recorder.Spans().empty());
}

TEST(PerfbenchRecordingStore, ForwardsEveryCallByteForByte) {
    moc::MemoryStore inner;
    SpanRecorder recorder(true);
    RecordingStore store(inner, recorder);
    const moc::Blob blob = {1, 2, 3, 0, 255, 7};
    store.Put("a/b", blob);
    store.Put("c", moc::Blob(10, 9));

    EXPECT_EQ(inner.Get("a/b"), blob);
    EXPECT_EQ(store.Get("a/b"), blob);
    EXPECT_FALSE(store.Get("missing").has_value());
    EXPECT_TRUE(store.Contains("c"));
    EXPECT_EQ(store.Keys(), inner.Keys());
    EXPECT_EQ(store.Count(), 2U);
    EXPECT_EQ(store.TotalBytes(), inner.TotalBytes());
    store.Erase("c");
    EXPECT_FALSE(inner.Contains("c"));

    const StoreCounts c = store.counts();
    EXPECT_EQ(c.put_calls, 2U);
    EXPECT_EQ(c.put_bytes, 16U);
    EXPECT_EQ(c.get_calls, 2U);
    EXPECT_EQ(c.get_bytes, 6U);
    EXPECT_EQ(c.erase_calls, 1U);
    const auto stats = AggregateSpans(recorder.Spans());
    EXPECT_EQ(stats.at("storage.put").duration_ms.size(), 2U);
    EXPECT_EQ(stats.at("storage.put").bytes, 16U);
    EXPECT_EQ(stats.at("storage.get").bytes, 6U);
    EXPECT_EQ(stats.at("storage.erase").duration_ms.size(), 1U);
}

TEST(PerfbenchRecordingStore, RethrowsStoreErrorUnchanged) {
    moc::MemoryStore memory;
    memory.Put("k", moc::Blob{4, 5});
    moc::FaultyStore faulty(memory, /*seed=*/1);
    moc::StorageFaultProfile profile;
    profile.put_transient_error = 1.0;
    profile.get_transient_error = 1.0;
    faulty.Arm(profile);
    SpanRecorder recorder(true);
    RecordingStore store(faulty, recorder);

    try {
        store.Put("k", moc::Blob{6});
        FAIL() << "Put should have thrown";
    } catch (const moc::StoreError& e) {
        EXPECT_EQ(e.kind(), moc::StoreErrorKind::kTransient);
    }
    EXPECT_THROW(store.Get("k"), moc::StoreError);
    EXPECT_EQ(memory.Get("k"), (moc::Blob{4, 5}));
    // Failed calls still count as attempted and still close their spans.
    EXPECT_EQ(store.counts().put_calls, 1U);
    EXPECT_EQ(store.counts().get_calls, 1U);
    EXPECT_EQ(recorder.Spans().size(), 2U);
}

}  // namespace
}  // namespace perfbench
