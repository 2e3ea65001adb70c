/**
 * @file
 * Tests for the observability layer: counters/gauges/histograms and their
 * registry, trace spans and ring buffers, the JSON/Chrome-trace exporters,
 * and a multi-thread smoke test that hammers the registry, the tracer, and
 * the logger concurrently (the TSan CI job runs these).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/expert_stats.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_meta.h"
#include "obs/trace.h"
#include "temp_path.h"
#include "util/json.h"
#include "util/logging.h"

namespace moc {
namespace {

using obs::Counter;
using obs::ExponentialBuckets;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::Tracer;
using obs::TraceRing;
using obs::TraceSpan;

// ---------- Counter / Gauge ----------

TEST(ObsCounter, AddsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0U);
    c.Add();
    c.Add(41);
    EXPECT_EQ(c.value(), 42U);
    c.Reset();
    EXPECT_EQ(c.value(), 0U);
}

TEST(ObsGauge, SetAddReset) {
    Gauge g;
    g.Set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.Add(0.75);
    EXPECT_DOUBLE_EQ(g.value(), 3.25);
    g.Reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ---------- Histogram ----------

TEST(ObsHistogram, PlacesObservationsInLeBuckets) {
    Histogram h({1.0, 10.0, 100.0});
    h.Observe(0.5);    // <= 1
    h.Observe(1.0);    // <= 1 (inclusive upper bound)
    h.Observe(5.0);    // <= 10
    h.Observe(50.0);   // <= 100
    h.Observe(500.0);  // overflow
    EXPECT_EQ(h.count(), 5U);
    EXPECT_DOUBLE_EQ(h.sum(), 556.5);
    const auto counts = h.bucket_counts();
    ASSERT_EQ(counts.size(), 4U);
    EXPECT_EQ(counts[0], 2U);
    EXPECT_EQ(counts[1], 1U);
    EXPECT_EQ(counts[2], 1U);
    EXPECT_EQ(counts[3], 1U);
    h.Reset();
    EXPECT_EQ(h.count(), 0U);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(ObsHistogram, RejectsUnsortedBounds) {
    EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, ExponentialBucketsGrowGeometrically) {
    const auto bounds = ExponentialBuckets(1e-3, 10.0, 4);
    ASSERT_EQ(bounds.size(), 4U);
    EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
    EXPECT_DOUBLE_EQ(bounds[3], 1.0);
    EXPECT_THROW(ExponentialBuckets(0.0, 2.0, 3), std::invalid_argument);
    EXPECT_THROW(ExponentialBuckets(1.0, 1.0, 3), std::invalid_argument);
}

// ---------- Registry ----------

TEST(ObsRegistry, SameNameReturnsSameInstance) {
    auto& registry = MetricsRegistry::Instance();
    Counter& a = registry.GetCounter("obs_test.same_name");
    Counter& b = registry.GetCounter("obs_test.same_name");
    EXPECT_EQ(&a, &b);
    Histogram& h1 = registry.GetHistogram("obs_test.same_hist", {1.0, 2.0});
    Histogram& h2 = registry.GetHistogram("obs_test.same_hist", {7.0});
    EXPECT_EQ(&h1, &h2);  // bounds of the first registration win
    ASSERT_EQ(h2.bounds().size(), 2U);
}

TEST(ObsRegistry, KindCollisionThrows) {
    auto& registry = MetricsRegistry::Instance();
    registry.GetCounter("obs_test.kind_collision");
    EXPECT_THROW(registry.GetGauge("obs_test.kind_collision"),
                 std::invalid_argument);
    EXPECT_THROW(registry.GetHistogram("obs_test.kind_collision"),
                 std::invalid_argument);
}

TEST(ObsRegistry, SnapshotReflectsValuesAndResetPreservesIdentity) {
    auto& registry = MetricsRegistry::Instance();
    Counter& c = registry.GetCounter("obs_test.snapshot_counter");
    Gauge& g = registry.GetGauge("obs_test.snapshot_gauge");
    Histogram& h = registry.GetHistogram("obs_test.snapshot_hist", {1.0});
    c.Add(7);
    g.Set(1.5);
    h.Observe(0.25);
    const auto snap = registry.Snapshot();
    EXPECT_EQ(snap.counters.at("obs_test.snapshot_counter"), 7U);
    EXPECT_DOUBLE_EQ(snap.gauges.at("obs_test.snapshot_gauge"), 1.5);
    EXPECT_EQ(snap.histograms.at("obs_test.snapshot_hist").count, 1U);

    registry.ResetAll();
    EXPECT_EQ(c.value(), 0U);  // the cached reference is still the metric
    EXPECT_EQ(&c, &registry.GetCounter("obs_test.snapshot_counter"));
    EXPECT_EQ(h.count(), 0U);
}

// ---------- Metrics JSON export ----------

TEST(ObsExport, MetricsJsonCarriesRegisteredMetrics) {
    auto& registry = MetricsRegistry::Instance();
    registry.GetCounter("obs_test.json_counter").Add(123);
    registry.GetGauge("obs_test.json_gauge").Set(0.5);
    registry.GetHistogram("obs_test.json_hist", {1.0}).Observe(2.0);
    const std::string json = obs::MetricsJson();
    EXPECT_NE(json.find("\"obs_test.json_counter\": 123"), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.json_gauge\": 0.5"), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.json_hist\""), std::string::npos);
    EXPECT_NE(json.find("\"+inf\""), std::string::npos);
    // Crude structural sanity: balanced braces/brackets.
    long braces = 0;
    long brackets = 0;
    for (const char ch : json) {
        braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
        brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(ObsExport, WritesMetricsFileCreatingDirectories) {
    const auto dir = UniqueTempPath("moc_obs_test");
    std::filesystem::remove_all(dir);
    const auto path = dir / "nested" / "metrics.json";
    MetricsRegistry::Instance().GetCounter("obs_test.file_counter").Add(5);
    ASSERT_TRUE(obs::WriteMetricsJson(path.string()));
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("obs_test.file_counter"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ---------- Trace ring + spans ----------

TEST(ObsTrace, RingOverwritesOldestWhenFull) {
    TraceRing ring(/*capacity=*/8, /*tid=*/0);
    for (std::uint64_t i = 0; i < 11; ++i) {
        TraceEvent event;
        event.name = "e";
        event.start_ns = i;
        ring.Push(event);
    }
    const auto events = ring.Events();
    ASSERT_EQ(events.size(), 8U);
    EXPECT_EQ(ring.dropped(), 3U);
    EXPECT_EQ(events.front().start_ns, 3U);  // oldest surviving
    EXPECT_EQ(events.back().start_ns, 10U);  // newest
    ring.Clear();
    EXPECT_TRUE(ring.Events().empty());
    EXPECT_EQ(ring.dropped(), 0U);
}

TEST(ObsTrace, SpanRecordsOnlyWhenEnabled) {
    Tracer& tracer = Tracer::Instance();
    tracer.set_enabled(false);
    tracer.Clear();
    { const TraceSpan span("obs_test.disabled", "test"); }
    EXPECT_TRUE(tracer.Collect().empty());

    tracer.set_enabled(true);
    { const TraceSpan span("obs_test.enabled", "test"); }
    tracer.set_enabled(false);
    const auto events = tracer.Collect();
    ASSERT_EQ(events.size(), 1U);
    EXPECT_STREQ(events[0].name, "obs_test.enabled");
    EXPECT_STREQ(events[0].category, "test");
    tracer.Clear();
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
    Tracer& tracer = Tracer::Instance();
    tracer.Clear();
    tracer.set_enabled(true);
    { const TraceSpan span("obs_test.chrome", "test"); }
    tracer.set_enabled(false);
    const std::string json = obs::ChromeTraceJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"obs_test.chrome\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    tracer.Clear();
}

// ---------- Flag plumbing ----------

TEST(ObsExport, ExtractObsOptionsStripsFlags) {
    std::vector<std::string> tokens = {
        "inspect",      "--metrics-out", "m.json",  "dir",
        "--trace-out",  "t.json",        "--events-out", "e.jsonl",
        "--prom-out",   "p.prom"};
    const obs::ObsOptions options = obs::ExtractObsOptions(tokens);
    EXPECT_EQ(options.metrics_out, "m.json");
    EXPECT_EQ(options.trace_out, "t.json");
    EXPECT_EQ(options.events_out, "e.jsonl");
    EXPECT_EQ(options.prom_out, "p.prom");
    EXPECT_EQ(tokens, (std::vector<std::string>{"inspect", "dir"}));
    EXPECT_TRUE(Tracer::Instance().enabled());  // --trace-out enables tracing
    Tracer::Instance().set_enabled(false);
    Tracer::Instance().Clear();

    std::vector<std::string> dangling = {"--metrics-out"};
    EXPECT_THROW(obs::ExtractObsOptions(dangling), std::invalid_argument);
}

// ---------- Histogram quantiles ----------

TEST(ObsQuantile, InterpolatesWithinBuckets) {
    obs::HistogramData data;
    data.bounds = {1.0, 2.0, 4.0};
    data.bucket_counts = {10, 10, 0, 0};
    data.count = 20;
    data.sum = 25.0;
    // Rank q*count walks the cumulative buckets; linear within a bucket.
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.25), 0.5);
    EXPECT_DOUBLE_EQ(obs::HistogramP50(data), 1.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.75), 1.5);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 1.0), 2.0);
}

TEST(ObsQuantile, OverflowBucketClampsToLastBound) {
    obs::HistogramData data;
    data.bounds = {1.0, 2.0};
    data.bucket_counts = {1, 0, 9};  // 9 observations beyond the last bound
    data.count = 10;
    data.sum = 100.0;
    EXPECT_DOUBLE_EQ(obs::HistogramP95(data), 2.0);
    EXPECT_DOUBLE_EQ(obs::HistogramP99(data), 2.0);
}

TEST(ObsQuantile, EmptyAndInvalidInputs) {
    obs::HistogramData empty;
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(empty, 0.5), 0.0);
    obs::HistogramData data;
    data.bounds = {1.0};
    data.bucket_counts = {1, 0};
    data.count = 1;
    EXPECT_THROW(obs::HistogramQuantile(data, -0.1), std::invalid_argument);
    EXPECT_THROW(obs::HistogramQuantile(data, 1.5), std::invalid_argument);
}

TEST(ObsQuantile, EmptyHistogramIsZeroAtEveryQuantile) {
    obs::HistogramData empty;
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(empty, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(empty, 1.0), 0.0);
    // Bounds but no observations is just as empty.
    obs::HistogramData bounded;
    bounded.bounds = {1.0, 2.0};
    bounded.bucket_counts = {0, 0, 0};
    bounded.count = 0;
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(bounded, 0.5), 0.0);
}

TEST(ObsQuantile, AllMassInOverflowBucket) {
    obs::HistogramData data;
    data.bounds = {1.0, 8.0};
    data.bucket_counts = {0, 0, 7};  // every observation above the last bound
    data.count = 7;
    data.sum = 700.0;
    // No finite edge to interpolate toward: every quantile clamps to the
    // last finite bound rather than inventing a value beyond it.
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.0), 8.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.5), 8.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 1.0), 8.0);
}

TEST(ObsQuantile, ExtremeQuantilesBracketTheDistribution) {
    obs::HistogramData data;
    data.bounds = {2.0, 4.0};
    data.bucket_counts = {5, 5, 0};
    data.count = 10;
    // q=0 lands at the lower edge of the first populated bucket (0 by the
    // histogram_quantile convention); q=1 at the upper edge of the last.
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 1.0), 4.0);
    // With the first bucket empty, q=0 starts at that bucket's lower bound.
    obs::HistogramData shifted;
    shifted.bounds = {2.0, 4.0};
    shifted.bucket_counts = {0, 4, 0};
    shifted.count = 4;
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(shifted, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(shifted, 1.0), 4.0);
}

TEST(ObsQuantile, SingleBucketInterpolatesLinearly) {
    obs::HistogramData data;
    data.bounds = {10.0};
    data.bucket_counts = {4, 0};
    data.count = 4;
    // One finite bucket [0, 10]: rank q*4 interpolates linearly from 0.
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 0.75), 7.5);
    EXPECT_DOUBLE_EQ(obs::HistogramQuantile(data, 1.0), 10.0);
}

// ---------- Per-expert telemetry ----------

TEST(ObsExpertStats, TracksStalenessAndAttribution) {
    auto& stats = obs::ExpertStatsRegistry::Instance();
    stats.Configure(2, 4);
    EXPECT_EQ(stats.num_layers(), 2U);
    EXPECT_EQ(stats.num_experts(), 4U);

    stats.SetIteration(10);
    stats.OnSnapshot(0, 1, 10, 100);
    stats.OnPersist(0, 1, 10, 50);
    stats.OnSnapshot(1, 3, 10, 100);
    stats.SetIteration(20);

    const auto snap = stats.Snapshot();
    ASSERT_EQ(snap.size(), 8U);
    const auto& cell01 = snap[0 * 4 + 1];
    EXPECT_EQ(cell01.last_snapshot_iteration, 10U);
    EXPECT_EQ(cell01.snapshot_staleness, 10U);  // 20 - 10
    EXPECT_EQ(cell01.persist_staleness, 10U);
    EXPECT_EQ(cell01.snapshots, 1U);
    EXPECT_EQ(cell01.snapshot_bytes, 100U);
    EXPECT_EQ(cell01.persist_bytes, 50U);
    // A never-saved cell is stale all the way back to iteration 0.
    EXPECT_EQ(snap[0].snapshot_staleness, 20U);
}

TEST(ObsExpertStats, RecoveryClampsBookkeeping) {
    auto& stats = obs::ExpertStatsRegistry::Instance();
    stats.Configure(1, 2);
    stats.SetIteration(30);
    stats.OnSnapshot(0, 0, 30, 10);
    stats.SetLostTokens(0, 1, 77);
    stats.OnRecovery(/*restart_iteration=*/20);  // iteration 30 was erased
    const auto snap = stats.Snapshot();
    EXPECT_EQ(snap[0].last_snapshot_iteration, 20U);
    EXPECT_EQ(snap[0].snapshot_staleness, 0U);
    EXPECT_EQ(snap[1].lost_tokens, 77U);
}

TEST(ObsExpertStats, ResetAllResetsExpertGrid) {
    auto& stats = obs::ExpertStatsRegistry::Instance();
    stats.Configure(1, 2);
    stats.SetIteration(5);
    stats.OnSnapshot(0, 0, 5, 10);
    stats.SetLostTokens(0, 1, 9);
    MetricsRegistry::Instance().ResetAll();
    const auto snap = stats.Snapshot();
    ASSERT_EQ(snap.size(), 2U);  // shape survives, values don't
    EXPECT_EQ(snap[0].snapshots, 0U);
    EXPECT_EQ(snap[0].snapshot_bytes, 0U);
    EXPECT_EQ(snap[0].snapshot_staleness, 0U);
    EXPECT_EQ(snap[1].lost_tokens, 0U);
    EXPECT_EQ(snap[1].layer, 0U);
    EXPECT_EQ(snap[1].expert, 1U);
}

TEST(ObsExpertStats, OutOfRangeCellThrows) {
    auto& stats = obs::ExpertStatsRegistry::Instance();
    stats.Configure(1, 2);
    EXPECT_THROW(stats.OnSnapshot(1, 0, 0, 0), std::invalid_argument);
    EXPECT_THROW(stats.OnPersist(0, 2, 0, 0), std::invalid_argument);
}

// ---------- Event journal ----------

TEST(ObsJournal, KindNamesRoundTrip) {
    for (const obs::EventKind kind :
         {obs::EventKind::kCkptBegin, obs::EventKind::kCkptEnd,
          obs::EventKind::kSnapshot, obs::EventKind::kPersist,
          obs::EventKind::kFault, obs::EventKind::kRecoveryBegin,
          obs::EventKind::kRecoveryEnd, obs::EventKind::kDynamicKBump}) {
        EXPECT_EQ(obs::EventKindFromName(obs::EventKindName(kind)), kind);
    }
    EXPECT_THROW(obs::EventKindFromName("bogus"), std::invalid_argument);
}

TEST(ObsJournal, AppendStampsSequenceAndWallClock) {
    auto& journal = obs::EventJournal::Instance();
    journal.Clear();
    const std::uint64_t s0 =
        journal.Append({.kind = obs::EventKind::kCkptBegin,
                        .iteration = 1,
                        .detail = {}});
    const std::uint64_t s1 =
        journal.Append({.kind = obs::EventKind::kCkptEnd,
                        .iteration = 1,
                        .bytes = 42,
                        .plt = 0.01,
                        .k = 4,
                        .detail = {}});
    EXPECT_EQ(s1, s0 + 1);
    const auto events = journal.Collect();
    ASSERT_EQ(events.size(), 2U);
    EXPECT_GE(events[1].wall_s, events[0].wall_s);
    EXPECT_EQ(events[1].bytes, 42U);
    journal.Clear();
    EXPECT_EQ(journal.size(), 0U);
    EXPECT_EQ(journal.dropped(), 0U);
}

TEST(ObsJournal, JsonlRoundTripPreservesEveryField) {
    auto& journal = obs::EventJournal::Instance();
    journal.Clear();
    journal.Append({.kind = obs::EventKind::kSnapshot,
                    .iteration = 12,
                    .scope = 3,
                    .bytes = 1024,
                    .detail = "moe/0/expert/1/w"});
    journal.Append({.kind = obs::EventKind::kFault,
                    .iteration = 17,
                    .scope = 1,
                    .detail = "nodes=1,3 \"quoted\"\n"});
    journal.Append({.kind = obs::EventKind::kRecoveryEnd,
                    .iteration = 12,
                    .bytes = 2048,
                    .plt = 0.0375,
                    .k = 8,
                    .detail = {}});

    const std::string jsonl = obs::EventsJsonl();
    // Line 1 is the meta header carrying the run metadata.
    EXPECT_EQ(jsonl.find("{\"type\": \"meta\""), 0U);
    EXPECT_NE(jsonl.find("\"schema\": \"moc-obs/1\""), std::string::npos);

    const auto parsed = obs::ParseEventsJsonl(jsonl);
    const auto original = journal.Collect();
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].kind, original[i].kind) << "event " << i;
        EXPECT_EQ(parsed[i].seq, original[i].seq);
        EXPECT_NEAR(parsed[i].wall_s, original[i].wall_s, 1e-9);
        EXPECT_EQ(parsed[i].iteration, original[i].iteration);
        EXPECT_EQ(parsed[i].scope, original[i].scope);
        EXPECT_EQ(parsed[i].bytes, original[i].bytes);
        EXPECT_NEAR(parsed[i].plt, original[i].plt, 1e-12);
        EXPECT_EQ(parsed[i].k, original[i].k);
        EXPECT_EQ(parsed[i].detail, original[i].detail);
    }
    journal.Clear();
}

TEST(ObsJournal, ParseRejectsMalformedLines) {
    EXPECT_THROW(obs::ParseEventsJsonl("{\"type\": \"snapshot\", }"),
                 std::invalid_argument);
    EXPECT_THROW(obs::ParseEventsJsonl("{\"type\": \"no_such_event\"}"),
                 std::invalid_argument);
    EXPECT_THROW(obs::ParseEventsJsonl("not json at all"),
                 std::invalid_argument);
    // Blank lines and the meta record are fine.
    EXPECT_TRUE(obs::ParseEventsJsonl("\n{\"type\": \"meta\"}\n\n").empty());
}

// ---------- Metrics JSON round-trip (writer vs the json reader) ----------

TEST(ObsExport, MetricsJsonRoundTripsThroughReader) {
    auto& registry = MetricsRegistry::Instance();
    registry.ResetAll();
    registry.GetCounter("obs_test.rt_counter").Add(17);
    registry.GetGauge("obs_test.rt_gauge").Set(-2.5);
    auto& hist = registry.GetHistogram("obs_test.rt_hist", {1.0, 2.0});
    hist.Observe(0.5);
    hist.Observe(1.5);
    hist.Observe(99.0);
    auto& stats = obs::ExpertStatsRegistry::Instance();
    stats.Configure(1, 2);
    stats.SetIteration(8);
    stats.OnSnapshot(0, 1, 8, 64);

    const json::Value root = json::Parse(obs::MetricsJson());
    EXPECT_EQ(root.At("meta").At("schema").AsString(), "moc-obs/1");
    EXPECT_DOUBLE_EQ(root.At("counters").At("obs_test.rt_counter").AsNumber(),
                     17.0);
    EXPECT_DOUBLE_EQ(root.At("gauges").At("obs_test.rt_gauge").AsNumber(), -2.5);
    const json::Value& h = root.At("histograms").At("obs_test.rt_hist");
    EXPECT_DOUBLE_EQ(h.At("count").AsNumber(), 3.0);
    EXPECT_DOUBLE_EQ(h.At("sum").AsNumber(), 101.0);
    const json::Array& buckets = h.At("buckets").AsArray();
    ASSERT_EQ(buckets.size(), 3U);  // two bounds + overflow
    EXPECT_DOUBLE_EQ(buckets[0].At("count").AsNumber(), 1.0);
    EXPECT_TRUE(buckets[2].At("le").is_string());  // "+inf"
    const json::Array& experts = root.At("experts").AsArray();
    ASSERT_EQ(experts.size(), 2U);
    EXPECT_DOUBLE_EQ(experts[1].At("snapshot_bytes").AsNumber(), 64.0);
    EXPECT_DOUBLE_EQ(experts[1].At("last_snapshot_iteration").AsNumber(), 8.0);
    registry.ResetAll();
}

// ---------- Prometheus exporter ----------

TEST(ObsPrometheus, MetricNameMangling) {
    EXPECT_EQ(obs::PromMetricName("ckpt.persist_bytes"),
              "moc_ckpt_persist_bytes");
    EXPECT_EQ(obs::PromMetricName("weird-name/with:stuff"),
              "moc_weird_name_with_stuff");
}

TEST(ObsPrometheus, TextRoundTripsThroughParser) {
    auto& registry = MetricsRegistry::Instance();
    registry.ResetAll();
    registry.GetCounter("obs_test.prom_counter").Add(9);
    registry.GetGauge("obs_test.prom_gauge").Set(1.25);
    auto& hist = registry.GetHistogram("obs_test.prom_hist", {1.0, 2.0});
    hist.Observe(0.5);
    hist.Observe(1.5);
    hist.Observe(9.0);
    auto& stats = obs::ExpertStatsRegistry::Instance();
    stats.Configure(1, 2);
    stats.SetIteration(4);
    stats.OnPersist(0, 0, 4, 32);

    const std::string text = obs::MetricsPrometheus();
    const auto samples = obs::ParsePrometheusText(text);
    const auto find = [&](const std::string& name,
                          const std::map<std::string, std::string>& labels)
        -> const obs::PromSample* {
        for (const auto& s : samples) {
            if (s.name == name && s.labels == labels) {
                return &s;
            }
        }
        return nullptr;
    };

    const auto* info = find("moc_run_info", {});
    // run_info carries labels, so an exact-label lookup won't match; find by
    // name instead and check the schema label.
    if (info == nullptr) {
        for (const auto& s : samples) {
            if (s.name == "moc_run_info") {
                info = &s;
                break;
            }
        }
    }
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->labels.at("schema"), "moc-obs/1");
    EXPECT_DOUBLE_EQ(info->value, 1.0);

    const auto* counter = find("moc_obs_test_prom_counter", {});
    ASSERT_NE(counter, nullptr);
    EXPECT_DOUBLE_EQ(counter->value, 9.0);

    const auto* gauge = find("moc_obs_test_prom_gauge", {});
    ASSERT_NE(gauge, nullptr);
    EXPECT_DOUBLE_EQ(gauge->value, 1.25);

    // Histogram: cumulative buckets, +Inf == count, sum preserved.
    const auto* le1 = find("moc_obs_test_prom_hist_bucket", {{"le", "1"}});
    const auto* le2 = find("moc_obs_test_prom_hist_bucket", {{"le", "2"}});
    const auto* inf = find("moc_obs_test_prom_hist_bucket", {{"le", "+Inf"}});
    const auto* sum = find("moc_obs_test_prom_hist_sum", {});
    const auto* count = find("moc_obs_test_prom_hist_count", {});
    ASSERT_TRUE(le1 && le2 && inf && sum && count);
    EXPECT_DOUBLE_EQ(le1->value, 1.0);
    EXPECT_DOUBLE_EQ(le2->value, 2.0);  // cumulative
    EXPECT_DOUBLE_EQ(inf->value, 3.0);
    EXPECT_DOUBLE_EQ(sum->value, 11.0);
    EXPECT_DOUBLE_EQ(count->value, 3.0);

    // Expert grid series carry (layer, expert) labels.
    const auto* bytes = find("moc_expert_persist_bytes_total",
                             {{"layer", "0"}, {"expert", "0"}});
    ASSERT_NE(bytes, nullptr);
    EXPECT_DOUBLE_EQ(bytes->value, 32.0);
    registry.ResetAll();
}

TEST(ObsPrometheus, ParserRejectsJunkAndHandlesEscapes) {
    EXPECT_THROW(obs::ParsePrometheusText("no_value_here\n"),
                 std::invalid_argument);
    EXPECT_THROW(obs::ParsePrometheusText("name{unclosed=\"x\" 1\n"),
                 std::invalid_argument);
    const auto samples = obs::ParsePrometheusText(
        "# HELP x y\n# TYPE x gauge\n"
        "x{a=\"es\\\\c\\\"ap\\ne\"} 4.5\nplain 1\ninf_val +Inf\n");
    ASSERT_EQ(samples.size(), 3U);
    EXPECT_EQ(samples[0].labels.at("a"), "es\\c\"ap\ne");
    EXPECT_DOUBLE_EQ(samples[0].value, 4.5);
    EXPECT_TRUE(std::isinf(samples[2].value));
}

// ---------- Multi-thread smoke test (meaningful under TSan) ----------

TEST(ObsSmoke, ConcurrentMetricsTracingAndLogging) {
    auto& registry = MetricsRegistry::Instance();
    Counter& counter = registry.GetCounter("obs_test.smoke_counter");
    Gauge& gauge = registry.GetGauge("obs_test.smoke_gauge");
    Histogram& hist = registry.GetHistogram("obs_test.smoke_hist", {0.25, 0.75});
    counter.Reset();
    hist.Reset();

    Tracer& tracer = Tracer::Instance();
    tracer.Clear();
    tracer.set_enabled(true);
    const LogLevel old_level = Logger::Instance().level();

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 2000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = 0; i < kIters; ++i) {
                const TraceSpan span("obs_test.smoke_span", "test");
                counter.Add();
                gauge.Set(static_cast<double>(t));
                hist.Observe(static_cast<double>(i % 100) / 100.0);
                // Exercises the Logger::level_ read against set_level below
                // (kDebug stays below both toggled levels, so no output).
                MOC_DEBUG << "smoke " << t << ":" << i;
            }
        });
    }
    // One thread flips the log level while the workers log...
    std::thread toggler([&] {
        for (std::size_t i = 0; i < 500; ++i) {
            Logger::Instance().set_level(i % 2 == 0 ? LogLevel::kWarn
                                                    : LogLevel::kError);
        }
    });
    // ...and one thread exports while everything is being written.
    std::thread exporter([&] {
        for (std::size_t i = 0; i < 20; ++i) {
            (void)obs::MetricsJson();
            (void)obs::ChromeTraceJson();
            (void)tracer.TotalDropped();
        }
    });
    for (auto& worker : workers) {
        worker.join();
    }
    toggler.join();
    exporter.join();
    tracer.set_enabled(false);
    Logger::Instance().set_level(old_level);

    EXPECT_EQ(counter.value(), kThreads * kIters);
    EXPECT_EQ(hist.count(), kThreads * kIters);
    const double g = gauge.value();
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, static_cast<double>(kThreads));
    // Every ring holds at most capacity events; nothing crashed or tore.
    const auto events = tracer.Collect();
    EXPECT_LE(events.size(), kThreads * Tracer::kRingCapacity);
    EXPECT_GT(events.size(), 0U);
    tracer.Clear();
}

}  // namespace
}  // namespace moc
