#ifndef PERFBENCH_HARNESS_MEASURE_H_
#define PERFBENCH_HARNESS_MEASURE_H_

/**
 * @file
 * The benchmark's measuring helpers: the percentile rule every timing is
 * reported by, and a span recorder that times calls into the program's
 * public functions from the benchmark's own code.
 *
 * Spans are recorded only when the recorder is enabled (the traced run);
 * a disabled recorder costs one branch per call site, so the untraced run
 * that produces the end-to-end metrics stays unperturbed.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady clock, the clock the program's obs uses). */
std::int64_t NowNs();

/** Seconds elapsed since @p start_ns. */
double SecondsSince(std::int64_t start_ns);

/**
 * Linear-interpolated percentile of @p samples, @p q in [0, 1]
 * (q = 0.5 is the median). @p samples need not be sorted; empty -> 0.
 */
double Percentile(std::vector<double> samples, double q);

/**
 * The reporting rule for tail percentiles: the q-percentile of @p n samples
 * is reported only when at least ten samples lie beyond it, i.e.
 * n * (1 - q) >= 10 (p90 needs 100 samples).
 */
bool PercentileSupported(std::size_t n, double q);

/** Median and, where the rule allows, p90 of one timing. */
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    std::optional<double> p90;
};

Summary Summarize(const std::vector<double>& samples);

/** One closed span: a call into a program layer, timed from outside. */
struct Span {
    std::string name;
    std::uint64_t id = 0;
    /** Enclosing span; 0 = a root. */
    std::uint64_t parent = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Payload bytes the call moved (store calls), else 0. */
    std::uint64_t bytes = 0;
};

/**
 * Self time of every span: its duration minus the *union* of its
 * children's intervals clipped to it. Children on several threads overlap
 * (the persist workers write in parallel), so summing their durations
 * would over-subtract. Keyed by span id, in nanoseconds.
 */
std::map<std::uint64_t, std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

/**
 * Thread-safe span sink.
 *
 * Parent links: a span opened on a thread that already has an open span
 * nests under it; a span opened on a thread with none (a persist worker
 * inside the program) nests under the innermost open span of the thread
 * that constructed the recorder — the benchmark's main thread, whose
 * call is what the worker is doing work for.
 */
class SpanRecorder {
  public:
    explicit SpanRecorder(bool enabled);

    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    bool enabled() const { return enabled_; }

    /** All spans closed so far, in closing order. */
    std::vector<Span> Spans() const;

    /** Drops every recorded span. */
    void Clear();

  private:
    friend class ScopedSpan;

    std::uint64_t Open(std::uint64_t* parent);
    void Close(Span span);

    const bool enabled_;
    const std::thread::id owner_;
    std::atomic<std::uint64_t> next_id_{1};
    /** Innermost open span of the owning thread (0 = none). */
    std::atomic<std::uint64_t> owner_open_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when @p recorder is null or disabled. */
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder* recorder, const char* name,
               std::uint64_t bytes = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void set_bytes(std::uint64_t bytes) { span_.bytes = bytes; }

  private:
    SpanRecorder* recorder_ = nullptr;
    Span span_;
    bool on_owner_ = false;
    std::uint64_t saved_owner_open_ = 0;
};

/** Per-name aggregate of recorded spans. */
struct SpanStats {
    std::vector<double> duration_ms;
    std::vector<double> self_ms;
    std::uint64_t bytes = 0;
};

/** Groups @p spans by name with their durations and self times. */
std::map<std::string, SpanStats> AggregateSpans(const std::vector<Span>& spans);

/** Sum of @p values. */
double Sum(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_MEASURE_H_
