#include "harness/measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/** Open span ids of the calling thread, innermost last. */
thread_local std::vector<std::uint64_t> tl_open;

}  // namespace

std::int64_t
NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
SecondsSince(std::int64_t start_ns) {
    return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double
Percentile(std::vector<double> samples, double q) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool
PercentileSupported(std::size_t n, double q) {
    // The tolerance keeps 100 * (1 - 0.9) from rounding below 10.
    return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

Summary
Summarize(const std::vector<double>& samples) {
    Summary s;
    s.n = samples.size();
    s.p50 = Percentile(samples, 0.5);
    if (PercentileSupported(s.n, 0.9)) {
        s.p90 = Percentile(samples, 0.9);
    }
    return s;
}

std::map<std::uint64_t, std::int64_t>
SelfTimesNs(const std::vector<Span>& spans) {
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span& s : spans) {
        if (s.parent != 0) {
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::map<std::uint64_t, std::int64_t> self;
    for (const Span& s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto& iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t run_start = 0;
            std::int64_t run_end = 0;
            bool open = false;
            for (auto [b, e] : iv) {
                b = std::max(b, s.start_ns);
                e = std::min(e, s.end_ns);
                if (e <= b) {
                    continue;
                }
                if (open && b <= run_end) {
                    run_end = std::max(run_end, e);
                    continue;
                }
                if (open) {
                    covered += run_end - run_start;
                }
                run_start = b;
                run_end = e;
                open = true;
            }
            if (open) {
                covered += run_end - run_start;
            }
        }
        self[s.id] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), owner_(std::this_thread::get_id()) {}

std::vector<Span>
SpanRecorder::Spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanRecorder::Clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

std::uint64_t
SpanRecorder::Open(std::uint64_t* parent) {
    *parent = tl_open.empty() ? owner_open_.load() : tl_open.back();
    const std::uint64_t id = next_id_.fetch_add(1);
    tl_open.push_back(id);
    return id;
}

void
SpanRecorder::Close(Span span) {
    tl_open.pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::uint64_t bytes) {
    if (recorder == nullptr || !recorder->enabled()) {
        return;
    }
    recorder_ = recorder;
    span_.name = name;
    span_.bytes = bytes;
    span_.id = recorder->Open(&span_.parent);
    on_owner_ = std::this_thread::get_id() == recorder->owner_;
    if (on_owner_) {
        saved_owner_open_ = recorder->owner_open_.exchange(span_.id);
    }
    span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
    if (recorder_ == nullptr) {
        return;
    }
    span_.end_ns = NowNs();
    if (on_owner_) {
        recorder_->owner_open_.store(saved_owner_open_);
    }
    recorder_->Close(std::move(span_));
}

std::map<std::string, SpanStats>
AggregateSpans(const std::vector<Span>& spans) {
    const auto self = SelfTimesNs(spans);
    std::map<std::string, SpanStats> out;
    for (const Span& s : spans) {
        SpanStats& st = out[s.name];
        st.duration_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                 1e6);
        st.self_ms.push_back(static_cast<double>(self.at(s.id)) / 1e6);
        st.bytes += s.bytes;
    }
    return out;
}

double
Sum(const std::vector<double>& values) {
    return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace perfbench
