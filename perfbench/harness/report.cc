#include "harness/report.h"

#include <sys/resource.h>

#include <cstring>
#include <functional>

#include "storage/delta_codec.h"
#include "util/crc32.h"
#include "util/hash.h"

namespace perfbench {

void
Report::Add(const std::string& name, const std::string& unit, double value,
            std::size_t samples) {
    metrics_.push_back(Metric{name, unit, value, samples});
}

void
Report::AddTableOnly(const std::string& name, const std::string& unit,
                     double value, std::size_t samples) {
    metrics_.push_back(Metric{name, unit, value, samples, false});
}

void
Report::Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        failures_.push_back(what);
    }
}

void
EpisodeFigures::Add(double setup_s, const std::vector<double>& save_ms,
                    double saved_logical_bytes,
                    const std::vector<double>& restore_ms,
                    double restored_logical_bytes, double progress,
                    double loop_s) {
    setup_s_.push_back(setup_s);
    if (!save_ms.empty()) {
        save_p50_.push_back(Percentile(save_ms, 0.5));
        save_mbps_.push_back(saved_logical_bytes / (Sum(save_ms) / 1e3) / 1e6);
        all_save_ms_.insert(all_save_ms_.end(), save_ms.begin(), save_ms.end());
    }
    if (!restore_ms.empty()) {
        restore_p50_.push_back(Percentile(restore_ms, 0.5));
        restore_mbps_.push_back(restored_logical_bytes /
                                (Sum(restore_ms) / 1e3) / 1e6);
        restores_ += restore_ms.size();
    }
    progress_per_s_.push_back(progress / loop_s);
}

void
EpisodeFigures::AddTo(Report& report) const {
    const std::size_t saves = all_save_ms_.size();
    report.Add("setup_s", "s", Percentile(setup_s_, 0.5), setup_s_.size());
    report.Add("save_ms_p50", "ms", Percentile(save_p50_, 0.5), saves);
    report.Add("restore_ms_p50", "ms", Percentile(restore_p50_, 0.5),
               restores_);
    report.Add("save_mbps", "MB/s", Percentile(save_mbps_, 0.5));
    report.Add("restore_mbps", "MB/s", Percentile(restore_mbps_, 0.5));
    report.Add("train_iters_per_s", "1/s", Percentile(progress_per_s_, 0.5));
    // A tail over all saves: a burst covering a tenth of the run moves
    // it, so it is shown but is no result figure.
    const Summary s = Summarize(all_save_ms_);
    if (s.p90) {
        report.AddTableOnly("save_ms_p90", "ms", *s.p90, s.n);
    }
}

double
PeakRssMb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
FreshDir(const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

namespace {

/** Keeps kernel results observable so no pass is optimized away. */
volatile std::uint64_t g_sink = 0;

/**
 * GB/s of @p kernel over @p blobs: whole passes over every blob, repeated
 * until at least 0.1 s has elapsed.
 */
double
Rate(const std::vector<moc::Blob>& blobs,
     const std::function<std::uint64_t(std::size_t)>& kernel) {
    std::uint64_t bytes_per_pass = 0;
    for (const auto& b : blobs) {
        bytes_per_pass += b.size();
    }
    if (bytes_per_pass == 0) {
        return 0.0;
    }
    std::uint64_t sink = 0;
    std::uint64_t bytes = 0;
    const std::int64_t start = NowNs();
    do {
        for (std::size_t i = 0; i < blobs.size(); ++i) {
            sink ^= kernel(i);
        }
        bytes += bytes_per_pass;
    } while (SecondsSince(start) < 0.1);
    const double elapsed = SecondsSince(start);
    g_sink = g_sink ^ sink;
    return static_cast<double>(bytes) / elapsed / 1e9;
}

}  // namespace

void
AddKernelRates(Report& report, const std::vector<moc::Blob>& blobs,
               std::size_t chunk_bytes) {
    std::vector<moc::Blob> copies(blobs.size());
    std::vector<moc::Blob> records(blobs.size());
    for (std::size_t i = 0; i < blobs.size(); ++i) {
        copies[i].resize(blobs[i].size());
    }
    // ~1% of each blob's chunks changed, at least one: the hot-delta mix.
    std::vector<std::vector<std::uint32_t>> changed(blobs.size());
    for (std::size_t i = 0; i < blobs.size(); ++i) {
        const std::size_t chunks =
            (blobs[i].size() + chunk_bytes - 1) / chunk_bytes;
        for (std::size_t c = 0; c < chunks; c += 100) {
            changed[i].push_back(static_cast<std::uint32_t>(c));
        }
        records[i] = moc::EncodeDelta(blobs[i], changed[i], chunk_bytes, 1);
    }

    report.Add("util.memcpy_gbps", "GB/s", Rate(blobs, [&](std::size_t i) {
                   std::memcpy(copies[i].data(), blobs[i].data(),
                               blobs[i].size());
                   return copies[i].empty() ? 0 : copies[i][i % copies[i].size()];
               }));
    report.Add("util.crc32c_gbps", "GB/s", Rate(blobs, [&](std::size_t i) {
                   return moc::Crc32c(blobs[i].data(), blobs[i].size());
               }));
    report.Add("util.crc32_gbps", "GB/s", Rate(blobs, [&](std::size_t i) {
                   return moc::Crc32(blobs[i].data(), blobs[i].size());
               }));
    report.Add("util.fnv1a64_gbps", "GB/s", Rate(blobs, [&](std::size_t i) {
                   return moc::Fnv1a64(blobs[i].data(), blobs[i].size());
               }));
    report.Add("storage.hash_chunks_gbps", "GB/s",
               Rate(blobs, [&](std::size_t i) {
                   return moc::HashChunks(blobs[i], chunk_bytes).size();
               }));
    report.Add("storage.encode_delta_gbps", "GB/s",
               Rate(blobs, [&](std::size_t i) {
                   return moc::EncodeDelta(blobs[i], changed[i], chunk_bytes, 1)
                       .size();
               }));
    report.Add("storage.apply_delta_gbps", "GB/s",
               Rate(blobs, [&](std::size_t i) {
                   return moc::ApplyDelta(records[i], blobs[i]).size();
               }));
}

double
MedianMs(const std::map<std::string, SpanStats>& spans, const std::string& name,
         bool self) {
    const auto it = spans.find(name);
    if (it == spans.end()) {
        return 0.0;
    }
    return Percentile(self ? it->second.self_ms : it->second.duration_ms, 0.5);
}

void
AddStoreLayer(Report& report, const std::map<std::string, SpanStats>& spans,
              const StoreCounts& counts, std::size_t events) {
    const double per = events == 0 ? 0.0 : 1.0 / static_cast<double>(events);
    auto busy = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : Sum(it->second.duration_ms) * per;
    };
    const auto put = spans.find("storage.put");
    report.Add("storage.put_calls", "count/event",
               static_cast<double>(counts.put_calls) * per);
    report.Add("storage.put_bytes", "B/event",
               static_cast<double>(counts.put_bytes) * per);
    report.Add("storage.put_busy_ms", "ms/event", busy("storage.put"));
    report.Add("storage.put_ms_p50", "ms", MedianMs(spans, "storage.put"),
               put == spans.end() ? 0 : put->second.duration_ms.size());
    report.Add("storage.get_calls", "count/event",
               static_cast<double>(counts.get_calls) * per);
    report.Add("storage.get_bytes", "B/event",
               static_cast<double>(counts.get_bytes) * per);
    report.Add("storage.get_busy_ms", "ms/event", busy("storage.get"));
    report.Add("storage.erase_calls", "count/event",
               static_cast<double>(counts.erase_calls) * per);
}

void
AddTraceOverhead(Report& report, double untraced_save_p50,
                 double traced_save_p50, std::size_t spans) {
    report.Add("obs.trace_overhead_pct", "%",
               untraced_save_p50 > 0.0
                   ? 100.0 * (traced_save_p50 - untraced_save_p50) /
                         untraced_save_p50
                   : 0.0);
    report.Add("obs.spans_recorded", "count", static_cast<double>(spans));
}

}  // namespace perfbench
