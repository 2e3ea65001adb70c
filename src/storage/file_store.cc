#include "storage/file_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/store_error.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace fs = std::filesystem;

namespace moc {

namespace {

constexpr char kFileSuffix[] = ".blob";
constexpr std::size_t kTrailerSize = sizeof(std::uint32_t);

void
ValidateKey(const std::string& key) {
    MOC_CHECK_ARG(!key.empty(), "empty store key");
    MOC_CHECK_ARG(key.front() != '/' && key.back() != '/',
                  "key must not start or end with '/': " << key);
    std::size_t start = 0;
    while (start <= key.size()) {
        const std::size_t end = key.find('/', start);
        const std::string segment =
            key.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start);
        MOC_CHECK_ARG(!segment.empty(), "empty path segment in key: " << key);
        MOC_CHECK_ARG(segment != "." && segment != "..",
                      "key may not contain dot segments: " << key);
        if (end == std::string::npos) {
            break;
        }
        start = end + 1;
    }
}

/** Seconds since the obs tracer epoch, for I/O latency histograms. */
double
NowSeconds() {
    return static_cast<double>(obs::Tracer::NowNs()) * 1e-9;
}

/**
 * Flushes @p path's data (or, for a directory, its entries) to stable
 * storage. The atomic-rename protocol needs both: fsync the temp file
 * before the rename so the data is durable under its new name, and fsync
 * the parent directory after so the rename itself survives power loss.
 * On Windows there is no directory fsync; this becomes a no-op there and
 * the store degrades to ordinary (still atomic-on-crash) rename semantics.
 */
void
SyncPath(const fs::path& path, const std::string& key) {
#ifndef _WIN32
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "cannot open for fsync: " + path.string());
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "fsync failed for " + path.string());
    }
#else
    (void)path;
    (void)key;
#endif
}

}  // namespace

FileStore::FileStore(fs::path root) : root_(std::move(root)) {
    if (fs::exists(root_)) {
        MOC_CHECK_ARG(fs::is_directory(root_),
                      "FileStore root is not a directory: " << root_.string());
    } else {
        fs::create_directories(root_);
    }
}

fs::path
FileStore::PathFor(const std::string& key) const {
    ValidateKey(key);
    return root_ / (key + kFileSuffix);
}

void
FileStore::Put(const std::string& key, Blob blob) {
    const obs::TraceSpan span("filestore.put", "storage");
    const double start = NowSeconds();
    const fs::path path = PathFor(key);
    std::lock_guard<std::mutex> lock(mu_);
    fs::create_directories(path.parent_path());
    const fs::path tmp = path.string() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw StoreError(StoreErrorKind::kTransient, key,
                             "cannot open " + tmp.string());
        }
        out.write(reinterpret_cast<const char*>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
        ByteWriter trailer(kTrailerSize);
        trailer.U32(Crc32(blob.data(), blob.size()));
        out.write(reinterpret_cast<const char*>(trailer.data()),
                  static_cast<std::streamsize>(trailer.size()));
        if (!out) {
            throw StoreError(StoreErrorKind::kTransient, key,
                             "write failed for " + tmp.string());
        }
    }
    SyncPath(tmp, key);        // data durable before it becomes visible
    fs::rename(tmp, path);     // atomic replace on POSIX
    SyncPath(path.parent_path(), key);  // the rename itself durable
    auto& registry = obs::MetricsRegistry::Instance();
    static obs::Counter& write_bytes = registry.GetCounter("filestore.write_bytes");
    static obs::Histogram& write_seconds =
        registry.GetHistogram("filestore.write_seconds");
    write_bytes.Add(blob.size());
    write_seconds.Observe(NowSeconds() - start);
}

std::optional<Blob>
FileStore::Get(const std::string& key) const {
    const obs::TraceSpan span("filestore.get", "storage");
    const double start = NowSeconds();
    const fs::path path = PathFor(key);
    std::lock_guard<std::mutex> lock(mu_);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        return std::nullopt;
    }
    auto& registry_for_errors = obs::MetricsRegistry::Instance();
    static obs::Counter& corrupt_reads =
        registry_for_errors.GetCounter("store.corrupt_reads_total");
    const auto total = static_cast<std::size_t>(in.tellg());
    if (total < kTrailerSize) {
        corrupt_reads.Add();
        throw StoreError(StoreErrorKind::kCorrupt, key,
                         "truncated blob file " + path.string());
    }
    Blob blob(total - kTrailerSize);
    std::uint8_t trailer[kTrailerSize];
    in.seekg(0);
    in.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    in.read(reinterpret_cast<char*>(trailer), kTrailerSize);
    if (!in) {
        throw StoreError(StoreErrorKind::kTransient, key,
                         "read failed for " + path.string());
    }
    if (Crc32(blob.data(), blob.size()) !=
        ByteReader(trailer, kTrailerSize).U32()) {
        corrupt_reads.Add();
        throw StoreError(StoreErrorKind::kCorrupt, key,
                         "CRC mismatch (torn write?) in " + path.string());
    }
    auto& registry = obs::MetricsRegistry::Instance();
    static obs::Counter& read_bytes = registry.GetCounter("filestore.read_bytes");
    static obs::Histogram& read_seconds =
        registry.GetHistogram("filestore.read_seconds");
    read_bytes.Add(blob.size());
    read_seconds.Observe(NowSeconds() - start);
    return blob;
}

bool
FileStore::Contains(const std::string& key) const {
    const fs::path path = PathFor(key);
    std::lock_guard<std::mutex> lock(mu_);
    return fs::exists(path);
}

void
FileStore::Erase(const std::string& key) {
    const fs::path path = PathFor(key);
    std::lock_guard<std::mutex> lock(mu_);
    std::error_code ec;
    fs::remove(path, ec);
}

std::vector<std::string>
FileStore::Keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> keys;
    if (!fs::exists(root_)) {
        return keys;
    }
    const std::string suffix = kFileSuffix;
    for (const auto& entry : fs::recursive_directory_iterator(root_)) {
        if (!entry.is_regular_file()) {
            continue;
        }
        std::string rel = fs::relative(entry.path(), root_).generic_string();
        if (rel.size() > suffix.size() &&
            rel.compare(rel.size() - suffix.size(), suffix.size(), suffix) == 0) {
            keys.push_back(rel.substr(0, rel.size() - suffix.size()));
        }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

Bytes
FileStore::TotalBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    Bytes total = 0;
    if (!fs::exists(root_)) {
        return total;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root_)) {
        if (entry.is_regular_file()) {
            const auto size = entry.file_size();
            total += size >= kTrailerSize ? size - kTrailerSize : 0;
        }
    }
    return total;
}

std::size_t
FileStore::Count() const {
    return Keys().size();
}

}  // namespace moc
