#include "harness/recording_store.h"

#include <utility>

namespace perfbench {

RecordingStore::RecordingStore(moc::ObjectStore& inner, SpanRecorder& recorder)
    : inner_(inner), recorder_(recorder) {}

void
RecordingStore::Put(const std::string& key, moc::Blob blob) {
    const std::uint64_t bytes = blob.size();
    put_calls_.fetch_add(1, std::memory_order_relaxed);
    put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    const ScopedSpan span(&recorder_, "storage.put", bytes);
    inner_.Put(key, std::move(blob));
}

std::optional<moc::Blob>
RecordingStore::Get(const std::string& key) const {
    get_calls_.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(&recorder_, "storage.get");
    std::optional<moc::Blob> blob = inner_.Get(key);
    if (blob) {
        get_bytes_.fetch_add(blob->size(), std::memory_order_relaxed);
        span.set_bytes(blob->size());
    }
    return blob;
}

bool
RecordingStore::Contains(const std::string& key) const {
    return inner_.Contains(key);
}

void
RecordingStore::Erase(const std::string& key) {
    erase_calls_.fetch_add(1, std::memory_order_relaxed);
    const ScopedSpan span(&recorder_, "storage.erase");
    inner_.Erase(key);
}

std::vector<std::string>
RecordingStore::Keys() const {
    return inner_.Keys();
}

moc::Bytes
RecordingStore::TotalBytes() const {
    return inner_.TotalBytes();
}

std::size_t
RecordingStore::Count() const {
    return inner_.Count();
}

StoreCounts
RecordingStore::counts() const {
    StoreCounts c;
    c.put_calls = put_calls_.load(std::memory_order_relaxed);
    c.put_bytes = put_bytes_.load(std::memory_order_relaxed);
    c.get_calls = get_calls_.load(std::memory_order_relaxed);
    c.get_bytes = get_bytes_.load(std::memory_order_relaxed);
    c.erase_calls = erase_calls_.load(std::memory_order_relaxed);
    return c;
}

}  // namespace perfbench
