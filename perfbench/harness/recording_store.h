#ifndef PERFBENCH_HARNESS_RECORDING_STORE_H_
#define PERFBENCH_HARNESS_RECORDING_STORE_H_

/**
 * @file
 * A benchmark-side ObjectStore decorator: forwards every call byte for
 * byte to the wrapped store, lets StoreError (or anything else) propagate
 * unchanged, counts Put/Get/Erase calls and their bytes, and — when the
 * recorder is enabled — records one span per Put/Get/Erase so the storage
 * layer's busy time and per-call latency come out of the traced run.
 *
 * Both checkpoint paths write through it: the facade as its
 * persist_backend, the cluster engine through its ObjectStore& constructor.
 */

#include <atomic>
#include <cstdint>

#include "harness/measure.h"
#include "storage/object_store.h"

namespace perfbench {

/** Call and byte counts seen by a RecordingStore. */
struct StoreCounts {
    std::uint64_t put_calls = 0;
    std::uint64_t put_bytes = 0;
    std::uint64_t get_calls = 0;
    std::uint64_t get_bytes = 0;
    std::uint64_t erase_calls = 0;

    StoreCounts operator-(const StoreCounts& o) const {
        return {put_calls - o.put_calls, put_bytes - o.put_bytes,
                get_calls - o.get_calls, get_bytes - o.get_bytes,
                erase_calls - o.erase_calls};
    }
    StoreCounts& operator+=(const StoreCounts& o) {
        put_calls += o.put_calls;
        put_bytes += o.put_bytes;
        get_calls += o.get_calls;
        get_bytes += o.get_bytes;
        erase_calls += o.erase_calls;
        return *this;
    }
};

class RecordingStore final : public moc::ObjectStore {
  public:
    /** @p inner and @p recorder must outlive the decorator. */
    RecordingStore(moc::ObjectStore& inner, SpanRecorder& recorder);

    void Put(const std::string& key, moc::Blob blob) override;
    std::optional<moc::Blob> Get(const std::string& key) const override;
    bool Contains(const std::string& key) const override;
    void Erase(const std::string& key) override;
    std::vector<std::string> Keys() const override;
    moc::Bytes TotalBytes() const override;
    std::size_t Count() const override;

    /** Counts since construction (calls that threw count as attempted). */
    StoreCounts counts() const;

  private:
    moc::ObjectStore& inner_;
    SpanRecorder& recorder_;
    std::atomic<std::uint64_t> put_calls_{0};
    std::atomic<std::uint64_t> put_bytes_{0};
    mutable std::atomic<std::uint64_t> get_calls_{0};
    mutable std::atomic<std::uint64_t> get_bytes_{0};
    std::atomic<std::uint64_t> erase_calls_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_RECORDING_STORE_H_
