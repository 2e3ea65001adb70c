#ifndef MOC_STORAGE_FAULTY_STORE_H_
#define MOC_STORAGE_FAULTY_STORE_H_

/**
 * @file
 * Seeded storage-fault injection: an ObjectStore decorator that damages the
 * I/O path the way real checkpoint backends fail (docs/FAULT_MODEL.md) —
 * transient errors, latency spikes, torn/truncated writes, silent bit rot,
 * and writes that report success but never land. Every decision flows from
 * one seeded Rng so a faulty run replays exactly from its seed.
 *
 * The decorator stays inert until a StorageFaultProfile is armed, so a
 * training loop can scope faults to an iteration window via
 * StorageFaultSchedule (src/faults/storage_faults.h).
 */

#include <cstdint>
#include <mutex>
#include <string>

#include "storage/object_store.h"
#include "storage/store_error.h"
#include "util/clock.h"
#include "util/rng.h"

namespace moc {

/**
 * Per-operation fault probabilities (each in [0, 1], checked on Arm).
 * Silent faults (torn_write, bit_flip, lost_write) report success to the
 * writer and are only observable on a later read; loud faults throw
 * StoreError at the call site.
 */
struct StorageFaultProfile {
    /** Put throws StoreError{kTransient} (write failed loudly). */
    double put_transient_error = 0.0;
    /** Get throws StoreError{kTransient} (read failed loudly). */
    double get_transient_error = 0.0;
    /** Put silently stores a truncated blob (torn write / partial save). */
    double torn_write = 0.0;
    /** Put silently stores the blob with one random bit flipped (bit rot). */
    double bit_flip = 0.0;
    /** Put silently stores nothing; the old version (if any) survives. */
    double lost_write = 0.0;
    /** Get returns a copy with one random bit flipped (store intact). */
    double read_corrupt = 0.0;
    /** Either op first sleeps latency_spike_seconds (checkpoint stall). */
    double latency_spike = 0.0;
    Seconds latency_spike_seconds = 0.0;

    /** True if any probability is positive. */
    bool Active() const;
};

/** Count of injected faults per class, for assertions and reports. */
struct InjectedFaultCounts {
    std::uint64_t transient_errors = 0;
    std::uint64_t torn_writes = 0;
    std::uint64_t bit_flips = 0;
    std::uint64_t lost_writes = 0;
    std::uint64_t corrupt_reads = 0;
    std::uint64_t latency_spikes = 0;

    std::uint64_t Total() const {
        return transient_errors + torn_writes + bit_flips + lost_writes +
               corrupt_reads + latency_spikes;
    }
};

/**
 * Fault-injecting decorator over any ObjectStore. Thread-safe (the base
 * store guarantees its own safety; the injector's Rng and counters are
 * mutex-protected).
 *
 * Metadata operations (Contains/Erase/Keys/...) pass through unfaulted:
 * the modelled failure domain is the blob data path.
 *
 * Replay holds per operation sequence, not per run: every Put/Get draws
 * from the one Rng in call order. With concurrent callers (the persist
 * pipeline's workers) the thread interleaving decides which operation
 * draws which fault, so one seed can hit different keys from run to run.
 * Assert on outcomes (every key verified, degraded or damaged), not on
 * which key a fault landed on.
 */
class FaultyStore final : public ObjectStore {
  public:
    FaultyStore(ObjectStore& base, std::uint64_t seed);

    /** Starts injecting per @p profile. @throws std::invalid_argument. */
    void Arm(const StorageFaultProfile& profile);

    /** Stops injecting; the store becomes a transparent pass-through. */
    void Disarm();

    bool armed() const;

    /** Faults injected since construction. */
    InjectedFaultCounts injected() const;

    void Put(const std::string& key, Blob blob) override;
    std::optional<Blob> Get(const std::string& key) const override;
    bool Contains(const std::string& key) const override;
    void Erase(const std::string& key) override;
    std::vector<std::string> Keys() const override;
    Bytes TotalBytes() const override;
    std::size_t Count() const override;

  private:
    /** Draws one uniform; returns true with probability @p p. */
    bool Roll(double p) const;
    void MaybeLatencySpike(const char* op) const;

    ObjectStore& base_;
    mutable std::mutex mu_;
    mutable Rng rng_;
    StorageFaultProfile profile_;
    bool armed_ = false;
    mutable InjectedFaultCounts injected_;
};

}  // namespace moc

#endif  // MOC_STORAGE_FAULTY_STORE_H_
