#ifndef MOC_STORAGE_MEMORY_STORE_H_
#define MOC_STORAGE_MEMORY_STORE_H_

/**
 * @file
 * Per-node CPU-memory object stores with node-failure semantics: the
 * "snapshot" level of the two-level checkpoint hierarchy. A node failure
 * wipes that node's store — exactly the event two-level recovery must
 * tolerate (Section 5.1).
 */

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>

#include "dist/topology.h"
#include "storage/object_store.h"

namespace moc {

/**
 * A thread-safe in-memory key-value store (one node's CPU memory). Reads
 * share the lock, so concurrent Gets (the persist workers' read-back
 * verify) copy their blobs out in parallel; writes take it exclusively.
 */
class MemoryStore final : public ObjectStore {
  public:
    MemoryStore() = default;

    void Put(const std::string& key, Blob blob) override;
    std::optional<Blob> Get(const std::string& key) const override;
    bool Contains(const std::string& key) const override;
    void Erase(const std::string& key) override;
    std::vector<std::string> Keys() const override;
    Bytes TotalBytes() const override;
    std::size_t Count() const override;

    /**
     * Calls @p fn on the stored blob of @p key without copying it, under
     * the shared lock, so @p fn must not write to this store.
     * @return false (and @p fn is not called) when @p key is absent.
     */
    bool Read(const std::string& key,
              const std::function<void(const Blob&)>& fn) const;

    /** Drops every key (node failure / restart). */
    void Clear();

  private:
    mutable std::shared_mutex mu_;
    std::map<std::string, Blob> data_;
    Bytes total_bytes_ = 0;
};

/**
 * The cluster's CPU memories: one MemoryStore per node, with fail/restore
 * semantics for fault injection.
 */
class NodeMemoryPool {
  public:
    explicit NodeMemoryPool(std::size_t num_nodes);

    std::size_t num_nodes() const { return stores_.size(); }

    /** The store of @p node. */
    MemoryStore& Node(NodeId node);
    const MemoryStore& Node(NodeId node) const;

    /** Simulates a crash of @p node: its memory contents are lost. */
    void FailNode(NodeId node);

    /** True if @p node has been failed and not yet restarted. */
    bool IsFailed(NodeId node) const;

    /** Brings @p node back (with empty memory). */
    void RestartNode(NodeId node);

    /** Sum of memory usage across nodes. */
    Bytes TotalBytes() const;

  private:
    std::vector<std::unique_ptr<MemoryStore>> stores_;
    std::vector<bool> failed_;
};

}  // namespace moc

#endif  // MOC_STORAGE_MEMORY_STORE_H_
