#include "storage/memory_store.h"

#include <mutex>

#include "util/logging.h"

namespace moc {

void
MemoryStore::Put(const std::string& key, Blob blob) {
    std::lock_guard lock(mu_);
    auto it = data_.find(key);
    if (it != data_.end()) {
        total_bytes_ -= it->second.size();
        it->second = std::move(blob);
        total_bytes_ += it->second.size();
        return;
    }
    total_bytes_ += blob.size();
    data_.emplace(key, std::move(blob));
}

std::optional<Blob>
MemoryStore::Get(const std::string& key) const {
    std::shared_lock lock(mu_);
    auto it = data_.find(key);
    if (it == data_.end()) {
        return std::nullopt;
    }
    return it->second;
}

bool
MemoryStore::Read(const std::string& key,
                  const std::function<void(const Blob&)>& fn) const {
    std::shared_lock lock(mu_);
    auto it = data_.find(key);
    if (it == data_.end()) {
        return false;
    }
    fn(it->second);
    return true;
}

bool
MemoryStore::Contains(const std::string& key) const {
    std::shared_lock lock(mu_);
    return data_.count(key) > 0;
}

void
MemoryStore::Erase(const std::string& key) {
    std::lock_guard lock(mu_);
    auto it = data_.find(key);
    if (it != data_.end()) {
        total_bytes_ -= it->second.size();
        data_.erase(it);
    }
}

std::vector<std::string>
MemoryStore::Keys() const {
    std::shared_lock lock(mu_);
    std::vector<std::string> keys;
    keys.reserve(data_.size());
    for (const auto& [key, blob] : data_) {
        keys.push_back(key);
    }
    return keys;
}

Bytes
MemoryStore::TotalBytes() const {
    std::shared_lock lock(mu_);
    return total_bytes_;
}

std::size_t
MemoryStore::Count() const {
    std::shared_lock lock(mu_);
    return data_.size();
}

void
MemoryStore::Clear() {
    std::lock_guard lock(mu_);
    data_.clear();
    total_bytes_ = 0;
}

NodeMemoryPool::NodeMemoryPool(std::size_t num_nodes) : failed_(num_nodes, false) {
    MOC_CHECK_ARG(num_nodes >= 1, "need at least one node");
    stores_.reserve(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) {
        stores_.push_back(std::make_unique<MemoryStore>());
    }
}

MemoryStore&
NodeMemoryPool::Node(NodeId node) {
    MOC_CHECK_ARG(node < stores_.size(), "node out of range");
    return *stores_[node];
}

const MemoryStore&
NodeMemoryPool::Node(NodeId node) const {
    MOC_CHECK_ARG(node < stores_.size(), "node out of range");
    return *stores_[node];
}

void
NodeMemoryPool::FailNode(NodeId node) {
    MOC_CHECK_ARG(node < stores_.size(), "node out of range");
    stores_[node]->Clear();
    failed_[node] = true;
}

bool
NodeMemoryPool::IsFailed(NodeId node) const {
    MOC_CHECK_ARG(node < stores_.size(), "node out of range");
    return failed_[node];
}

void
NodeMemoryPool::RestartNode(NodeId node) {
    MOC_CHECK_ARG(node < stores_.size(), "node out of range");
    stores_[node]->Clear();
    failed_[node] = false;
}

Bytes
NodeMemoryPool::TotalBytes() const {
    Bytes total = 0;
    for (const auto& store : stores_) {
        total += store->TotalBytes();
    }
    return total;
}

}  // namespace moc
