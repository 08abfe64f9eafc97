#include "snode/graph_cache.h"

#include <algorithm>

namespace wg {

ShardedGraphCache::ShardedGraphCache(size_t num_shards, size_t budget_bytes)
    : shards_(std::max<size_t>(1, num_shards)), budget_(budget_bytes) {}

size_t ShardedGraphCache::budget() const {
  return budget_.load(std::memory_order_relaxed);
}

size_t ShardedGraphCache::shard_budget() const {
  return budget_.load(std::memory_order_relaxed) / shards_.size();
}

void ShardedGraphCache::set_budget(size_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    EvictToBudget(shard);
  }
}

size_t ShardedGraphCache::bytes_used() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.used;
  }
  return total;
}

void ShardedGraphCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, node] : shard.map) {
      if (node.entry.use_count() > 1) {
        shard.evicted_pinned.emplace_back(node.entry);
      }
    }
    shard.map.clear();
    shard.lru.clear();
    shard.used = 0;
  }
}

ShardedGraphCache::EntryPtr ShardedGraphCache::Lookup(uint32_t key) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  // Relinks the node in place: a hit frees and allocates nothing.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.entry;
}

ShardedGraphCache::Claim ShardedGraphCache::BeginLoad(uint32_t key) {
  Shard& shard = shard_of(key);
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return {ClaimKind::kHit, it->second.entry, Status::OK()};
    }
    auto fit = shard.flights.find(key);
    if (fit == shard.flights.end()) {
      shard.flights.emplace(key, std::make_shared<Flight>());
      return {ClaimKind::kOwner, nullptr, Status::OK()};
    }
    flight = fit->second;
  }
  // Another thread is decoding this graph: wait for its ticket instead of
  // duplicating the decode (singleflight).
  std::unique_lock<std::mutex> lock(flight->mu);
  flight->cv.wait(lock, [&] { return flight->done; });
  if (!flight->status.ok()) {
    return {ClaimKind::kFailed, nullptr, flight->status};
  }
  return {ClaimKind::kHit, flight->entry, Status::OK()};
}

std::vector<uint32_t> ShardedGraphCache::ClaimKeys(
    const std::vector<uint32_t>& keys) {
  std::vector<uint32_t> claimed;
  for (uint32_t key : keys) {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.find(key) != shard.map.end()) continue;
    if (shard.flights.find(key) != shard.flights.end()) continue;
    shard.flights.emplace(key, std::make_shared<Flight>());
    claimed.push_back(key);
  }
  return claimed;
}

std::shared_ptr<ShardedGraphCache::Flight> ShardedGraphCache::TakeFlight(
    Shard& shard, uint32_t key) {
  auto it = shard.flights.find(key);
  if (it == shard.flights.end()) return nullptr;
  auto flight = std::move(it->second);
  shard.flights.erase(it);
  return flight;
}

ShardedGraphCache::EntryPtr ShardedGraphCache::Publish(uint32_t key,
                                                       Entry&& entry) {
  auto shared = std::make_shared<const Entry>(std::move(entry));
  Shard& shard = shard_of(key);
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    flight = TakeFlight(shard, key);
    if (shard.map.find(key) == shard.map.end()) {
      shard.lru.push_front(key);
      shard.map.emplace(key, Node{shared, shard.lru.begin()});
      shard.used += shared->bytes;
      EvictToBudget(shard);
    }
  }
  if (flight) {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->entry = shared;
    flight->cv.notify_all();
  }
  return shared;
}

void ShardedGraphCache::Abort(uint32_t key, const Status& status) {
  Shard& shard = shard_of(key);
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    flight = TakeFlight(shard, key);
  }
  if (flight) {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->status = status.ok() ? Status::Internal("load aborted") : status;
    flight->cv.notify_all();
  }
}

void ShardedGraphCache::EvictToBudget(Shard& shard) {
  // Keep at least the most recent entry: an entry larger than the whole
  // shard slice would otherwise be evicted on every insert and the shard
  // would never serve a hit.
  const size_t limit = shard_budget();
  while (shard.used > limit && shard.lru.size() > 1) {
    uint32_t victim = shard.lru.back();
    shard.lru.pop_back();
    auto it = shard.map.find(victim);
    shard.used -= it->second.entry->bytes;
    // A reader (or a pinned LinkView) may still hold this entry; shared
    // ownership keeps its bytes alive past eviction, so remember it
    // weakly for PinnedEntries().
    if (it->second.entry.use_count() > 1) {
      shard.evicted_pinned.emplace_back(it->second.entry);
    }
    shard.map.erase(it);
  }
}

size_t ShardedGraphCache::PinnedEntries() const {
  size_t pinned = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Resident entries: the map itself holds one reference, so any extra
    // count is an outside pin.
    for (const auto& [key, node] : shard.map) {
      if (node.entry.use_count() > 1) ++pinned;
    }
    // Evicted-but-held entries: drop the expired trackers as we go.
    auto& evicted =
        const_cast<std::vector<std::weak_ptr<const Entry>>&>(
            shard.evicted_pinned);
    size_t live = 0;
    for (auto& weak : evicted) {
      if (!weak.expired()) {
        evicted[live++] = std::move(weak);
        ++pinned;
      }
    }
    evicted.resize(live);
  }
  return pinned;
}

}  // namespace wg
