#include "engine/ortho_cache.hpp"

#include <limits>

#include "core/cancel.hpp"
#include "obs/metrics.hpp"

namespace mlvl::engine {

std::size_t approx_layout_bytes(const Orthogonal2Layer& o) {
  std::size_t b = sizeof(Orthogonal2Layer);
  // Graph: edge list plus the lazily built CSR adjacency (two spans per
  // node-side). Counting both directions of the CSR is deliberate — the
  // engine touches neighbors(), so the index is typically materialized.
  b += o.graph.num_edges() * (sizeof(NodeId) * 2);          // edge records
  b += o.graph.num_edges() * 2 * (sizeof(NodeId) + sizeof(EdgeId));  // CSR
  b += o.graph.num_nodes() * 2 * sizeof(std::uint32_t);     // CSR offsets
  b += o.place.row_of.size() * sizeof(std::uint32_t);
  b += o.place.col_of.size() * sizeof(std::uint32_t);
  b += o.kind.size() * sizeof(EdgeKind);
  b += o.track.size() * sizeof(std::uint32_t);
  b += o.row_tracks.size() * sizeof(std::uint32_t);
  b += o.col_tracks.size() * sizeof(std::uint32_t);
  b += o.extras.size() * sizeof(ExtraRoute);
  return b;
}

OrthoCache::Shard& OrthoCache::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

OrthoCache::Ptr OrthoCache::get_or_build(
    const std::string& key, const std::function<Orthogonal2Layer()>& build,
    bool* hit) {
  Shard& sh = shard_for(key);
  std::shared_future<Ptr> fut;
  std::promise<Ptr> mine;
  bool builder = false;
  {
    MutexLock lock(&sh.mu);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      it->second.tick = ++tick_;  // LRU touch
      fut = it->second.fut;
    } else {
      fut = mine.get_future().share();
      Entry e;
      e.fut = fut;
      e.tick = ++tick_;
      sh.map.emplace(key, std::move(e));
      entries_.fetch_add(1, std::memory_order_relaxed);
      builder = true;
    }
  }
  if (hit != nullptr) *hit = !builder;
  if (!builder) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    try {
      return fut.get();  // blocks until the builder finishes
    } catch (const CancelledError&) {
      // The build we waited on was cancelled by its builder's budget, and
      // the builder erased the entry before publishing the error. Only a
      // caller whose own budget has tripped inherits the cancellation;
      // anyone else looks the key up again.
      const CancelToken* own = current_cancel_token();
      if (own != nullptr && own->tripped()) throw;
    }
    return get_or_build(key, build, hit);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  try {
    Ptr built = std::make_shared<const Orthogonal2Layer>(build());
    const std::size_t entry_bytes = key.size() + approx_layout_bytes(*built);
    {
      MutexLock lock(&sh.mu);
      auto it = sh.map.find(key);
      if (it != sh.map.end()) {  // absent only if clear() raced the build
        it->second.built = true;
        it->second.bytes = entry_bytes;
        bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
      }
    }
    mine.set_value(std::move(built));
    enforce_capacity(key);
    publish_gauges();
  } catch (const CancelledError&) {
    // Cancellation is not a property of the spec: erase the entry so a
    // later job (or a co-waiter with budget left) rebuilds instead of
    // inheriting the error.
    erase_entry(key);
    mine.set_exception(std::current_exception());
  } catch (...) {
    // Deterministic failures stay as poisoned entries so every job sharing
    // the spec fails identically.
    {
      MutexLock lock(&sh.mu);
      auto it = sh.map.find(key);
      if (it != sh.map.end()) {
        it->second.built = true;
        it->second.bytes = key.size();
        bytes_.fetch_add(key.size(), std::memory_order_relaxed);
      }
    }
    mine.set_exception(std::current_exception());
  }
  return fut.get();
}

void OrthoCache::erase_entry(const std::string& key) {
  Shard& sh = shard_for(key);
  MutexLock lock(&sh.mu);
  auto it = sh.map.find(key);
  if (it == sh.map.end()) return;
  bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  sh.map.erase(it);
  entries_.fetch_sub(1, std::memory_order_relaxed);
}

void OrthoCache::enforce_capacity(const std::string& protected_key) {
  std::size_t max_entries;
  {
    MutexLock lock(&cfg_mu_);
    max_entries = max_entries_;
  }
  if (max_entries == 0) return;

  while (entries_.load(std::memory_order_relaxed) > max_entries) {
    // Exact LRU victim: smallest recency tick over all built entries. The
    // scan locks one shard at a time (bounded by the entry capacity) and
    // only runs on the eviction path — hits never pay for it.
    std::string victim;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    std::size_t victim_shard = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      Shard& sh = shards_[s];
      MutexLock lock(&sh.mu);
      for (const auto& [k, e] : sh.map) {
        if (!e.built || k == protected_key) continue;  // never in-flight/self
        if (e.tick < oldest) {
          oldest = e.tick;
          victim = k;
          victim_shard = s;
        }
      }
    }
    if (victim.empty()) return;  // nothing evictable yet
    bool erased = false;
    {
      Shard& sh = shards_[victim_shard];
      MutexLock lock(&sh.mu);
      auto it = sh.map.find(victim);
      if (it != sh.map.end() && it->second.built) {
        bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
        sh.map.erase(it);
        entries_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        erased = true;
      }
    }
    // Registry tick outside the shard lock: locks stay leaves (§7.10).
    if (erased) obs::counter_add("engine.cache.evicted");
  }
}

void OrthoCache::publish_gauges() const {
  obs::gauge_set("engine.cache.size",
                 static_cast<double>(entries_.load(std::memory_order_relaxed)));
  obs::gauge_set("engine.cache.bytes",
                 static_cast<double>(bytes_.load(std::memory_order_relaxed)));
}

void OrthoCache::set_capacity(std::size_t max_entries) {
  {
    MutexLock lock(&cfg_mu_);
    max_entries_ = max_entries;
  }
  enforce_capacity({});
  publish_gauges();
}

std::size_t OrthoCache::capacity() const {
  MutexLock lock(&cfg_mu_);
  return max_entries_;
}

std::size_t OrthoCache::size() const {
  return entries_.load(std::memory_order_relaxed);
}

std::size_t OrthoCache::approx_bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

CacheStats OrthoCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

void OrthoCache::clear() {
  for (Shard& sh : shards_) {
    MutexLock lock(&sh.mu);
    sh.map.clear();
  }
  entries_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  publish_gauges();
}

}  // namespace mlvl::engine
