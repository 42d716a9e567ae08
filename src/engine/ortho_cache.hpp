// Concurrent, capacity-bounded, build-once cache of orthogonal layouts,
// keyed by canonical family-spec text.
//
// The expensive half of a layout job — topology generation, collinear
// factors, placement, interval/track assignment — depends only on the family
// spec, not on the layer count, so a sweep of one topology over many L
// should build the `Orthogonal2Layer` exactly once. `get_or_build` guarantees
// that under concurrency: the first caller for a key becomes the builder,
// every other caller blocks on a shared future of the same result. A build
// that throws a *deterministic* error poisons its entry (all waiters see the
// same exception, keeping failures deterministic per spec); a build that is
// cancelled (CancelledError) erases its entry instead, so one job's deadline
// never poisons the spec for every later job. A co-waiter whose own budget
// is intact does not inherit that cancellation: it looks the key up again
// and builds (or waits on) a fresh entry.
//
// Capacity and eviction: `set_capacity(entries)` arms one hard LRU bound
// (0 = unbounded). When an insert pushes the cache past it, the
// least-recently-used *built* entry is evicted (in-flight builds and the
// entry just inserted are never victims). Recency is a global monotonic tick
// stamped on every hit, so LRU order is exact even though the map is sharded.
// The key space is split over `kShards` independently locked shards, so a
// hit — the hot path of a million-request sweep — takes one shard lock, and
// eviction bookkeeping never serializes the worker pool behind a single
// mutex. Victim selection scans the shards (bounded by the entry capacity,
// and only on the eviction path).
//
// Observability: hits, misses and evictions are counted both internally
// (`stats()`) and on the obs registry (`engine.cache.evicted`); every
// successful build or eviction updates the `engine.cache.size` and
// `engine.cache.bytes` gauges. Bytes are telemetry (`approx_layout_bytes`),
// not a bound.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/orthogonal.hpp"
#include "core/thread_annotations.hpp"

namespace mlvl::engine {

/// Approximate heap footprint of one cached layout (graph, placement,
/// per-edge classification/track arrays, band track counts, extras).
[[nodiscard]] std::size_t approx_layout_bytes(const Orthogonal2Layer& o);

/// Monotonic cache telemetry (totals since construction or clear()).
///
/// Snapshot semantic: every field is maintained as a relaxed atomic and
/// `OrthoCache::stats()` reads them with one relaxed load each — no lock, no
/// fence. The contract this buys:
///  * each counter individually is exact and monotone non-decreasing between
///    clear() calls (relaxed RMWs never lose increments);
///  * *cross*-field invariants (hits + misses == lookups, bytes matching
///    entries) only hold once concurrent callers have quiesced — a snapshot
///    taken mid-flight may see a lookup whose hit tick has landed while its
///    entry count has not;
///  * two snapshots taken from one thread are ordered: no field ever
///    decreases between them (tested under contention in test_threading).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

class OrthoCache {
 public:
  using Ptr = std::shared_ptr<const Orthogonal2Layer>;

  /// Returns the layout for `key`, invoking `build` at most once per key
  /// across all threads. `*hit` (optional) is false only for the caller that
  /// actually built. Rethrows the builder's exception for every co-waiter,
  /// except a CancelledError when the caller's own installed CancelToken has
  /// not tripped: that caller looks the key up again instead.
  Ptr get_or_build(const std::string& key,
                   const std::function<Orthogonal2Layer()>& build,
                   bool* hit = nullptr);

  /// Hard LRU bound in entries; 0 = unbounded (the default). Safe to call
  /// between batches; an over-capacity cache shrinks immediately.
  void set_capacity(std::size_t max_entries) MLVL_EXCLUDES(cfg_mu_);
  [[nodiscard]] std::size_t capacity() const MLVL_EXCLUDES(cfg_mu_);

  [[nodiscard]] std::size_t size() const;
  /// Approximate bytes held by all successfully built entries.
  [[nodiscard]] std::size_t approx_bytes() const;
  [[nodiscard]] CacheStats stats() const;
  void clear();

 private:
  // Lock order (see DESIGN.md §7.10): shard mutexes and cfg_mu_ are all
  // leaves — at most one is ever held at a time. The eviction scan locks
  // shards one at a time, never two together, so shard locks need no
  // relative order; cfg_mu_ is read before the scan and released.
  struct Entry {
    std::shared_future<Ptr> fut;
    std::size_t bytes = 0;      ///< key + layout footprint once built
    bool built = false;         ///< future is ready (value or poison)
    std::uint64_t tick = 0;     ///< global recency stamp (larger = newer)
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, Entry> map MLVL_GUARDED_BY(mu);
  };
  static constexpr std::size_t kShards = 8;

  Shard& shard_for(const std::string& key);
  /// Drop the entry for a cancelled build.
  void erase_entry(const std::string& key);
  void enforce_capacity(const std::string& protected_key)
      MLVL_EXCLUDES(cfg_mu_);
  void publish_gauges() const;

  std::array<Shard, kShards> shards_;

  // Statistics and the LRU clock: relaxed atomics. entries_/bytes_ are
  // mutated only by a thread that also holds the owning entry's shard lock,
  // so they track the sharded map exactly once that lock is released; the
  // relaxed orders are safe because no other data is published through them
  // (layout results travel through the Entry's shared_future, which carries
  // its own synchronization). tick_ only needs uniqueness + monotonicity for
  // LRU ordering, which a relaxed fetch_add provides.
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> tick_{0};

  mutable Mutex cfg_mu_;  ///< guards the capacity bound
  std::size_t max_entries_ MLVL_GUARDED_BY(cfg_mu_) = 0;  ///< 0 = unbounded
};

}  // namespace mlvl::engine
