/// @file
/// Persisted tuning decisions (`hymm-tune-cache/3` JSON; spec in
/// docs/schemas.md). A cache file maps (graph fingerprint, config
/// hash, mode) to the tuned threshold, so a second `--autotune`
/// invocation on the same workload skips the candidate search
/// entirely — for measured mode that means zero simulations.
///
/// Invalidation is structural, not temporal: a key is the exact
/// identity of the tuned question, so any change to the graph or the
/// timing-relevant config produces a different key and simply misses.
/// Unreadable files, wrong schema strings and malformed entries are
/// ignored (treated as empty), never fatal — a stale cache must not
/// be able to break a run.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace hymm {

/// One persisted decision.
struct TuneCacheEntry {
  std::uint64_t graph_fingerprint = 0;  ///< fingerprint of the sorted A_hat
  std::uint64_t config_hash = 0;        ///< tuning_config_hash() digest
  std::string mode;                     ///< "analytic" | "measured"
  double threshold = 0.0;               ///< the tuned tiling threshold
  double cycles = 0.0;     ///< winning cycles (measured) or estimate
  std::string dataset;     ///< informational label, not part of the key
};

/// Thread-safe load/lookup/insert over one cache file. All methods
/// are safe to call concurrently from sweep workers.
class TuneCache {
 public:
  /// Schema identifier written to and required from cache files.
  /// Files declaring the retired /1 or /2 schemas are treated as empty
  /// (structural invalidation — a miss, never an error).
  static constexpr const char* kSchema = "hymm-tune-cache/3";

  /// Binds the cache to `path` and loads whatever valid entries the
  /// file holds. An empty path makes the cache memory-only (nothing
  /// is ever written to disk).
  explicit TuneCache(std::string path = {});

  /// Finds the decision for an exact (fingerprint, config, mode) key.
  std::optional<TuneCacheEntry> lookup(std::uint64_t graph_fingerprint,
                                       std::uint64_t config_hash,
                                       const std::string& mode) const;

  /// Inserts or replaces the entry with the same key and, when the
  /// cache is file-backed, rewrites the file.
  void insert(const TuneCacheEntry& entry);

  /// Number of valid entries currently held.
  std::size_t size() const;

  const std::string& path() const { return path_; }  ///< bound file; empty = memory-only

  /// Serializes the current entries as a `hymm-tune-cache/3`
  /// document (exposed for tests; insert() calls it internally).
  std::string to_json() const;

 private:
  void load_locked();
  void save_locked() const;

  std::string path_;
  mutable std::mutex mutex_;
  std::vector<TuneCacheEntry> entries_;
};

}  // namespace hymm
