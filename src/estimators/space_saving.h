// Space-Saving heavy-hitter counter (Metwally et al., ICDT 2005) with
// optional exponential decay for sliding-window approximation.
//
// AASP tree nodes and the FFN keyword-popularity feature both need
// bounded-size per-keyword frequency counters over the window (the AASP
// nodes through SpaceSavingPool below). Space-
// Saving tracks the (approximately) most frequent keywords in a fixed
// number of counters; multiplying all counters by (num_slices-1)/num_slices
// on each slice rotation geometrically forgets expired history.

#ifndef LATEST_ESTIMATORS_SPACE_SAVING_H_
#define LATEST_ESTIMATORS_SPACE_SAVING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/serialization.h"

namespace latest::estimators {

/// Fixed-capacity approximate frequency counter over 32-bit keys.
class SpaceSavingCounter {
 public:
  /// capacity: maximum tracked keys (> 0).
  explicit SpaceSavingCounter(uint32_t capacity);

  /// Records one occurrence of `key`.
  void Add(uint32_t key, double weight = 1.0);

  /// Estimated count of `key`; 0 when untracked. (Space-Saving counts are
  /// overestimates for tracked keys, by at most the minimum counter.)
  double Count(uint32_t key) const;

  /// True iff the key currently owns a counter.
  bool IsTracked(uint32_t key) const;

  /// Sum of all counter values (upper bound on total tracked weight).
  double TrackedTotal() const;

  /// Total weight ever added (decayed alongside the counters).
  double total_weight() const { return total_weight_; }

  /// Number of occupied counters.
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

  uint32_t capacity() const { return capacity_; }

  /// Multiplies every counter (and the running total) by `factor`;
  /// counters decayed below `prune_below` are dropped.
  void Decay(double factor, double prune_below = 1e-3);

  /// Applies fn(key, count) to every tracked key.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, count] : entries_) fn(key, count);
  }

  void Clear();

  /// Persists the counters in sorted-key order plus the running total.
  void Save(util::BinaryWriter* writer) const;

  /// Restores a state persisted by Save; the capacity must match. False
  /// on mismatch or truncation (the counter is left cleared).
  bool Load(util::BinaryReader* reader);

 private:
  /// Key of the minimum counter (linear scan; capacity is small),
  /// tie-broken by the smaller key so eviction is content-deterministic.
  uint32_t MinKey() const;

  uint32_t capacity_;
  std::unordered_map<uint32_t, double> entries_;
  double total_weight_ = 0.0;
};

/// Many small Space-Saving counters of one capacity, stored inline in
/// shared arrays: slot s owns entries [s * capacity, (s + 1) * capacity)
/// of the key and count arrays, kept sorted by key. Each slot behaves
/// exactly like a SpaceSavingCounter of the same capacity (same eviction
/// and tie-break, same decay and pruning, same Save bytes) but costs no
/// allocation or hashing per counter, which is what a tree of thousands of
/// 4-key counters needs. Large counters (hundreds of live keys) stay with
/// SpaceSavingCounter, whose hash lookup wins there.
class SpaceSavingPool {
 public:
  /// capacity: maximum tracked keys per slot (> 0).
  explicit SpaceSavingPool(uint32_t capacity);

  /// Grows or shrinks the pool; added slots are empty.
  void Resize(uint32_t num_slots);

  /// Empties one slot.
  void ClearSlot(uint32_t slot);

  /// Records one occurrence of `key` in `slot`.
  void Add(uint32_t slot, uint32_t key, double weight = 1.0);

  /// The key's counter in `slot`, or null when untracked.
  const double* Find(uint32_t slot, uint32_t key) const {
    const uint32_t* keys = &keys_[Base(slot)];
    const uint32_t n = sizes_[slot];
    for (uint32_t i = 0; i < n; ++i) {
      if (keys[i] == key) return &counts_[Base(slot) + i];
    }
    return nullptr;
  }

  /// Estimated count of `key` in `slot`; 0 when untracked. Branch-free
  /// over the occupied entries (keys are unique, so at most one matches).
  double Count(uint32_t slot, uint32_t key) const {
    const uint32_t* keys = &keys_[Base(slot)];
    const double* counts = &counts_[Base(slot)];
    double count = 0.0;
    for (uint32_t i = 0; i < sizes_[slot]; ++i) {
      count = keys[i] == key ? counts[i] : count;
    }
    return count;
  }

  /// Number of occupied counters in `slot`.
  uint32_t size(uint32_t slot) const { return sizes_[slot]; }

  /// Total weight ever added to `slot` (decayed alongside its counters).
  double total_weight(uint32_t slot) const { return totals_[slot]; }

  /// SpaceSavingCounter::Decay on one slot.
  void Decay(uint32_t slot, double factor, double prune_below = 1e-3);

  /// Writes `slot` in SpaceSavingCounter::Save's format.
  void Save(uint32_t slot, util::BinaryWriter* writer) const;

  /// Restores a slot persisted by Save (or by a SpaceSavingCounter of the
  /// same capacity). False on capacity mismatch, more entries than the
  /// capacity, keys not strictly ascending, or truncation; the slot is
  /// then left empty.
  bool Load(uint32_t slot, util::BinaryReader* reader);

  /// Bytes held by the pooled arrays.
  size_t MemoryBytes() const;

 private:
  size_t Base(uint32_t slot) const {
    return static_cast<size_t>(slot) * capacity_;
  }

  uint32_t capacity_;
  std::vector<uint32_t> keys_;   // num_slots x capacity, sorted per slot.
  std::vector<double> counts_;   // Parallel to keys_.
  std::vector<uint32_t> sizes_;  // Occupied entries per slot.
  std::vector<double> totals_;   // Decayed total weight per slot.
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_SPACE_SAVING_H_
