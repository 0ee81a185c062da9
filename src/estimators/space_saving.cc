#include "estimators/space_saving.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace latest::estimators {

SpaceSavingCounter::SpaceSavingCounter(uint32_t capacity)
    : capacity_(capacity) {
  assert(capacity > 0);
  entries_.reserve(capacity);
}

uint32_t SpaceSavingCounter::MinKey() const {
  // Tie-break equal counts by the smaller key: eviction then depends only
  // on the counter *contents*, not on the hash table's iteration order, so
  // a counter rebuilt from a snapshot evicts identically to the original.
  double min_count = std::numeric_limits<double>::infinity();
  uint32_t min_key = std::numeric_limits<uint32_t>::max();
  for (const auto& [key, count] : entries_) {
    if (count < min_count || (count == min_count && key < min_key)) {
      min_count = count;
      min_key = key;
    }
  }
  return min_key;
}

void SpaceSavingCounter::Add(uint32_t key, double weight) {
  total_weight_ += weight;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    entries_.emplace(key, weight);
    return;
  }
  // Space-Saving eviction: the new key inherits the minimum counter.
  const uint32_t victim = MinKey();
  const double inherited = entries_[victim];
  entries_.erase(victim);
  entries_.emplace(key, inherited + weight);
}

double SpaceSavingCounter::Count(uint32_t key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? 0.0 : it->second;
}

bool SpaceSavingCounter::IsTracked(uint32_t key) const {
  return entries_.count(key) > 0;
}

double SpaceSavingCounter::TrackedTotal() const {
  // Sum in sorted-key order: floating-point addition is not associative,
  // so iteration-order summation would make the total depend on the hash
  // table's history rather than its contents.
  std::vector<std::pair<uint32_t, double>> sorted(entries_.begin(),
                                                  entries_.end());
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (const auto& [key, count] : sorted) {
    (void)key;
    total += count;
  }
  return total;
}

void SpaceSavingCounter::Decay(double factor, double prune_below) {
  total_weight_ *= factor;
  for (auto it = entries_.begin(); it != entries_.end();) {
    it->second *= factor;
    if (it->second < prune_below) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void SpaceSavingCounter::Clear() {
  entries_.clear();
  // Keep the table pre-sized for the fixed capacity so refilling after a
  // reset never rehashes.
  entries_.reserve(capacity_);
  total_weight_ = 0.0;
}

void SpaceSavingCounter::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(capacity_);
  writer->WriteDouble(total_weight_);
  std::vector<std::pair<uint32_t, double>> sorted(entries_.begin(),
                                                  entries_.end());
  std::sort(sorted.begin(), sorted.end());
  writer->WriteU64(sorted.size());
  for (const auto& [key, count] : sorted) {
    writer->WriteU32(key);
    writer->WriteDouble(count);
  }
}

bool SpaceSavingCounter::Load(util::BinaryReader* reader) {
  uint32_t capacity;
  double total_weight;
  uint64_t num_entries;
  if (!reader->ReadU32(&capacity) || !reader->ReadDouble(&total_weight) ||
      !reader->ReadU64(&num_entries)) {
    return false;
  }
  if (capacity != capacity_ || num_entries > capacity_) return false;
  Clear();
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint32_t key;
    double count;
    if (!reader->ReadU32(&key) || !reader->ReadDouble(&count)) {
      Clear();
      return false;
    }
    entries_.emplace(key, count);
  }
  total_weight_ = total_weight;
  return true;
}

SpaceSavingPool::SpaceSavingPool(uint32_t capacity) : capacity_(capacity) {
  assert(capacity > 0);
}

void SpaceSavingPool::Resize(uint32_t num_slots) {
  keys_.resize(static_cast<size_t>(num_slots) * capacity_);
  counts_.resize(keys_.size());
  sizes_.resize(num_slots, 0);
  totals_.resize(num_slots, 0.0);
}

void SpaceSavingPool::ClearSlot(uint32_t slot) {
  sizes_[slot] = 0;
  totals_[slot] = 0.0;
}

void SpaceSavingPool::Add(uint32_t slot, uint32_t key, double weight) {
  totals_[slot] += weight;
  uint32_t* keys = &keys_[Base(slot)];
  double* counts = &counts_[Base(slot)];
  uint32_t& n = sizes_[slot];
  uint32_t pos = 0;
  while (pos < n && keys[pos] < key) ++pos;
  if (pos < n && keys[pos] == key) {
    counts[pos] += weight;
    return;
  }
  double count = weight;
  if (n == capacity_) {
    // Space-Saving eviction: the new key inherits the minimum counter.
    // Keys are sorted, so the first minimum is the smallest key among
    // ties, matching SpaceSavingCounter::MinKey.
    uint32_t victim = 0;
    for (uint32_t i = 1; i < n; ++i) {
      if (counts[i] < counts[victim]) victim = i;
    }
    count = counts[victim] + weight;
    for (uint32_t i = victim; i + 1 < n; ++i) {
      keys[i] = keys[i + 1];
      counts[i] = counts[i + 1];
    }
    --n;
    if (victim < pos) --pos;
  }
  for (uint32_t i = n; i > pos; --i) {
    keys[i] = keys[i - 1];
    counts[i] = counts[i - 1];
  }
  keys[pos] = key;
  counts[pos] = count;
  ++n;
}

void SpaceSavingPool::Decay(uint32_t slot, double factor,
                            double prune_below) {
  totals_[slot] *= factor;
  uint32_t* keys = &keys_[Base(slot)];
  double* counts = &counts_[Base(slot)];
  uint32_t kept = 0;
  for (uint32_t i = 0; i < sizes_[slot]; ++i) {
    const double count = counts[i] * factor;
    if (count < prune_below) continue;
    keys[kept] = keys[i];
    counts[kept] = count;
    ++kept;
  }
  sizes_[slot] = kept;
}

void SpaceSavingPool::Save(uint32_t slot, util::BinaryWriter* writer) const {
  writer->WriteU32(capacity_);
  writer->WriteDouble(totals_[slot]);
  writer->WriteU64(sizes_[slot]);
  for (uint32_t i = 0; i < sizes_[slot]; ++i) {
    writer->WriteU32(keys_[Base(slot) + i]);
    writer->WriteDouble(counts_[Base(slot) + i]);
  }
}

bool SpaceSavingPool::Load(uint32_t slot, util::BinaryReader* reader) {
  ClearSlot(slot);
  uint32_t capacity;
  double total_weight;
  uint64_t num_entries;
  if (!reader->ReadU32(&capacity) || !reader->ReadDouble(&total_weight) ||
      !reader->ReadU64(&num_entries) || capacity != capacity_ ||
      num_entries > capacity_) {
    return false;
  }
  uint32_t* keys = &keys_[Base(slot)];
  double* counts = &counts_[Base(slot)];
  for (uint32_t i = 0; i < num_entries; ++i) {
    if (!reader->ReadU32(&keys[i]) || !reader->ReadDouble(&counts[i]) ||
        (i > 0 && keys[i] <= keys[i - 1])) {
      return false;
    }
  }
  sizes_[slot] = static_cast<uint32_t>(num_entries);
  totals_[slot] = total_weight;
  return true;
}

size_t SpaceSavingPool::MemoryBytes() const {
  return keys_.capacity() * sizeof(uint32_t) +
         counts_.capacity() * sizeof(double) +
         sizes_.capacity() * sizeof(uint32_t) +
         totals_.capacity() * sizeof(double);
}

}  // namespace latest::estimators
