// Tests for the KMV distinct-value synopsis and the Space-Saving counters
// (the hash-map counter and the pooled inline one).

#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "estimators/kmv_synopsis.h"
#include "estimators/space_saving.h"
#include "util/rng.h"

namespace latest::estimators {
namespace {

// --------------------------------------------------------------------
// KmvSynopsis

TEST(KmvTest, ExactBelowK) {
  KmvSynopsis kmv(64, 1);
  for (uint64_t e = 0; e < 40; ++e) kmv.Add(e);
  EXPECT_DOUBLE_EQ(kmv.EstimateDistinct(), 40.0);
}

TEST(KmvTest, DuplicatesDoNotInflate) {
  KmvSynopsis kmv(64, 1);
  for (int rep = 0; rep < 100; ++rep) {
    for (uint64_t e = 0; e < 10; ++e) kmv.Add(e);
  }
  EXPECT_DOUBLE_EQ(kmv.EstimateDistinct(), 10.0);
}

TEST(KmvTest, EstimatesLargeCardinality) {
  KmvSynopsis kmv(256, 7);
  constexpr uint64_t kDistinct = 50000;
  for (uint64_t e = 0; e < kDistinct; ++e) kmv.Add(e);
  const double est = kmv.EstimateDistinct();
  // KMV standard error ~ 1/sqrt(k-2) ~ 6%; allow 20%.
  EXPECT_NEAR(est, static_cast<double>(kDistinct), 0.20 * kDistinct);
}

TEST(KmvTest, MergeEqualsUnion) {
  KmvSynopsis a(128, 3);
  KmvSynopsis b(128, 3);
  KmvSynopsis all(128, 3);
  for (uint64_t e = 0; e < 5000; ++e) {
    if (e % 2 == 0) a.Add(e);
    if (e % 3 == 0) b.Add(e);
    if (e % 2 == 0 || e % 3 == 0) all.Add(e);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.EstimateDistinct(), all.EstimateDistinct());
}

TEST(KmvTest, MergeWithOverlapDoesNotDoubleCount) {
  KmvSynopsis a(64, 3);
  KmvSynopsis b(64, 3);
  for (uint64_t e = 0; e < 30; ++e) {
    a.Add(e);
    b.Add(e);  // Identical contents.
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.EstimateDistinct(), 30.0);
}

TEST(KmvTest, ClearEmpties) {
  KmvSynopsis kmv(16, 5);
  for (uint64_t e = 0; e < 100; ++e) kmv.Add(e);
  kmv.Clear();
  EXPECT_EQ(kmv.size(), 0u);
  EXPECT_DOUBLE_EQ(kmv.EstimateDistinct(), 0.0);
}

TEST(KmvTest, SizeCapsAtK) {
  KmvSynopsis kmv(16, 5);
  for (uint64_t e = 0; e < 1000; ++e) kmv.Add(e);
  EXPECT_EQ(kmv.size(), 16u);
}

// Property sweep over k: estimate within tolerance for several sizes.
class KmvSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KmvSizeTest, EstimateWithinStatisticalBand) {
  const uint32_t k = GetParam();
  KmvSynopsis kmv(k, 11);
  constexpr uint64_t kDistinct = 20000;
  for (uint64_t e = 0; e < kDistinct; ++e) kmv.Add(e * 977 + 13);
  const double est = kmv.EstimateDistinct();
  const double tolerance = 5.0 / std::sqrt(static_cast<double>(k));
  EXPECT_NEAR(est / kDistinct, 1.0, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Ks, KmvSizeTest,
                         ::testing::Values(32u, 64u, 128u, 256u, 512u));

// --------------------------------------------------------------------
// SpaceSavingCounter

TEST(SpaceSavingTest, ExactBelowCapacity) {
  SpaceSavingCounter counter(10);
  for (int i = 0; i < 5; ++i) counter.Add(1);
  for (int i = 0; i < 3; ++i) counter.Add(2);
  EXPECT_DOUBLE_EQ(counter.Count(1), 5.0);
  EXPECT_DOUBLE_EQ(counter.Count(2), 3.0);
  EXPECT_DOUBLE_EQ(counter.Count(99), 0.0);
  EXPECT_EQ(counter.size(), 2u);
}

TEST(SpaceSavingTest, NeverUndercountsTrackedKeys) {
  // Space-Saving invariant: a tracked key's counter >= its true count.
  SpaceSavingCounter counter(8);
  util::Rng rng(3);
  std::vector<int> truth(100, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    const auto key = static_cast<uint32_t>(u * u * 100);  // Skewed.
    ++truth[key];
    counter.Add(key);
  }
  counter.ForEach([&](uint32_t key, double count) {
    EXPECT_GE(count, static_cast<double>(truth[key]));
  });
}

TEST(SpaceSavingTest, HeavyHittersSurvive) {
  SpaceSavingCounter counter(8);
  util::Rng rng(5);
  // Key 0 gets 30% of 20000 adds; it must be tracked at the end.
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBool(0.3)) {
      counter.Add(0);
    } else {
      counter.Add(1 + static_cast<uint32_t>(rng.NextBounded(500)));
    }
  }
  EXPECT_TRUE(counter.IsTracked(0));
  EXPECT_NEAR(counter.Count(0), 6000.0, 1500.0);
}

TEST(SpaceSavingTest, TotalWeightTracksAdds) {
  SpaceSavingCounter counter(4);
  for (int i = 0; i < 100; ++i) counter.Add(i);
  EXPECT_DOUBLE_EQ(counter.total_weight(), 100.0);
  EXPECT_EQ(counter.size(), 4u);
}

TEST(SpaceSavingTest, DecayScalesCounts) {
  SpaceSavingCounter counter(4);
  counter.Add(1, 8.0);
  counter.Add(2, 4.0);
  counter.Decay(0.5);
  EXPECT_DOUBLE_EQ(counter.Count(1), 4.0);
  EXPECT_DOUBLE_EQ(counter.Count(2), 2.0);
  EXPECT_DOUBLE_EQ(counter.total_weight(), 6.0);
}

TEST(SpaceSavingTest, DecayPrunesTinyCounts) {
  SpaceSavingCounter counter(4);
  counter.Add(1, 1.0);
  counter.Decay(1e-6, /*prune_below=*/1e-3);
  EXPECT_EQ(counter.size(), 0u);
  EXPECT_FALSE(counter.IsTracked(1));
}

TEST(SpaceSavingTest, WeightedAdds) {
  SpaceSavingCounter counter(4);
  counter.Add(7, 2.5);
  counter.Add(7, 2.5);
  EXPECT_DOUBLE_EQ(counter.Count(7), 5.0);
}

TEST(SpaceSavingTest, ClearEmpties) {
  SpaceSavingCounter counter(4);
  counter.Add(1);
  counter.Clear();
  EXPECT_EQ(counter.size(), 0u);
  EXPECT_DOUBLE_EQ(counter.total_weight(), 0.0);
}

TEST(SpaceSavingTest, TrackedTotalSumsCounters) {
  SpaceSavingCounter counter(4);
  counter.Add(1, 3.0);
  counter.Add(2, 4.0);
  EXPECT_DOUBLE_EQ(counter.TrackedTotal(), 7.0);
}

// --------------------------------------------------------------------
// SpaceSavingPool

std::string SaveBytes(const SpaceSavingCounter& counter) {
  util::BinaryWriter writer;
  counter.Save(&writer);
  return writer.buffer();
}

std::string SaveBytes(const SpaceSavingPool& pool, uint32_t slot) {
  util::BinaryWriter writer;
  pool.Save(slot, &writer);
  return writer.buffer();
}

// Differential fuzz: a pool slot and a SpaceSavingCounter of the same
// capacity fed the same Add/Decay sequence stay identical after every step,
// down to the snapshot bytes (eviction order, tie-break and pruning
// included). The slot sits between two others, which must stay empty.
TEST(SpaceSavingPoolTest, MatchesSpaceSavingCounterUnderRandomOps) {
  for (uint32_t capacity = 1; capacity <= 8; ++capacity) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    util::Rng rng(1000 + capacity);
    SpaceSavingCounter reference(capacity);
    SpaceSavingPool pool(capacity);
    pool.Resize(3);
    constexpr uint32_t kSlot = 1;
    const uint32_t key_space = 2 * capacity + 3;
    for (int step = 0; step < 3000; ++step) {
      if (rng.NextBool(0.05)) {
        // Small factors force pruning; 1.0 keeps ties intact.
        const double factor =
            rng.NextBool(0.3) ? 1.0 : rng.NextDouble(1e-4, 1.0);
        reference.Decay(factor);
        pool.Decay(kSlot, factor);
      } else {
        uint32_t key = static_cast<uint32_t>(rng.NextBounded(key_space));
        if (rng.NextBool(0.05)) key = ~0u - key;  // Extreme keys sort last.
        // Mostly unit weights, so equal counts (eviction ties) are common.
        const double weight =
            rng.NextBool(0.8) ? 1.0 : rng.NextDouble(0.0, 3.0);
        reference.Add(key, weight);
        pool.Add(kSlot, key, weight);
      }
      ASSERT_EQ(pool.size(kSlot), reference.size()) << "step " << step;
      ASSERT_EQ(pool.total_weight(kSlot), reference.total_weight());
      for (uint32_t key = 0; key < key_space; ++key) {
        for (const uint32_t k : {key, ~0u - key}) {
          ASSERT_EQ(pool.Find(kSlot, k) != nullptr, reference.IsTracked(k))
              << "step " << step << " key " << k;
          ASSERT_EQ(pool.Count(kSlot, k), reference.Count(k))
              << "step " << step << " key " << k;
        }
      }
      ASSERT_EQ(SaveBytes(pool, kSlot), SaveBytes(reference))
          << "step " << step;
      ASSERT_EQ(pool.size(0), 0u);
      ASSERT_EQ(pool.size(2), 0u);
      ASSERT_EQ(pool.total_weight(0), 0.0);
      ASSERT_EQ(pool.total_weight(2), 0.0);
    }
  }
}

TEST(SpaceSavingPoolTest, DecayPrunesOnlyBelowTheBound) {
  // A counter exactly at the bound survives, as in SpaceSavingCounter.
  SpaceSavingCounter reference(4);
  SpaceSavingPool pool(4);
  pool.Resize(1);
  for (const double count : {1e-3, 5e-4, 2.0}) {
    const auto key = static_cast<uint32_t>(count * 1e4);
    reference.Add(key, count);
    pool.Add(0, key, count);
  }
  reference.Decay(1.0);
  pool.Decay(0, 1.0);
  EXPECT_EQ(pool.size(0), 2u);
  EXPECT_EQ(SaveBytes(pool, 0), SaveBytes(reference));
}

TEST(SpaceSavingPoolTest, LoadsSpaceSavingCounterSnapshots) {
  SpaceSavingCounter counter(4);
  for (uint32_t key : {9u, 3u, 7u, 3u, 12u, 1u, 9u}) counter.Add(key);
  const std::string bytes = SaveBytes(counter);
  SpaceSavingPool pool(4);
  pool.Resize(2);
  util::BinaryReader reader(bytes);
  ASSERT_TRUE(pool.Load(1, &reader));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(SaveBytes(pool, 1), bytes);
  EXPECT_EQ(pool.Count(1, 9), counter.Count(9));
}

// Patches the u64 entry count and the keys of a saved 4-capacity slot.
std::string PatchedSlot(uint64_t num_entries,
                        const std::vector<uint32_t>& keys) {
  util::BinaryWriter writer;
  writer.WriteU32(4);
  writer.WriteDouble(static_cast<double>(keys.size()));
  writer.WriteU64(num_entries);
  for (const uint32_t key : keys) {
    writer.WriteU32(key);
    writer.WriteDouble(1.0);
  }
  return writer.buffer();
}

bool LoadsInto(SpaceSavingPool* pool, const std::string& bytes) {
  util::BinaryReader reader(bytes);
  const bool ok = pool->Load(0, &reader);
  if (!ok) {
    EXPECT_EQ(pool->size(0), 0u);
    EXPECT_EQ(pool->total_weight(0), 0.0);
  }
  return ok;
}

TEST(SpaceSavingPoolTest, LoadRejectsMalformedSlots) {
  SpaceSavingPool pool(4);
  pool.Resize(1);
  EXPECT_TRUE(LoadsInto(&pool, PatchedSlot(3, {1, 5, 9})));
  // More entries than the capacity.
  EXPECT_FALSE(LoadsInto(&pool, PatchedSlot(5, {1, 2, 3, 4, 5})));
  EXPECT_FALSE(LoadsInto(&pool, PatchedSlot(~0ull, {1, 2, 3, 4})));
  // Keys not strictly ascending: duplicates and descending order.
  EXPECT_FALSE(LoadsInto(&pool, PatchedSlot(3, {1, 5, 5})));
  EXPECT_FALSE(LoadsInto(&pool, PatchedSlot(3, {1, 9, 5})));
  EXPECT_FALSE(LoadsInto(&pool, PatchedSlot(2, {7, 0})));
  // Capacity mismatch.
  SpaceSavingPool wider(5);
  wider.Resize(1);
  EXPECT_FALSE(LoadsInto(&wider, PatchedSlot(3, {1, 5, 9})));
  // Every truncation of a valid slot.
  const std::string valid = PatchedSlot(4, {1, 5, 9, 11});
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(LoadsInto(&pool, valid.substr(0, len))) << "len " << len;
  }
  EXPECT_TRUE(LoadsInto(&pool, valid));
}

}  // namespace
}  // namespace latest::estimators
