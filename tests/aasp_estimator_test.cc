// Tests for the AASP (augmented adaptive space partitioning) estimator.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/aasp_estimator.h"
#include "persist/crc32.h"
#include "tests/test_stream.h"
#include "util/serialization.h"

namespace latest::estimators {
namespace {

using testing_support::BruteForceCount;
using testing_support::FeedObjects;
using testing_support::MakeClusteredObjects;
using testing_support::MakeHybridQuery;
using testing_support::MakeKeywordQuery;
using testing_support::MakeSpatialQuery;
using testing_support::TestEstimatorConfig;

TEST(AaspEstimatorTest, EmptyEstimatesZero) {
  AaspEstimator est(TestEstimatorConfig());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({0, 0, 50, 50})), 0.0);
  EXPECT_DOUBLE_EQ(est.Estimate(MakeKeywordQuery({1})), 0.0);
}

TEST(AaspEstimatorTest, StartsWithOneNodePerPartition) {
  auto config = TestEstimatorConfig();
  config.aasp_partitions = 8;
  AaspEstimator est(config);
  EXPECT_EQ(est.num_partitions(), 8u);
  EXPECT_EQ(est.num_nodes(), 8u);
}

TEST(AaspEstimatorTest, TreeAdaptsToDensity) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 1);
  FeedObjects(&est, config.window, objects);
  // The dense cluster must force splits beyond the initial roots.
  EXPECT_GT(est.num_nodes(), est.num_partitions());
}

TEST(AaspEstimatorTest, NodeBudgetRespected) {
  auto config = TestEstimatorConfig();
  config.aasp_max_nodes = 128;
  config.aasp_partitions = 4;
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 2);
  FeedObjects(&est, config.window, objects);
  EXPECT_LE(est.num_nodes(), 128u);
}

TEST(AaspEstimatorTest, FullDomainSpatialQueryCountsEverything) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(10000, 3);
  FeedObjects(&est, config.window, objects);
  // Every node cell is fully covered: overlap fractions are 1, so the
  // estimate must equal the exact live population.
  const double estimate =
      est.Estimate(MakeSpatialQuery({-100, -100, 200, 200}));
  EXPECT_NEAR(estimate, static_cast<double>(est.seen_population()), 1.0);
}

TEST(AaspEstimatorTest, SpatialAccuracyOnDenseRegion) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 4);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const uint64_t truth = BruteForceCount(objects, q, 0);
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.35);
}

TEST(AaspEstimatorTest, KeywordEstimateTracksHeadKeywords) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 5);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeKeywordQuery({0});  // Most frequent keyword.
  const uint64_t truth = BruteForceCount(objects, q, 0);
  ASSERT_GT(truth, 3000u);
  // Local bounded counters: moderate accuracy expected, not exactness.
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.5);
}

TEST(AaspEstimatorTest, UnseenKeywordEstimatesZero) {
  // A keyword absent from the stream is tracked by no node counter, so
  // the locally-coupled aggregation contributes nothing.
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 6);
  FeedObjects(&est, config.window, objects);
  EXPECT_DOUBLE_EQ(est.Estimate(MakeKeywordQuery({10000})), 0.0);
}

TEST(AaspEstimatorTest, SpaceSavingInflationStaysBounded) {
  // Mid-frequency keywords inherit counters under Space-Saving pressure:
  // estimates are biased upward but must stay within a small factor.
  auto config = TestEstimatorConfig();
  config.aasp_node_keywords = 2;
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 6);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeKeywordQuery({49});  // Rarest stream keyword.
  const uint64_t truth = BruteForceCount(objects, q, 0);
  ASSERT_GT(truth, 100u);
  EXPECT_LE(est.Estimate(q), 4.0 * static_cast<double>(truth));
}

TEST(AaspEstimatorTest, HybridBoundedByPopulationInRange) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 7);
  FeedObjects(&est, config.window, objects);
  const geo::Rect r{20, 20, 40, 40};
  const double hybrid = est.Estimate(MakeHybridQuery(r, {0, 1}));
  const double spatial = est.Estimate(MakeSpatialQuery(r));
  EXPECT_GE(hybrid, 0.0);
  EXPECT_LE(hybrid, spatial + 1e-9);
}

TEST(AaspEstimatorTest, DistinctKeywordEstimate) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 8);
  FeedObjects(&est, config.window, objects);
  // The synthetic stream uses 50 distinct keywords.
  EXPECT_NEAR(est.EstimateDistinctKeywords(), 50.0, 10.0);
}

TEST(AaspEstimatorTest, WindowExpiryCollapsesTree) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 9);
  FeedObjects(&est, config.window, objects);
  const uint32_t nodes_before = est.num_nodes();
  // Rotate a full window of empty slices: everything expires and all
  // subtrees collapse back to the partition roots.
  for (uint32_t i = 0; i <= config.window.num_slices; ++i) {
    est.OnSliceRotate();
  }
  EXPECT_EQ(est.seen_population(), 0u);
  EXPECT_EQ(est.num_nodes(), est.num_partitions());
  EXPECT_GT(nodes_before, est.num_nodes());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({0, 0, 100, 100})), 0.0);
}

TEST(AaspEstimatorTest, SplitThresholdScalesWithPopulation) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const uint64_t initial = est.SplitThreshold();
  const auto objects = MakeClusteredObjects(50000, 10);
  FeedObjects(&est, config.window, objects);
  EXPECT_GE(est.SplitThreshold(), initial);
}

TEST(AaspEstimatorTest, ResetWipes) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 11);
  FeedObjects(&est, config.window, objects);
  est.Reset();
  EXPECT_EQ(est.seen_population(), 0u);
  EXPECT_EQ(est.num_nodes(), est.num_partitions());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeKeywordQuery({0})), 0.0);
}

TEST(AaspEstimatorTest, MemoryGrowsWithNodeBudget) {
  auto small_cfg = TestEstimatorConfig();
  small_cfg.aasp_max_nodes = 64;
  auto large_cfg = TestEstimatorConfig();
  large_cfg.aasp_max_nodes = 4096;
  AaspEstimator small(small_cfg);
  AaspEstimator large(large_cfg);
  const auto objects = MakeClusteredObjects(50000, 12);
  FeedObjects(&small, small_cfg.window, objects);
  FeedObjects(&large, large_cfg.window, objects);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

std::string SaveBytes(const AaspEstimator& est) {
  util::BinaryWriter writer;
  est.SaveState(&writer);
  return writer.buffer();
}

/// Feeds `objects` with a slice rotation every `per_slice` inserts and
/// returns how many rotations shrank the forest (whole-subtree collapses).
int FeedWithRotations(AaspEstimator* est,
                      const std::vector<stream::GeoTextObject>& objects,
                      size_t per_slice) {
  int collapses = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (i > 0 && i % per_slice == 0) {
      const uint32_t before = est->num_nodes();
      est->OnSliceRotate();
      if (est->num_nodes() < before) ++collapses;
    }
    est->Insert(objects[i]);
  }
  return collapses;
}

/// A fixed seeded history that splits, rotates and collapses: a cluster
/// at [20,40]^2 grows subtrees, then a stream confined to [60,100]^2
/// expires them (their blocks are freed) and splits new nodes elsewhere.
void DriveSnapshotHistory(AaspEstimator* est) {
  FeedWithRotations(est, MakeClusteredObjects(12000, 41), 1000);
  auto moved = MakeClusteredObjects(14000, 42);
  for (auto& obj : moved) {
    obj.loc = {60.0 + 0.4 * obj.loc.x, 60.0 + 0.4 * obj.loc.y};
  }
  const uint32_t grown = est->num_nodes();
  ASSERT_GT(grown, est->num_partitions());
  EXPECT_GT(FeedWithRotations(est, moved, 1000), 0);
}

std::vector<stream::Query> SnapshotQueries() {
  std::vector<stream::Query> queries;
  for (int i = 0; i < 6; ++i) {
    const double lo = 10.0 * i;
    const geo::Rect r{lo, lo, lo + 35.0, lo + 30.0};
    const auto kw = static_cast<stream::KeywordId>(i * 7);
    queries.push_back(MakeSpatialQuery(r));
    queries.push_back(MakeKeywordQuery({kw}));
    queries.push_back(MakeKeywordQuery({kw, kw + 1u, 1000u}));
    queries.push_back(MakeHybridQuery(r, {kw}));
    queries.push_back(MakeHybridQuery(r, {kw + 2u, 999u}));
  }
  return queries;
}

// The pooled node store writes the same bytes as the pointer-based tree
// it replaced: the CRC below was recorded from that tree on this history.
// A reload re-saves byte-identically and answers bit-identically.
TEST(AaspEstimatorTest, SnapshotBytesArePinnedAndRoundTrip) {
  const auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  DriveSnapshotHistory(&est);
  const std::string bytes = SaveBytes(est);
  EXPECT_EQ(persist::Crc32(bytes), 0x09F313E6u);

  AaspEstimator restored(config);
  util::BinaryReader reader(bytes);
  ASSERT_TRUE(restored.LoadState(&reader));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(SaveBytes(restored), bytes);
  EXPECT_EQ(restored.num_nodes(), est.num_nodes());
  for (const stream::Query& q : SnapshotQueries()) {
    EXPECT_EQ(restored.Estimate(q), est.Estimate(q));
  }
  // Both keep evolving identically (freed blocks are reused on both sides).
  const auto more = MakeClusteredObjects(3000, 43);
  FeedWithRotations(&est, more, 500);
  FeedWithRotations(&restored, more, 500);
  EXPECT_EQ(SaveBytes(restored), SaveBytes(est));
}

/// A small estimator whose snapshot is a few KB, for exhaustive
/// corruption sweeps.
EstimatorConfig SmallSnapshotConfig() {
  auto config = TestEstimatorConfig();
  config.window.num_slices = 4;
  config.aasp_partitions = 2;
  config.aasp_max_nodes = 64;
  config.aasp_kmv_size = 8;
  config.aasp_root_keywords = 8;
  return config;
}

TEST(AaspEstimatorTest, LoadRejectsTruncationAndSurvivesByteFlips) {
  const auto config = SmallSnapshotConfig();
  AaspEstimator est(config);
  FeedWithRotations(&est, MakeClusteredObjects(3000, 44), 500);
  ASSERT_GT(est.num_nodes(), est.num_partitions());
  const std::string bytes = SaveBytes(est);
  const auto queries = SnapshotQueries();

  AaspEstimator target(config);
  for (size_t len = 0; len < bytes.size(); ++len) {
    util::BinaryReader reader(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(target.LoadState(&reader)) << "len " << len;
    EXPECT_EQ(target.num_nodes(), target.num_partitions());
  }
  // A flipped byte may still decode; whatever loads must be usable.
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    util::BinaryReader reader(flipped);
    if (target.LoadState(&reader)) {
      for (const auto& q : queries) (void)target.Estimate(q);
    }
  }
}

/// Offset of a node counter's header (capacity, total, entry count) in a
/// snapshot, or npos.
size_t FindCounterHeader(const std::string& bytes, uint32_t capacity,
                         double total, uint64_t num_entries) {
  util::BinaryWriter writer;
  writer.WriteU32(capacity);
  writer.WriteDouble(total);
  writer.WriteU64(num_entries);
  return bytes.find(writer.buffer());
}

TEST(AaspEstimatorTest, LoadRejectsMalformedNodes) {
  auto config = SmallSnapshotConfig();
  config.aasp_partitions = 1;
  AaspEstimator est(config);
  stream::GeoTextObject obj;
  obj.loc = {50, 50};
  obj.keywords = {5, 9, 13};
  est.Insert(obj);
  const std::string bytes = SaveBytes(est);
  // The root's counter holds keys 5, 9, 13 with total weight 3.
  const size_t header = FindCounterHeader(bytes, 4, 3.0, 3);
  ASSERT_NE(header, std::string::npos);
  const size_t count_at = header + 4 + 8;
  const size_t keys_at = count_at + 8;
  auto load = [&](const std::string& snapshot) {
    AaspEstimator target(config);
    util::BinaryReader reader(snapshot);
    return target.LoadState(&reader);
  };
  ASSERT_TRUE(load(bytes));

  auto with_count = [&](uint64_t n) {
    std::string patched = bytes;
    std::memcpy(&patched[count_at], &n, sizeof(n));
    return patched;
  };
  EXPECT_FALSE(load(with_count(5)));  // Above the capacity of 4.
  EXPECT_FALSE(load(with_count(~0ull)));

  auto with_keys = [&](uint32_t a, uint32_t b, uint32_t c) {
    std::string patched = bytes;
    const uint32_t keys[3] = {a, b, c};
    for (int i = 0; i < 3; ++i) {
      std::memcpy(&patched[keys_at + 12 * i], &keys[i], sizeof(uint32_t));
    }
    return patched;
  };
  // A live count that is not the sum of the node's slice ring.
  std::string live_lie = bytes;
  uint64_t live;
  const size_t live_at = header - 8 - 8;  // Before decayed_count.
  std::memcpy(&live, &live_lie[live_at], sizeof(live));
  ASSERT_EQ(live, 1u);
  live = 2;
  std::memcpy(&live_lie[live_at], &live, sizeof(live));
  EXPECT_FALSE(load(live_lie));
  // Slice counts whose sum wraps around to the stored live count.
  std::string wrapped = bytes;
  const uint64_t half = 1ull << 63, zero = 0;
  const size_t slices_at = live_at - 8 * config.window.num_slices;
  std::memcpy(&wrapped[slices_at], &half, sizeof(half));
  std::memcpy(&wrapped[slices_at + 8], &half, sizeof(half));
  for (uint32_t i = 2; i < config.window.num_slices; ++i) {
    std::memcpy(&wrapped[slices_at + 8 * i], &zero, sizeof(zero));
  }
  std::memcpy(&wrapped[live_at], &zero, sizeof(zero));
  EXPECT_FALSE(load(wrapped));

  EXPECT_TRUE(load(with_keys(1, 2, 3)));
  EXPECT_FALSE(load(with_keys(9, 5, 13)));  // Descending.
  EXPECT_FALSE(load(with_keys(5, 9, 9)));   // Duplicate.
  EXPECT_FALSE(load(with_keys(13, 9, 5)));
}

// Property sweep over partition counts: the full-domain invariant holds
// for any forest shape.
class AaspPartitionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AaspPartitionTest, FullDomainInvariant) {
  auto config = TestEstimatorConfig();
  config.aasp_partitions = GetParam();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 13);
  FeedObjects(&est, config.window, objects);
  EXPECT_NEAR(est.Estimate(MakeSpatialQuery({-100, -100, 200, 200})),
              static_cast<double>(est.seen_population()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Partitions, AaspPartitionTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace latest::estimators
