#include "estimators/aasp_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "util/hashing.h"

namespace latest::estimators {

namespace {

constexpr uint64_t kMinSplitCount = 32;
constexpr uint32_t kMaxDepth = 16;

}  // namespace

AaspEstimator::AaspEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      bounds_(config.bounds),
      num_slices_(config.window.num_slices),
      split_value_(config.aasp_split_value),
      max_nodes_(std::max(5u * std::max(1u, config.aasp_partitions),
                          config.aasp_max_nodes)),
      max_depth_(kMaxDepth),
      decay_factor_(static_cast<double>(config.window.num_slices - 1) /
                    std::max(1u, config.window.num_slices)),
      partition_hash_seed_(config.seed ^ 0x0F0F0F0F0F0F0F0FULL),
      node_keywords_(config.aasp_node_keywords),
      global_keywords_(config.aasp_root_keywords) {
  partitions_.resize(std::max(1u, config.aasp_partitions));
  slice_kmv_.reserve(num_slices_);
  for (uint32_t i = 0; i < num_slices_; ++i) {
    slice_kmv_.emplace_back(config.aasp_kmv_size, config.seed);
  }
  ResetImpl();
}

AaspEstimator::~AaspEstimator() = default;

void AaspEstimator::InitNode(uint32_t id, const geo::Rect& cell,
                             uint32_t depth) {
  Node& node = nodes_[id];
  node = Node{};
  node.cell = cell;
  node.depth = depth;
  std::fill_n(SliceCounts(id), num_slices_, 0);
  node_keywords_.ClearSlot(id);
}

uint32_t AaspEstimator::num_nodes() const {
  uint32_t total = 0;
  for (const auto& partition : partitions_) total += partition.num_nodes;
  return total;
}

uint64_t AaspEstimator::SplitThreshold() const {
  const uint32_t target_leaves = std::max(1u, max_nodes_ / 2);
  const double threshold = 2.0 * split_value_ *
                           static_cast<double>(seen_population()) /
                           static_cast<double>(target_leaves);
  return std::max<uint64_t>(kMinSplitCount,
                            static_cast<uint64_t>(threshold));
}

uint32_t AaspEstimator::PartitionOf(
    const std::vector<stream::KeywordId>& keywords) const {
  if (keywords.empty() || partitions_.size() == 1) return 0;
  return static_cast<uint32_t>(
      util::SeededHash(keywords.front(), partition_hash_seed_) %
      partitions_.size());
}

int AaspEstimator::QuadrantOf(const Node& node, const geo::Point& p) const {
  const geo::Point c = node.cell.Center();
  return (p.x >= c.x ? 1 : 0) + (p.y >= c.y ? 2 : 0);
}

void AaspEstimator::SplitLeaf(Partition* partition, uint32_t id) {
  uint32_t first = static_cast<uint32_t>(nodes_.size());
  if (!free_blocks_.empty()) {
    first = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    nodes_.resize(nodes_.size() + 4);
    slice_counts_.resize(nodes_.size() * num_slices_);
    node_keywords_.Resize(static_cast<uint32_t>(nodes_.size()));
  }
  // nodes_ may have moved: read the parent only after growing the pool.
  const geo::Rect b = nodes_[id].cell;
  const uint32_t depth = nodes_[id].depth + 1;
  const geo::Point c = b.Center();
  const geo::Rect quads[4] = {
      {b.min_x, b.min_y, c.x, c.y},
      {c.x, b.min_y, b.max_x, c.y},
      {b.min_x, c.y, c.x, b.max_y},
      {c.x, c.y, b.max_x, b.max_y},
  };
  for (uint32_t i = 0; i < 4; ++i) InitNode(first + i, quads[i], depth);
  nodes_[id].first_child = first;
  partition->num_nodes += 4;
  // Counts are NOT redistributed: in the streaming ASP tree every point is
  // counted by exactly one node, and this node keeps the points it
  // absorbed while it was a leaf.
}

void AaspEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  Partition& partition = partitions_[PartitionOf(obj.keywords)];
  uint32_t id = partition.root;
  while (!nodes_[id].is_leaf()) {
    id = nodes_[id].first_child + QuadrantOf(nodes_[id], obj.loc);
  }
  Node& node = nodes_[id];
  ++SliceCounts(id)[head_slice_];
  ++node.live_count;
  node.decayed_count += 1.0;
  for (const stream::KeywordId kw : obj.keywords) {
    node_keywords_.Add(id, kw);
    global_keywords_.Add(kw);
    slice_kmv_[head_slice_].Add(kw);
  }
  global_keyword_objects_ += 1.0;
  if (++inserts_since_cache_ >= 4096) {
    untracked_cache_valid_ = false;
    inserts_since_cache_ = 0;
  }
  // The whole-forest node budget is shared evenly across partitions.
  const uint32_t partition_budget =
      max_nodes_ / static_cast<uint32_t>(partitions_.size());
  if (node.live_count > SplitThreshold() && node.depth < max_depth_ &&
      partition.num_nodes + 4 <= partition_budget) {
    SplitLeaf(&partition, id);
  }
}

uint64_t AaspEstimator::RotateNode(Partition* partition, uint32_t id) {
  // head_slice_ has already been advanced to the slot of the expiring
  // slice, which becomes the new current slice.
  Node& node = nodes_[id];
  uint64_t& expiring = SliceCounts(id)[head_slice_];
  assert(node.live_count >= expiring);
  node.live_count -= expiring;
  expiring = 0;
  node.decayed_count *= decay_factor_;
  node_keywords_.Decay(id, decay_factor_);

  uint64_t subtree_live = node.live_count;
  if (!node.is_leaf()) {
    uint64_t child_live = 0;
    for (uint32_t i = 0; i < 4; ++i) {
      child_live += RotateNode(partition, node.first_child + i);
    }
    subtree_live += child_live;
    if (subtree_live == 0) {
      // Whole subtree expired: collapse back into a leaf. The children
      // are leaves by now (each empty subtree collapsed itself first), so
      // their block goes back to the pool whole.
      free_blocks_.push_back(node.first_child);
      node.first_child = kLeaf;
      partition->num_nodes -= 4;
    }
  }
  return subtree_live;
}

void AaspEstimator::RotateImpl() {
  head_slice_ = (head_slice_ + 1) % num_slices_;
  for (auto& partition : partitions_) {
    RotateNode(&partition, partition.root);
  }
  slice_kmv_[head_slice_].Clear();
  global_keywords_.Decay(decay_factor_);
  global_keyword_objects_ *= decay_factor_;
  untracked_cache_valid_ = false;
}

double AaspEstimator::UntrackedKeywordCount() const {
  if (!untracked_cache_valid_) {
    // Probability mass reserved for keywords the bounded counter dropped:
    // spread the untracked occurrence mass over the untracked distinct
    // keywords (estimated via the KMV synopses).
    const double tracked_total = global_keywords_.TrackedTotal();
    const double untracked_mass =
        std::max(0.0, global_keywords_.total_weight() - tracked_total);
    const double distinct = EstimateDistinctKeywords();
    const double untracked_distinct =
        std::max(1.0, distinct - global_keywords_.size());
    cached_untracked_count_ = untracked_mass / untracked_distinct;
    untracked_cache_valid_ = true;
  }
  return cached_untracked_count_;
}

double AaspEstimator::GlobalKeywordProbability(
    std::span<const stream::KeywordId> keywords) const {
  if (global_keyword_objects_ < 1.0) return 0.0;
  const double untracked_count = UntrackedKeywordCount();
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double count = global_keywords_.IsTracked(kw)
                             ? global_keywords_.Count(kw)
                             : untracked_count;
    const double p = std::clamp(count / global_keyword_objects_, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return 1.0 - miss_all;
}

double AaspEstimator::NodeKeywordProbability(
    uint32_t id, const std::vector<stream::KeywordId>& keywords) const {
  const double decayed_count = nodes_[id].decayed_count;
  if (decayed_count < 1.0) return GlobalKeywordProbability(keywords);
  double miss_all = 1.0;
  bool any_local = false;
  for (const stream::KeywordId& kw : keywords) {
    if (const double* count = node_keywords_.Find(id, kw)) {
      const double p = std::clamp(*count / decayed_count, 0.0, 1.0);
      miss_all *= (1.0 - p);
      any_local = true;
    } else {
      // Local counters never saw this keyword here; fall back to a global
      // single-keyword probability for this factor.
      miss_all *= (1.0 - GlobalKeywordProbability({&kw, 1}));
    }
  }
  if (!any_local && node_keywords_.size(id) == 0) {
    return GlobalKeywordProbability(keywords);
  }
  return 1.0 - miss_all;
}

double AaspEstimator::NodeKeywordProbabilityLocal(
    uint32_t id, const std::vector<stream::KeywordId>& keywords) const {
  const double decayed_count = nodes_[id].decayed_count;
  if (decayed_count < 1.0) return 0.0;
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double count = node_keywords_.Count(id, kw);  // 0 when untracked.
    const double p = std::clamp(count / decayed_count, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return 1.0 - miss_all;
}

double AaspEstimator::EstimateSpatial(uint32_t id,
                                      const geo::Rect& range) const {
  const Node& node = nodes_[id];
  if (!node.cell.Intersects(range)) return 0.0;
  double estimate = static_cast<double>(node.live_count) *
                    node.cell.OverlapFraction(range);
  if (!node.is_leaf()) {
    for (uint32_t i = 0; i < 4; ++i) {
      estimate += EstimateSpatial(node.first_child + i, range);
    }
  }
  return estimate;
}

double AaspEstimator::EstimateHybrid(uint32_t id,
                                     const stream::Query& q) const {
  const Node& node = nodes_[id];
  if (!node.cell.Intersects(*q.range)) return 0.0;
  double estimate = 0.0;
  if (node.live_count > 0) {
    estimate = static_cast<double>(node.live_count) *
               node.cell.OverlapFraction(*q.range) *
               NodeKeywordProbability(id, q.keywords);
  }
  if (!node.is_leaf()) {
    for (uint32_t i = 0; i < 4; ++i) {
      estimate += EstimateHybrid(node.first_child + i, q);
    }
  }
  return estimate;
}

double AaspEstimator::EstimateKeywordOnly(
    uint32_t id, const std::vector<stream::KeywordId>& kw) const {
  // Tightly coupled aggregation: each node contributes its live count
  // times its *local* keyword probability. Keywords too rare for a node's
  // bounded counters contribute nothing — the coupling weakness the paper
  // calls out for pure keyword queries.
  const Node& node = nodes_[id];
  double estimate = static_cast<double>(node.live_count) *
                    NodeKeywordProbabilityLocal(id, kw);
  if (!node.is_leaf()) {
    for (uint32_t i = 0; i < 4; ++i) {
      estimate += EstimateKeywordOnly(node.first_child + i, kw);
    }
  }
  return estimate;
}

double AaspEstimator::Estimate(const stream::Query& q) const {
  // Every query type aggregates over the whole partition forest.
  double estimate = 0.0;
  switch (q.Type()) {
    case stream::QueryType::kSpatial:
      for (const auto& partition : partitions_) {
        estimate += EstimateSpatial(partition.root, *q.range);
      }
      return estimate;
    case stream::QueryType::kKeyword:
      for (const auto& partition : partitions_) {
        estimate += EstimateKeywordOnly(partition.root, q.keywords);
      }
      return estimate;
    case stream::QueryType::kHybrid:
      for (const auto& partition : partitions_) {
        estimate += EstimateHybrid(partition.root, q);
      }
      return estimate;
  }
  return 0.0;
}

double AaspEstimator::EstimateDistinctKeywords() const {
  KmvSynopsis merged = slice_kmv_[0];
  for (uint32_t i = 1; i < num_slices_; ++i) merged.Merge(slice_kmv_[i]);
  return merged.EstimateDistinct();
}

size_t AaspEstimator::MemoryBytes() const {
  size_t bytes = partitions_.capacity() * sizeof(Partition) +
                 nodes_.capacity() * sizeof(Node) +
                 slice_counts_.capacity() * sizeof(uint64_t) +
                 node_keywords_.MemoryBytes() +
                 free_blocks_.capacity() * sizeof(uint32_t);
  bytes += global_keywords_.size() *
           (sizeof(uint32_t) + sizeof(double) + 2 * sizeof(void*));
  for (const auto& kmv : slice_kmv_) {
    bytes += kmv.size() * sizeof(double);
  }
  return bytes;
}

void AaspEstimator::SaveNode(uint32_t id, util::BinaryWriter* writer) const {
  const Node& node = nodes_[id];
  writer->WriteBool(node.is_leaf());
  const uint64_t* slice_counts = SliceCounts(id);
  for (uint32_t i = 0; i < num_slices_; ++i) writer->WriteU64(slice_counts[i]);
  writer->WriteU64(node.live_count);
  writer->WriteDouble(node.decayed_count);
  node_keywords_.Save(id, writer);
  if (!node.is_leaf()) {
    for (uint32_t i = 0; i < 4; ++i) SaveNode(node.first_child + i, writer);
  }
}

bool AaspEstimator::LoadNode(Partition* partition, uint32_t id,
                             util::BinaryReader* reader) {
  bool is_leaf;
  if (!reader->ReadBool(&is_leaf)) return false;
  uint64_t* slice_counts = SliceCounts(id);
  uint64_t slice_total = 0;
  for (uint32_t i = 0; i < num_slices_; ++i) {
    if (!reader->ReadU64(&slice_counts[i]) ||
        slice_counts[i] > UINT64_MAX - slice_total) {
      return false;
    }
    slice_total += slice_counts[i];
  }
  // The live count is the sum of the slice ring (RotateNode relies on it
  // never dropping below the expiring slice).
  Node& node = nodes_[id];
  if (!reader->ReadU64(&node.live_count) || node.live_count != slice_total ||
      !reader->ReadDouble(&node.decayed_count) ||
      !node_keywords_.Load(id, reader)) {
    return false;
  }
  if (!is_leaf) {
    if (node.depth >= max_depth_) return false;  // Bounds recursion.
    SplitLeaf(partition, id);
    const uint32_t first = nodes_[id].first_child;
    for (uint32_t i = 0; i < 4; ++i) {
      if (!LoadNode(partition, first + i, reader)) return false;
    }
  }
  return true;
}

void AaspEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  writer->WriteU32(head_slice_);
  writer->WriteU64(partitions_.size());
  for (const auto& partition : partitions_) {
    SaveNode(partition.root, writer);
  }
  global_keywords_.Save(writer);
  writer->WriteDouble(global_keyword_objects_);
  for (const auto& kmv : slice_kmv_) kmv.Save(writer);
  writer->WriteU64(inserts_since_cache_);
}

bool AaspEstimator::LoadStateImpl(util::BinaryReader* reader) {
  ResetImpl();
  uint32_t head_slice;
  uint64_t num_partitions;
  if (!reader->ReadU32(&head_slice) || head_slice >= num_slices_ ||
      !reader->ReadU64(&num_partitions) ||
      num_partitions != partitions_.size()) {
    return false;
  }
  head_slice_ = head_slice;
  for (auto& partition : partitions_) {
    if (!LoadNode(&partition, partition.root, reader)) return false;
  }
  if (!global_keywords_.Load(reader) ||
      !reader->ReadDouble(&global_keyword_objects_)) {
    return false;
  }
  for (auto& kmv : slice_kmv_) {
    if (!kmv.Load(reader)) return false;
  }
  if (!reader->ReadU64(&inserts_since_cache_)) return false;
  untracked_cache_valid_ = false;
  return true;
}

void AaspEstimator::ResetImpl() {
  // Roots are ids 0..P-1; every later id belongs to a block of four.
  const uint32_t p = static_cast<uint32_t>(partitions_.size());
  nodes_.assign(p, Node{});
  slice_counts_.assign(static_cast<size_t>(p) * num_slices_, 0);
  node_keywords_.Resize(p);
  free_blocks_.clear();
  for (uint32_t i = 0; i < p; ++i) {
    InitNode(i, bounds_, 0);
    partitions_[i] = Partition{i, 1};
  }
  head_slice_ = 0;
  global_keywords_.Clear();
  global_keyword_objects_ = 0.0;
  for (auto& kmv : slice_kmv_) kmv.Clear();
  cached_untracked_count_ = 0.0;
  untracked_cache_valid_ = false;
  inserts_since_cache_ = 0;
}

}  // namespace latest::estimators
