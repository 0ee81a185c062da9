// Input generation, the benchmark's own RC-DVQ ground truth, and small
// numeric helpers.
//
// The generator is self-contained (splitmix64, no library RNG), so the
// inputs of a seed stay fixed however the library's own workload
// generators change.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.h"

namespace latestbench {

namespace {

using latest::geo::Rect;
using latest::stream::GeoTextObject;
using latest::stream::KeywordId;
using latest::stream::Query;

class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

 private:
  uint64_t state_;
};

constexpr uint32_t kVocabBand = 50;
const Rect kClusterBefore{20, 20, 40, 40};
const Rect kClusterAfter{60, 60, 80, 80};

KeywordId DrawKeyword(SplitMix* rng, KeywordId base) {
  const double u = rng->Uniform();
  return base + static_cast<KeywordId>(u * u * kVocabBand);
}

void Canonicalize(std::vector<KeywordId>* kws) {
  std::sort(kws->begin(), kws->end());
  kws->erase(std::unique(kws->begin(), kws->end()), kws->end());
}

Rect RandomRange(SplitMix* rng, const Rect& cluster) {
  const Rect domain = Domain();
  const bool in_cluster = rng->Uniform() < 0.5;
  const Rect& area = in_cluster ? cluster : domain;
  const double cx = rng->Uniform(area.min_x, area.max_x);
  const double cy = rng->Uniform(area.min_y, area.max_y);
  const double w = rng->Uniform(3.0, 15.0);
  const double h = rng->Uniform(3.0, 15.0);
  return Rect{std::max(domain.min_x, cx - w / 2),
              std::max(domain.min_y, cy - h / 2),
              std::min(domain.max_x, cx + w / 2),
              std::min(domain.max_y, cy + h / 2)};
}

/// Query types in the proportions of the library's scenario default
/// (70% keyword, 15% spatial, 15% hybrid).
Query RandomStreamQuery(SplitMix* rng, const Rect& cluster, KeywordId base,
                        int64_t ts) {
  Query q;
  q.timestamp = ts;
  const double u = rng->Uniform();
  if (u >= 0.70) q.range = RandomRange(rng, cluster);
  if (u < 0.70 || u >= 0.85) q.keywords.push_back(DrawKeyword(rng, base));
  return q;
}

}  // namespace

Rect Domain() { return Rect{0, 0, 100, 100}; }

std::vector<Event> MakeStream(const StreamSpec& spec) {
  SplitMix object_rng(spec.seed * 2 + 1);
  SplitMix query_rng(spec.seed * 2 + 2);
  const Rect domain = Domain();
  std::vector<Event> events;
  events.reserve(spec.objects + spec.objects / spec.objects_per_query + 1);
  uint64_t since_query = 0;
  for (uint64_t i = 0; i < spec.objects; ++i) {
    const bool drifted = spec.drift && 2 * i >= spec.objects;
    const Rect& cluster = drifted ? kClusterAfter : kClusterBefore;
    const KeywordId base = drifted ? kVocabBand : 0;
    Event e;
    GeoTextObject& o = e.object;
    o.oid = i + 1;
    o.timestamp = static_cast<int64_t>(
        static_cast<double>(i) * static_cast<double>(spec.duration_ms) /
        static_cast<double>(spec.objects));
    const Rect& area = object_rng.Uniform() < 0.7 ? cluster : domain;
    o.loc = {object_rng.Uniform(area.min_x, area.max_x),
             object_rng.Uniform(area.min_y, area.max_y)};
    const uint32_t nkw = 1 + static_cast<uint32_t>(object_rng.Next() % 3);
    for (uint32_t k = 0; k < nkw; ++k) {
      o.keywords.push_back(DrawKeyword(&object_rng, base));
    }
    Canonicalize(&o.keywords);
    const int64_t ts = o.timestamp;
    events.push_back(std::move(e));
    if (ts < spec.query_start_ms) continue;
    if (++since_query < spec.objects_per_query) continue;
    since_query = 0;
    Event qe;
    qe.is_query = true;
    qe.query = RandomStreamQuery(&query_rng, cluster, base, ts);
    events.push_back(std::move(qe));
  }
  return events;
}

std::vector<Query> MakeQueryPool(size_t count, int64_t ts, uint64_t seed) {
  SplitMix rng(seed * 2 + 3);
  std::vector<Query> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.timestamp = ts;
    const size_t type = i % 3;  // 0 keyword, 1 spatial, 2 hybrid.
    if (type != 0) q.range = RandomRange(&rng, kClusterBefore);
    if (type != 1) {
      const uint32_t nkw = 1 + static_cast<uint32_t>(rng.Next() % 2);
      for (uint32_t k = 0; k < nkw; ++k) {
        q.keywords.push_back(DrawKeyword(&rng, 0));
      }
      Canonicalize(&q.keywords);
    }
    pool.push_back(std::move(q));
  }
  return pool;
}

uint64_t BruteForceCount(const GeoTextObject* objects, size_t n,
                         const Query& q, int64_t window_ms) {
  const int64_t oldest = q.timestamp - window_ms;
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const GeoTextObject& o = objects[i];
    if (o.timestamp < oldest || o.timestamp > q.timestamp) continue;
    if (q.range) {
      const Rect& r = *q.range;
      if (!(o.loc.x >= r.min_x && o.loc.x < r.max_x && o.loc.y >= r.min_y &&
            o.loc.y < r.max_y)) {
        continue;
      }
    }
    if (!q.keywords.empty()) {
      bool shared = false;
      for (KeywordId a : o.keywords) {
        for (KeywordId b : q.keywords) shared |= (a == b);
      }
      if (!shared) continue;
    }
    ++count;
  }
  return count;
}

std::vector<uint64_t> StreamTruth(const std::vector<Event>& events,
                                  int64_t window_ms) {
  std::vector<GeoTextObject> seen;
  std::vector<uint64_t> truth;
  size_t oldest = 0;  // Objects before it left every later window.
  for (const Event& e : events) {
    if (!e.is_query) {
      seen.push_back(e.object);
      continue;
    }
    while (oldest < seen.size() &&
           seen[oldest].timestamp < e.query.timestamp - window_ms) {
      ++oldest;
    }
    truth.push_back(BruteForceCount(seen.data() + oldest,
                                    seen.size() - oldest, e.query,
                                    window_ms));
  }
  return truth;
}

std::vector<uint64_t> PoolTruth(const std::vector<GeoTextObject>& objects,
                                const std::vector<Query>& pool,
                                int64_t window_ms) {
  std::vector<uint64_t> truth(pool.size());
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < pool.size(); i += threads) {
        truth[i] = BruteForceCount(objects.data(), objects.size(), pool[i],
                                   window_ms);
      }
    });
  }
  for (auto& w : workers) w.join();
  return truth;
}

double Accuracy(double estimate, uint64_t truth) {
  const double t = static_cast<double>(truth);
  const double rel = std::fabs(std::max(0.0, estimate) - t) / std::max(1.0, t);
  return std::max(0.0, 1.0 - rel);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

latest::core::LatestConfig ServeModuleConfig(uint64_t seed,
                                             int64_t window_ms) {
  latest::core::LatestConfig config;
  config.bounds = Domain();
  config.window.window_length_ms = window_ms;
  config.window.num_slices = 10;
  config.pretrain_queries = 40;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.default_estimator = latest::estimators::EstimatorKind::kH4096;
  config.maintain_shadow_estimators = true;
  config.alpha = 0.0;
  config.seed = seed;
  return config;
}

std::unique_ptr<latest::core::LatestModule> CreateModule(
    const latest::core::LatestConfig& config) {
  auto created = latest::core::LatestModule::Create(config);
  if (!created.ok()) {
    std::fprintf(stderr, "latestbench: module: %s\n",
                 created.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(created).value();
}

std::string JsonNumbers(const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out += "\"" + name + "\":" + buf;
  }
  return out + "}";
}

}  // namespace latestbench
