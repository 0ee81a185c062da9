// Layer probes of the traced run: each layer's public functions timed on
// the workload's own inputs, so that a change to one layer can be
// followed to the end-to-end number it should move (README.md has the
// map). Spans are the benchmark's own, taken around the calls with the
// steady clock; a loop that finishes in under kMinProbe repeats, and its
// time is divided by the calls made.

#include <algorithm>
#include <thread>

#include "bench.h"
#include "client.h"
#include "estimators/estimator.h"
#include "exact/exact_evaluator.h"
#include "ml/hoeffding_tree.h"
#include "net/batcher.h"
#include "net/serve_server.h"
#include "simd/kernels.h"
#include "stream/sliding_window.h"
#include "stream/window_store.h"
#include "util/serialization.h"

namespace latestbench {

namespace {

using latest::core::LatestModule;
using latest::stream::Query;
using latest::stream::QueryType;

constexpr double kMinProbeNs = 20e6;

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Keeps a computed value observable, so that a timed loop producing it
/// is not folded away.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Runs `body` (which makes `calls` calls) until kMinProbeNs has passed;
/// returns ns per call.
template <typename Body>
double NsPerCall(size_t calls, Body body) {
  if (calls == 0) return 0.0;
  size_t total = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    total += calls;
    elapsed = NanosSince(start);
  } while (elapsed < kMinProbeNs);
  return elapsed / static_cast<double>(total);
}

const char* TypeName(QueryType t) { return latest::stream::QueryTypeName(t); }

std::vector<Query> OfType(const std::vector<Query>& qs, QueryType t) {
  std::vector<Query> out;
  for (const Query& q : qs) {
    if (q.Type() == t) out.push_back(q);
  }
  return out;
}

class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

void ProbeStream(const LayerInputs& in, MetricSink* out) {
  const auto& objs = in.objects;
  const double ns = NsPerCall(objs.size(), [&] {
    latest::stream::WindowStore store(in.config.window.SliceDuration());
    for (const auto& o : objs) store.Append(o);
  });
  out->Add("stream.window_store.append_ns", ns, "ns");
}

void ProbeExact(const LayerInputs& in, MetricSink* out, Checks* checks) {
  const int64_t window = in.config.window.window_length_ms;
  latest::exact::ExactEvaluator ev(in.config.bounds, window);
  const Clock::time_point start = Clock::now();
  for (const auto& o : in.objects) ev.Insert(o);
  out->Add("exact.insert_ns",
           NanosSince(start) / static_cast<double>(in.objects.size()), "ns");
  if (!in.objects.empty()) ev.EvictExpired(in.objects.back().timestamp);

  for (QueryType t : {QueryType::kKeyword, QueryType::kSpatial,
                      QueryType::kHybrid}) {
    const std::vector<Query> qs = OfType(in.queries, t);
    std::vector<uint64_t> scalar(qs.size()), batched(qs.size());
    const double single = NsPerCall(qs.size(), [&] {
      for (size_t i = 0; i < qs.size(); ++i) {
        scalar[i] = ev.TrueSelectivity(qs[i]);
      }
    });
    constexpr size_t kBatch = 64;
    const double batch = NsPerCall(qs.size(), [&] {
      for (size_t i = 0; i < qs.size(); i += kBatch) {
        ev.TrueSelectivityBatch(qs.data() + i, std::min(kBatch, qs.size() - i),
                                batched.data() + i);
      }
    });
    checks->Require(scalar == batched,
                    std::string("exact: batched counts differ from scalar (") +
                        TypeName(t) + ")");
    out->Add(std::string("exact.true_selectivity_ns.") + TypeName(t), single,
             "ns");
    out->Add(std::string("exact.true_selectivity_batch_ns.") + TypeName(t),
             batch, "ns");
  }
}

void ProbeSimd(const LayerInputs& in, MetricSink* out) {
  std::vector<latest::geo::Point> locs;
  for (const auto& o : in.objects) locs.push_back(o.loc);
  std::vector<latest::geo::Rect> rects;
  for (const Query& q : in.queries) {
    if (q.range) rects.push_back(*q.range);
  }
  if (rects.empty()) rects.push_back(latest::geo::Rect{20, 20, 40, 40});
  uint64_t sink = 0;
  const double per_rect = NsPerCall(rects.size(), [&] {
    for (const auto& r : rects) {
      sink += latest::simd::RectContainCount(locs.data(), locs.size(), r);
    }
  });
  const double per_point = per_rect / static_cast<double>(locs.size());
  // A point is two doubles read once.
  out->Add("simd.rect_contain_count_ns_per_point", per_point, "ns");
  out->Add("simd.rect_contain_count_gb_per_s",
           sizeof(latest::geo::Point) / per_point, "GB/s");

  const size_t words = latest::simd::MaskWords(locs.size());
  std::vector<uint64_t> a(words), b(words);
  latest::simd::RectContainMask(locs.data(), locs.size(), rects[0], a.data());
  latest::simd::RectContainMask(locs.data(), locs.size(),
                                rects[rects.size() / 2], b.data());
  const double per_call = NsPerCall(1, [&] {
    sink += latest::simd::MaskAndPopcount(a.data(), b.data(), words);
  });
  const double per_word = per_call / static_cast<double>(words);
  // Two 8-byte words read per output word.
  out->Add("simd.mask_and_popcount_ns_per_word", per_word, "ns");
  out->Add("simd.mask_and_popcount_gb_per_s", 16.0 / per_word, "GB/s");
  Keep(sink);
}

void ProbeEstimators(const LayerInputs& in, MetricSink* out) {
  using latest::estimators::EstimatorKind;
  for (uint32_t k = 0; k < latest::estimators::kNumPaperEstimatorKinds; ++k) {
    const auto kind = static_cast<EstimatorKind>(k);
    latest::estimators::EstimatorConfig cfg = in.config.estimator;
    cfg.bounds = in.config.bounds;
    cfg.window = in.config.window;
    cfg.seed = in.config.seed * latest::estimators::kNumEstimatorKinds + k;
    auto created = latest::estimators::CreateEstimator(kind, cfg);
    if (!created.ok()) continue;
    auto est = std::move(created).value();
    latest::stream::SliceClock clock(cfg.window);
    const Clock::time_point start = Clock::now();
    for (const auto& o : in.objects) {
      for (uint32_t r = clock.Advance(o.timestamp); r > 0; --r) {
        est->OnSliceRotate();
      }
      est->Insert(o);
    }
    const std::string name = latest::estimators::EstimatorKindName(kind);
    out->Add("estimators." + name + ".insert_ns",
             NanosSince(start) / static_cast<double>(in.objects.size()), "ns");
    double sink = 0.0;
    const double ns = NsPerCall(in.queries.size(), [&] {
      for (const Query& q : in.queries) sink += est->Estimate(q);
    });
    out->Add("estimators." + name + ".estimate_ns", ns, "ns");
    Keep(sink);
  }
}

/// The tree on the module's schema (query type; five numeric features;
/// one class per estimator), trained on records derived from the
/// workload's queries with a label that depends on type and range area.
void ProbeTree(const LayerInputs& in, const latest::ml::FeatureSchema& schema,
               MetricSink* out) {
  std::vector<latest::ml::TrainingExample> examples;
  const double domain = in.config.bounds.Area();
  for (const Query& q : in.queries) {
    latest::ml::TrainingExample ex;
    ex.features.categorical = {static_cast<int>(q.Type())};
    const double area = q.range ? q.range->Area() / domain : 1.0;
    const double kw = q.keywords.empty() ? 0.0 : q.keywords[0] / 100.0;
    ex.features.numeric = {area, static_cast<double>(q.keywords.size()) / 4.0,
                           kw, q.range ? q.range->min_x / 100.0 : 0.5,
                           q.range ? q.range->min_y / 100.0 : 0.5};
    ex.features.numeric.resize(schema.num_numeric, 0.0);
    ex.label = static_cast<uint32_t>(
        (static_cast<uint32_t>(q.Type()) * 2 + (area < 0.01 ? 1 : 0)) %
        std::max<uint32_t>(1, schema.num_classes));
    examples.push_back(std::move(ex));
  }
  latest::ml::HoeffdingTree tree(schema, in.config.tree);
  const double train = NsPerCall(examples.size(), [&] {
    for (const auto& ex : examples) tree.Train(ex);
  });
  uint64_t sink = 0;
  const double predict = NsPerCall(examples.size(), [&] {
    for (const auto& ex : examples) sink += tree.Predict(ex.features);
  });
  out->Add("ml.tree.train_ns", train, "ns");
  out->Add("ml.tree.predict_ns", predict, "ns");
  Keep(sink);
}

/// Feeds the ordered stream to an in-process module with every call
/// timed, then batch-answers the query set and snapshots the module.
std::unique_ptr<LatestModule> ProbeCore(const LayerInputs& in, MetricSink* out,
                                        Checks* checks) {
  auto module = CreateModule(in.config);
  double object_ns = 0.0, objects = 0.0;
  std::vector<double> pre, inc;
  for (const Event& e : in.stream) {
    const Clock::time_point c = Clock::now();
    if (e.is_query) {
      const auto o = module->OnQuery(e.query);
      (o.phase == latest::core::Phase::kPretraining ? pre : inc)
          .push_back(NanosSince(c));
    } else {
      module->OnObject(e.object);
      object_ns += NanosSince(c);
      objects += 1.0;
    }
  }
  out->Add("core.on_object_ns", objects > 0 ? object_ns / objects : 0.0, "ns");
  out->Add("core.on_query_ns.pretraining", Mean(pre), "ns");
  out->Add("core.on_query_ns.incremental", Mean(inc), "ns");

  constexpr size_t kBatch = 64;
  std::vector<latest::core::QueryOutcome> outcomes(kBatch);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < in.queries.size(); i += kBatch) {
    module->OnQueryBatch(in.queries.data() + i,
                         std::min(kBatch, in.queries.size() - i),
                         outcomes.data());
  }
  out->Add("core.on_query_batch_ns_per_query",
           NanosSince(start) / static_cast<double>(in.queries.size()), "ns");

  latest::util::BinaryWriter writer;
  Clock::time_point t = Clock::now();
  module->SaveState(&writer);
  out->Add("core.save_state_ms", NanosSince(t) / 1e6, "ms");
  auto fresh = CreateModule(in.config);
  latest::util::BinaryReader reader(writer.buffer());
  t = Clock::now();
  const bool loaded = fresh->LoadState(&reader).ok();
  out->Add("core.load_state_ms", NanosSince(t) / 1e6, "ms");
  checks->Require(loaded, "core: LoadState rejected a fresh snapshot");
  return module;
}

void ProbeCodec(const LayerInputs& in, MetricSink* out, Checks* checks) {
  using namespace latest::net;
  std::string frame;
  uint64_t bad = 0;
  const double ns = NsPerCall(in.queries.size(), [&] {
    for (size_t i = 0; i < in.queries.size(); ++i) {
      QueryRequest req;
      req.request_id = i + 1;
      req.query = in.queries[i];
      frame.clear();
      EncodeQuery(req, &frame);
      QueryRequest decoded;
      bad += !DecodeQuery(std::string_view(frame).substr(kFrameHeaderBytes),
                          &decoded);
      QueryResponse resp;
      resp.request_id = decoded.request_id;
      resp.estimate = 1.5;
      resp.actual = i;
      frame.clear();
      EncodeQueryResponse(resp, &frame);
      QueryResponse back;
      bad += !DecodeQueryResponse(
          std::string_view(frame).substr(kFrameHeaderBytes), &back);
    }
  });
  checks->Require(bad == 0, "net: codec round trip failed");
  out->Add("net.codec.query_frame_ns", ns, "ns");
}

/// A standalone Batcher at the daemon's configuration, fed the stream's
/// first events on serve_paced's schedule.
void ProbeBatcher(const LayerInputs& in, MetricSink* out) {
  using namespace latest::net;
  Batcher batcher{BatcherConfig{}};
  std::vector<double> waits_us, sizes;
  std::thread consumer([&] {
    std::vector<AdmittedEvent> batch;
    while (batcher.WaitForBatch(&batch)) {
      sizes.push_back(static_cast<double>(batch.size()));
      for (const auto& e : batch) {
        waits_us.push_back(static_cast<double>(e.dequeue_micros - e.admit_micros));
      }
    }
  });
  const size_t n = std::min<size_t>(in.stream.size(), 1500);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPacedEventsPerSecond));
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(start + period * i);
    AdmittedEvent e;
    e.kind = in.stream[i].is_query ? AdmittedEvent::Kind::kQuery
                                   : AdmittedEvent::Kind::kIngest;
    e.request_id = i + 1;
    e.object = in.stream[i].object;
    e.query = in.stream[i].query;
    uint32_t backoff = 0;
    batcher.Admit(std::move(e), false, &backoff);
  }
  batcher.Stop();
  consumer.join();
  out->Add("net.batcher.wait_us", Mean(waits_us), "us");
  out->Add("net.batch_size", Mean(sizes), "events");
}

void ProbeStatusRtt(LatestModule* module, MetricSink* out, Checks* checks) {
  latest::net::ServeServer server(latest::net::ServeServerConfig{}, module);
  std::vector<double> rtt_us;
  if (server.Start().ok()) {
    auto client = latest::net::ServeClient::Connect(server.port());
    for (uint64_t i = 1; client.ok() && i <= 500; ++i) {
      const Clock::time_point c = Clock::now();
      latest::net::StatusRequest req;
      req.request_id = i;
      if (!client.value()->SendStatus(req).ok()) break;
      auto resp = client.value()->ReadResponse();
      if (!resp.ok()) break;
      rtt_us.push_back(NanosSince(c) / 1e3);
    }
    server.Stop();
  }
  checks->Require(rtt_us.size() == 500, "net: STATUS round trips failed");
  out->Add("net.status_rtt_us", Median(rtt_us), "us");
}

/// Stage means from a served replay of the stream: for workloads that
/// serve nothing themselves, one connection replays the stream pipelined
/// (64 outstanding) into a fresh module.
ServerStages ServedStages(const LayerInputs& in, Checks* checks) {
  auto module = CreateModule(in.config);
  latest::net::ServeServerConfig cfg;
  cfg.trace_recent_capacity = 4096;
  latest::net::ServeServer server(cfg, module.get());
  ServerStages stages;
  if (!server.Start().ok()) {
    checks->Require(false, "net: probe server did not start");
    return stages;
  }
  {
    auto client = latest::net::ServeClient::Connect(server.port());
    bool served = false;
    if (client.ok()) {
      const StreamReport r = RunPipelined(client.value().get(), in.stream, 64);
      served = r.status_ok && r.ops.ingest_failed + r.ops.query_failed == 0;
    }
    checks->Require(served, "net: probe replay failed");
  }  // The connection closes before the server stops.
  server.Stop();
  return SummarizeServerStages(server.request_trace().Recent());
}

}  // namespace

ServerStages SummarizeServerStages(
    const std::vector<latest::obs::RequestTraceStore::Record>& records) {
  using Class = latest::obs::RequestTraceStore::RequestClass;
  ServerStages s;
  std::vector<double> wait, form, module, flush;
  std::map<uint64_t, size_t> batch_events;
  std::map<std::pair<uint64_t, int64_t>, double> runs;  // Module windows.
  int64_t first = INT64_MAX, last = INT64_MIN;
  for (const auto& r : records) {
    if (!r.flushed) continue;
    ++batch_events[r.batch_seq];
    first = std::min(first, r.admit_micros);
    last = std::max(last, r.admit_micros + r.total_ns / 1000);
    if (r.request_class != Class::kQuery) continue;
    wait.push_back(r.queue_wait_ns / 1e6);
    form.push_back(r.batch_form_ns / 1e6);
    module.push_back(r.module_ns / 1e6);
    flush.push_back(r.flush_ns / 1e6);
    runs[{r.batch_seq, r.run_start_micros}] = r.module_ns / 1e6;
    s.ground_truth_total_ms += r.ground_truth_ns / 1e6;
    s.estimate_total_ms += r.estimate_ns / 1e6;
    s.model_total_ms += r.model_ns / 1e6;
  }
  s.records = wait.size();
  s.queue_wait_p50_ms = Median(wait);
  s.queue_wait_ms = Mean(wait);
  s.batch_form_ms = Mean(form);
  s.module_ms = Mean(module);
  s.flush_ms = Mean(flush);
  for (const auto& [key, ms] : runs) s.module_total_ms += ms;
  size_t events = 0;
  for (const auto& [seq, n] : batch_events) events += n;
  s.events_per_batch = batch_events.empty()
                           ? 0.0
                           : static_cast<double>(events) /
                                 static_cast<double>(batch_events.size());
  if (last > first) s.span_ms = static_cast<double>(last - first) / 1e3;
  return s;
}

std::vector<Metric> RunLayerProbes(const LayerInputs& in,
                                   const ServerStages& served,
                                   Checks* checks) {
  MetricSink out;
  ProbeStream(in, &out);
  ProbeExact(in, &out, checks);
  ProbeSimd(in, &out);
  ProbeEstimators(in, &out);
  std::unique_ptr<LatestModule> module = ProbeCore(in, &out, checks);
  ProbeTree(in, module->model().schema(), &out);
  ProbeCodec(in, &out, checks);
  ProbeBatcher(in, &out);
  ProbeStatusRtt(module.get(), &out, checks);
  const ServerStages st =
      served.records > 0 ? served : ServedStages(in, checks);
  out.Add("net.server.queue_wait_ms", st.queue_wait_ms, "ms");
  out.Add("net.server.module_ms", st.module_ms, "ms");
  out.Add("net.server.flush_ms", st.flush_ms, "ms");
  out.Add("net.server.events_per_batch", st.events_per_batch, "events");
  return out.Take();
}

}  // namespace latestbench
