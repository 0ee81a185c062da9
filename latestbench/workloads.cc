// The three workloads.
//
//   serve_paced        one loopback connection carries an ordered stream
//                      (ingests and queries interleaved) on a fixed open-
//                      loop schedule far below the server's capacity; each
//                      request is timed from its due time. At light load
//                      the module does microseconds of work, so the
//                      batcher tick and the socket path make the latency.
//   serve_query_flood  a frozen window of objects, preloaded in order over
//                      one connection in set-up, then a few pipelined
//                      connections flood keyword, spatial and hybrid
//                      queries. Batches fill to max_batch, so the module's
//                      batch path, the exact kernels and the shadow
//                      estimators do the work.
//   module_replay      in process, one thread, no sockets: a drifting
//                      stream replayed through warm-up, pre-training and
//                      incremental learning in production mode. The write-
//                      heavy path; the net layer is not on it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "client.h"
#include "net/serve_server.h"
#include "obs/span.h"
#include "util/serialization.h"

namespace latestbench {

namespace {

using latest::core::LatestConfig;
using latest::core::LatestModule;
using latest::core::Phase;
using latest::net::ServeClient;
using latest::net::ServeServer;

constexpr uint32_t kIncremental = static_cast<uint32_t>(Phase::kIncremental);

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "latestbench: %s\n", what.c_str());
  std::exit(2);
}

/// A module, the server over it, and one client connection.
struct ServeStack {
  std::unique_ptr<LatestModule> module;
  std::unique_ptr<ServeServer> server;
  std::unique_ptr<ServeClient> client;

  ServeStack(const LatestConfig& config, size_t trace_capacity, bool traced) {
    module = CreateModule(config);
    latest::net::ServeServerConfig serve;
    serve.trace_recent_capacity = trace_capacity;
    server = std::make_unique<ServeServer>(serve, module.get());
    if (auto s = server->Start(); !s.ok()) Fatal("server: " + s.ToString());
    client = Connect(traced);
  }
  std::unique_ptr<ServeClient> Connect(bool traced) const {
    auto c = traced ? ServeClient::ConnectNegotiated(server->port())
                    : ServeClient::Connect(server->port());
    if (!c.ok()) Fatal("connect: " + c.status().ToString());
    if (traced && !c.value()->trace_enabled()) Fatal("trace not negotiated");
    return std::move(c).value();
  }
  ~ServeStack() {
    client.reset();
    if (server) server->Stop();
  }
};

/// Installs a span collector for a traced pass and removes it after.
class TracingScope {
 public:
  TracingScope() : collector_(1 << 16, 1) {
    latest::obs::SetSpanCollector(&collector_);
  }
  ~TracingScope() { latest::obs::SetSpanCollector(nullptr); }
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;

 private:
  latest::obs::SpanCollector collector_;
};

LayerInputs MakeLayerInputs(const LatestConfig& config,
                            const std::vector<Event>& stream,
                            std::vector<latest::stream::Query> queries) {
  LayerInputs in;
  in.config = config;
  in.stream = stream;
  const bool stream_queries = queries.empty();
  for (const Event& e : stream) {
    if (!e.is_query) {
      in.objects.push_back(e.object);
    } else if (stream_queries) {
      queries.push_back(e.query);
    }
  }
  const int64_t last = in.objects.empty() ? 0 : in.objects.back().timestamp;
  for (auto& q : queries) q.timestamp = last;
  in.queries = std::move(queries);
  return in;
}

/// Checks the answers of an ordered stream served over one connection:
/// each request answered exactly once, each actual equal to the brute-
/// force count (a wrong one is a failed query), each estimate finite and
/// non-negative, and the final STATUS counters equal to what was sent.
void CheckStreamReport(const char* what, const std::vector<Event>& events,
                       const std::vector<uint64_t>& truth,
                       StreamReport* report, Checks* checks) {
  uint64_t duplicates = 0, bad_estimates = 0;
  size_t ordinal = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    duplicates += report->answered[i] > 1;
    if (!events[i].is_query) continue;
    const auto& a = report->answers[ordinal];
    const size_t k = ordinal++;
    if (a.request_id == 0) continue;  // Refused or unanswered: failed.
    if (a.actual != truth[k]) ++report->ops.query_failed;
    if (!std::isfinite(a.estimate) || a.estimate < 0.0) ++bad_estimates;
  }
  const std::string w = what;
  checks->Require(duplicates == 0, w + ": requests answered more than once");
  checks->Require(bad_estimates == 0, w + ": non-finite or negative estimate");
  checks->Require(report->unexpected_frames == 0, w + ": unexpected frames");
  checks->Require(report->status_ok, w + ": no STATUS response");
  checks->Require(report->status.objects_ingested == report->acks,
                  w + ": STATUS objects_ingested differs from ingests sent");
  checks->Require(report->status.queries_answered == report->query_responses,
                  w + ": STATUS queries_answered differs from queries sent");
}

double MeanIncrementalAccuracy(const std::vector<latest::net::QueryResponse>& a,
                               const std::vector<uint64_t>& truth) {
  double sum = 0.0;
  uint64_t n = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].phase != kIncremental) continue;
    sum += Accuracy(a[k].estimate, truth[k]);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// The end-to-end metrics, which every workload reports in this order.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double query_ms = 0.0;
  double ingest_ms = 0.0;
  double mean_accuracy = 0.0;
  double state_bytes = 0.0;

  std::vector<Metric> ToMetrics() const {
    return {{"setup_s", setup_s, "s"},
            {"ops_per_s", ops_per_s, "ops/s"},
            {"query_ms", query_ms, "ms"},
            {"ingest_ms", ingest_ms, "ms"},
            {"mean_accuracy", mean_accuracy, "ratio"},
            {"state_bytes", state_bytes, "bytes"}};
  }
};

/// The median over consecutive blocks of each block's `q` quantile, so
/// that a host stall moves the blocks it falls in rather than the figure.
double OverBlocks(const std::vector<double>& samples, size_t blocks,
                  double q) {
  const size_t n = samples.size();
  blocks = std::clamp<size_t>(blocks, 1, std::max<size_t>(1, n));
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const std::vector<double> part(samples.begin() + n * b / blocks,
                                   samples.begin() + n * (b + 1) / blocks);
    if (!part.empty()) per_block.push_back(Quantile(part, q));
  }
  return Median(per_block);
}

/// The median of the least disturbed stretch of a run: `samples`, in
/// arrival order, cut into blocks of `block` consecutive samples, and the
/// lowest of the blocks' medians. On this kind of shared VM a busy host
/// slows every wake-up from idle for minutes at a time, so the run's
/// whole-run median moves by half with the host; the quietest block still
/// carries everything the program does per request (the batcher tick, the
/// module, the socket path) and moves with those.
double QuietestBlockMedian(const std::vector<double>& samples, size_t block) {
  if (samples.empty()) return 0.0;
  const size_t blocks = std::max<size_t>(1, samples.size() / block);
  double lowest = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < blocks; ++b) {
    const std::vector<double> part(
        samples.begin() + samples.size() * b / blocks,
        samples.begin() + samples.size() * (b + 1) / blocks);
    lowest = std::min(lowest, Quantile(part, 0.5));
  }
  return lowest;
}

/// Block lengths of serve_paced's latencies: about 0.1 s of ingests and
/// 0.2 s of queries on its schedule, enough samples that a block's median
/// sits on the middle one of the three batch positions.
constexpr size_t kPacedIngestBlock = 100;
constexpr size_t kPacedQueryBlock = 20;

/// Blocks of a paced run (responses arrive in schedule order).
constexpr double kBlockSeconds = 5.0;

size_t PacedBlocks(const StreamReport& r) {
  return static_cast<size_t>(std::max(1.0, std::round(r.wall_s / kBlockSeconds)));
}

double StateBytes(const LatestModule& module) {
  latest::util::BinaryWriter writer;
  module.SaveState(&writer);
  return static_cast<double>(writer.buffer().size());
}

std::string DetailLine(const char* tag, const std::map<std::string, double>& v) {
  return std::string(tag) + " " + JsonNumbers(v);
}

void AddOverhead(const std::vector<Metric>& untraced,
                 const std::vector<Metric>& traced,
                 std::map<std::string, double>* out) {
  for (const Metric& t : traced) {
    for (const Metric& u : untraced) {
      if (u.name != t.name) continue;
      (*out)["traced." + t.name] = t.value;
      (*out)["overhead." + t.name] = t.value - u.value;
    }
  }
}

// ---------------------------------------------------------------------------
// serve_paced
// ---------------------------------------------------------------------------

constexpr int64_t kPacedWindowMs = 1000;
constexpr int kServeSetups = 100;

struct PacedPass {
  StreamReport report;
  EndToEnd e2e;
  ServerStages stages;
};

PacedPass PacedOnce(const LatestConfig& config,
                    const std::vector<Event>& events,
                    const std::vector<uint64_t>& truth, bool traced,
                    Checks* checks) {
  std::unique_ptr<TracingScope> tracing;
  if (traced) tracing = std::make_unique<TracingScope>();
  // Set up several times and keep the last stack for the measurement.
  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kServeSetups; ++i) {
    stack.reset();
    const Clock::time_point t = Clock::now();
    stack = std::make_unique<ServeStack>(config, events.size() + 16, traced);
    setup_s.push_back(SecondsSince(t));
  }
  PacedPass pass;
  pass.report = RunPaced(stack->client.get(), events,
                         1.0 / kPacedEventsPerSecond, traced);
  stack->client.reset();
  stack->server->Stop();
  if (traced) {
    pass.stages = SummarizeServerStages(stack->server->request_trace().Recent());
  }
  CheckStreamReport(traced ? "serve_paced traced" : "serve_paced", events,
                    truth, &pass.report, checks);
  const StreamReport& r = pass.report;
  pass.e2e.setup_s = Median(setup_s);
  pass.e2e.ops_per_s = static_cast<double>(r.acks + r.query_responses) / r.wall_s;
  pass.e2e.query_ms = QuietestBlockMedian(r.query_latency_ms, kPacedQueryBlock);
  pass.e2e.ingest_ms =
      QuietestBlockMedian(r.ingest_latency_ms, kPacedIngestBlock);
  pass.e2e.mean_accuracy = MeanIncrementalAccuracy(r.answers, truth);
  pass.e2e.state_bytes = StateBytes(*stack->module);
  return pass;
}

/// The batching contract of OnQueryBatch: an in-process module fed the
/// same ordered stream through OnObject/OnQuery answers bit-identically.
void CheckAgainstInProcess(const LatestConfig& config,
                           const std::vector<Event>& events,
                           const StreamReport& report, Checks* checks) {
  auto module = CreateModule(config);
  size_t k = 0;
  uint64_t mismatches = 0;
  for (const Event& e : events) {
    if (!e.is_query) {
      module->OnObject(e.object);
      continue;
    }
    const auto out = module->OnQuery(e.query);
    const auto& served = report.answers[k++];
    if (served.request_id == 0) continue;
    mismatches += std::memcmp(&out.estimate, &served.estimate,
                              sizeof(double)) != 0 ||
                  out.actual != served.actual ||
                  static_cast<uint32_t>(out.phase) != served.phase;
  }
  checks->Require(mismatches == 0,
                  "serve_paced: " + std::to_string(mismatches) +
                      " served answers differ from the in-process module");
}

}  // namespace

WorkloadResult RunServePaced(const Options& opts) {
  WorkloadResult result;
  const double seconds = opts.quick ? 4.0 : opts.seconds;
  // Two objects per event-time ms, so the 1000 ms window holds 2000
  // objects; queries (one per ten objects) start once it is full. The
  // stream is sized to take `seconds` on the schedule.
  StreamSpec spec;
  spec.objects = static_cast<uint64_t>(
      (seconds * kPacedEventsPerSecond + 200.0) / 1.1);
  spec.duration_ms = static_cast<int64_t>(spec.objects / 2);
  spec.query_start_ms = kPacedWindowMs;
  spec.objects_per_query = 10;
  spec.seed = opts.seed;
  const std::vector<Event> events = MakeStream(spec);
  const std::vector<uint64_t> truth = StreamTruth(events, kPacedWindowMs);
  const LatestConfig config = ServeModuleConfig(opts.seed, kPacedWindowMs);

  PacedPass pass = PacedOnce(config, events, truth, false, &result.checks);
  CheckAgainstInProcess(config, events, pass.report, &result.checks);
  result.ops = pass.report.ops;
  result.end_to_end = pass.e2e.ToMetrics();
  const StreamReport& r = pass.report;
  result.detail_lines.push_back(DetailLine(
      "PACED",
      {{"events", static_cast<double>(events.size())},
       {"queries_timed", static_cast<double>(r.query_latency_ms.size())},
       {"ingests_timed", static_cast<double>(r.ingest_latency_ms.size())},
       {"events_per_s", kPacedEventsPerSecond},
       {"query_p50_ms", Quantile(r.query_latency_ms, 0.50)},
       {"query_p95_ms", Quantile(r.query_latency_ms, 0.95)},
       {"query_p99_ms", Quantile(r.query_latency_ms, 0.99)},
       {"ingest_p50_ms", Quantile(r.ingest_latency_ms, 0.50)},
       {"ingest_p95_ms", Quantile(r.ingest_latency_ms, 0.95)},
       {"ingest_p99_ms", Quantile(r.ingest_latency_ms, 0.99)},
       {"wall_s", r.wall_s},
       {"generator_lateness_p50_ms", Quantile(r.lateness_ms, 0.5)},
       {"generator_lateness_p99_ms", Quantile(r.lateness_ms, 0.99)},
       {"generator_lateness_max_ms", Quantile(r.lateness_ms, 1.0)}}));
  if (!opts.trace) return result;

  PacedPass traced = PacedOnce(config, events, truth, true, &result.checks);
  result.ops.Add(traced.report.ops);
  std::map<std::string, double> detail;
  const double p50 = Quantile(traced.report.query_latency_ms, 0.50);
  detail["traced.query_p50_ms"] = p50;
  if (p50 > 0.0) {
    detail["share.query_p50.batcher_wait"] =
        traced.stages.queue_wait_p50_ms / p50;
  }
  AddOverhead(result.end_to_end, traced.e2e.ToMetrics(), &detail);
  // Shares of the traced mean query latency; the stage figures are means
  // over the same queries, so the shares add up.
  const double mean = Mean(traced.report.query_latency_ms);
  const ServerStages& st = traced.stages;
  if (mean > 0.0) {
    detail["share.query_mean.batcher_wait"] = st.queue_wait_ms / mean;
    detail["share.query_mean.batch_form"] = st.batch_form_ms / mean;
    detail["share.query_mean.module"] = st.module_ms / mean;
    detail["share.query_mean.flush"] = st.flush_ms / mean;
    detail["share.query_mean.socket_and_client"] =
        1.0 - (st.queue_wait_ms + st.batch_form_ms + st.module_ms +
               st.flush_ms) / mean;
  }
  result.detail_lines.push_back(DetailLine("TRACE", detail));
  result.per_layer = RunLayerProbes(
      MakeLayerInputs(config, events, {}), traced.stages, &result.checks);
  return result;
}

// ---------------------------------------------------------------------------
// serve_query_flood
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kFloodWindowMs = 4000;
constexpr int kFloodSetups = 5;
constexpr uint32_t kFloodConnections = 2;
constexpr uint32_t kFloodWindow = 128;
constexpr uint32_t kPreloadWindow = 4096;
constexpr size_t kPoolSize = 1536;
constexpr size_t kFloodBlock = 4096;

struct FloodPass {
  std::vector<FloodReport> conns;
  StreamReport trickle;
  double qps = 0.0;
  double latency_ms = 0.0;      // Median over blocks of the block p50.
  double latency_p95_ms = 0.0;  // Whole pass.
  double mean_accuracy = 0.0;
  uint64_t answered = 0;
  uint64_t responses = 0;
};

/// Ingests that leave every pool answer unchanged: at (100, 100), outside
/// every half-open query range, with a keyword no query uses.
std::vector<Event> InertIngests(size_t n, int64_t ts) {
  std::vector<Event> events(n);
  for (size_t i = 0; i < n; ++i) {
    latest::stream::GeoTextObject& o = events[i].object;
    o.oid = (uint64_t{1} << 40) + i;
    o.loc = {Domain().max_x, Domain().max_y};
    o.keywords = {1000};
    o.timestamp = ts;
  }
  return events;
}

/// The flood connections, plus one connection carrying a trickle of
/// inert ingests on serve_paced's schedule, which times how long an
/// ingest waits behind the flood.
FloodPass Flood(const ServeStack& stack,
                const std::vector<latest::stream::Query>& pool,
                const std::vector<uint64_t>& truth, double seconds,
                bool traced) {
  const uint32_t conns = std::min<uint32_t>(
      kFloodConnections,
      std::max<uint32_t>(1, std::thread::hardware_concurrency()));
  std::vector<std::unique_ptr<ServeClient>> clients;
  for (uint32_t c = 0; c < conns; ++c) clients.push_back(stack.Connect(traced));
  const std::unique_ptr<ServeClient> trickle_client = stack.Connect(traced);
  const std::vector<Event> trickle = InertIngests(
      static_cast<size_t>(seconds * kPacedEventsPerSecond),
      pool.front().timestamp);
  FloodPass pass;
  pass.conns.resize(conns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      pass.conns[c] = RunFloodConnection(clients[c].get(), pool, truth,
                                         c * pool.size() / conns,
                                         kFloodWindow, deadline, traced);
    });
  }
  pass.trickle = RunPaced(trickle_client.get(), trickle,
                          1.0 / kPacedEventsPerSecond, traced);
  for (auto& t : threads) t.join();
  // Queries per second and latency are medians over blocks of kFloodBlock
  // consecutive answers (about a second each) before the deadline: they
  // ignore stretches slowed by other work on the host.
  std::vector<std::pair<Clock::time_point, double>> answers;
  double accuracy = 0.0;
  for (const FloodReport& r : pass.conns) {
    accuracy += r.accuracy_sum;
    pass.answered += r.answered;
    pass.responses += r.query_responses;
    for (size_t i = 0; i < r.answer_times.size(); ++i) {
      answers.emplace_back(r.answer_times[i], r.latency_ms[i]);
    }
  }
  std::sort(answers.begin(), answers.end());
  std::vector<double> block_qps, latency_ms;
  for (size_t b = 0; (b + 1) * kFloodBlock < answers.size(); ++b) {
    const double s = std::chrono::duration<double>(
                         answers[(b + 1) * kFloodBlock].first -
                         answers[b * kFloodBlock].first)
                         .count();
    block_qps.push_back(static_cast<double>(kFloodBlock) / s);
  }
  for (const auto& a : answers) latency_ms.push_back(a.second);
  pass.qps = Median(block_qps);
  if (block_qps.empty() && answers.size() > 1) {  // Quick runs: few answers.
    pass.qps = static_cast<double>(answers.size() - 1) /
               std::chrono::duration<double>(answers.back().first -
                                             answers.front().first)
                   .count();
  }
  pass.latency_ms = OverBlocks(latency_ms, answers.size() / kFloodBlock, 0.5);
  pass.latency_p95_ms = Quantile(latency_ms, 0.95);
  pass.mean_accuracy =
      pass.answered == 0 ? 0.0 : accuracy / static_cast<double>(pass.answered);
  return pass;
}

void CheckFlood(const char* what, const FloodPass& pass, OpCounts* ops,
                Checks* checks) {
  ops->Add(pass.trickle.ops);
  uint64_t bad = 0, unexpected = pass.trickle.unexpected_frames, early = 0;
  uint64_t dup = 0;
  for (uint8_t n : pass.trickle.answered) dup += n > 1;
  for (const FloodReport& r : pass.conns) {
    ops->Add(r.ops);
    bad += r.bad_estimates;
    dup += r.duplicates;
    unexpected += r.unexpected_frames;
    early += r.non_incremental;
  }
  const std::string w = what;
  checks->Require(bad == 0, w + ": non-finite or negative estimate");
  checks->Require(dup == 0, w + ": queries answered more than once");
  checks->Require(unexpected == 0, w + ": unexpected frames");
  checks->Require(early == 0, w + ": answers outside the incremental phase");
}

}  // namespace

WorkloadResult RunServeQueryFlood(const Options& opts) {
  WorkloadResult result;
  const double seconds = opts.quick ? 1.0 : opts.seconds;
  // 200k objects in the 4000 ms window (about 9 MB of columns, several
  // times the L2 cache), preceded by 10% more so that the warm-up ends
  // and 80 queries, one per 250 objects, drive pre-training (40) and the
  // first incremental queries.
  const uint64_t window_objects = opts.quick ? 20000 : 200000;
  StreamSpec spec;
  spec.objects = window_objects * 11 / 10;
  spec.duration_ms = kFloodWindowMs * 11 / 10;
  spec.query_start_ms = kFloodWindowMs;
  spec.objects_per_query = static_cast<uint32_t>(window_objects / 10 / 80);
  spec.seed = opts.seed;
  const std::vector<Event> preload = MakeStream(spec);
  std::vector<latest::stream::GeoTextObject> objects;
  for (const Event& e : preload) {
    if (!e.is_query) objects.push_back(e.object);
  }
  const std::vector<latest::stream::Query> pool =
      MakeQueryPool(kPoolSize, objects.back().timestamp, opts.seed);
  const LatestConfig config = ServeModuleConfig(opts.seed, kFloodWindowMs);
  const size_t trace_capacity = opts.trace ? (1u << 16) : 256;

  // Set-up: module, server, connection, in-order preload through
  // pre-training. Several times; the last stack stays up.
  std::vector<double> setup_s;
  std::vector<StreamReport> preloads;
  // Declared before the stack: the collector must outlive the server
  // threads that may still emit spans into it.
  std::unique_ptr<TracingScope> tracing;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kFloodSetups; ++i) {
    stack.reset();
    const Clock::time_point t = Clock::now();
    stack = std::make_unique<ServeStack>(config, trace_capacity, false);
    preloads.push_back(
        RunPipelined(stack->client.get(), preload, kPreloadWindow));
    setup_s.push_back(SecondsSince(t));
  }
  stack->client.reset();
  const std::vector<uint64_t> preload_truth =
      StreamTruth(preload, kFloodWindowMs);
  for (StreamReport& r : preloads) {
    CheckStreamReport("serve_query_flood preload", preload, preload_truth, &r,
                      &result.checks);
    result.checks.Require(!r.answers.empty() &&
                              r.answers.back().phase == kIncremental,
                          "serve_query_flood: preload did not reach the "
                          "incremental phase");
    result.ops.Add(r.ops);
  }
  const std::vector<uint64_t> truth = PoolTruth(objects, pool, kFloodWindowMs);

  const FloodPass pass = Flood(*stack, pool, truth, seconds, false);
  CheckFlood("serve_query_flood", pass, &result.ops, &result.checks);
  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.ops_per_s = pass.qps;
  e2e.query_ms = pass.latency_ms;
  e2e.ingest_ms = OverBlocks(pass.trickle.ingest_latency_ms,
                             PacedBlocks(pass.trickle), 0.5);
  e2e.mean_accuracy = pass.mean_accuracy;
  result.detail_lines.push_back(DetailLine(
      "FLOOD",
      {{"preload_objects", static_cast<double>(objects.size())},
       {"pool_queries", static_cast<double>(pool.size())},
       {"connections", static_cast<double>(pass.conns.size())},
       {"window_per_connection", kFloodWindow},
       {"answered", static_cast<double>(pass.answered)},
       {"trickle_ingests", static_cast<double>(pass.trickle.acks)},
       {"query_p95_ms", pass.latency_p95_ms},
       {"ingest_p95_ms", Quantile(pass.trickle.ingest_latency_ms, 0.95)},
       {"serve_qps", pass.qps},
       {"preload_s", preloads.back().wall_s}}));

  std::map<std::string, double> detail;
  FloodPass traced_pass;
  EndToEnd traced_e2e;
  if (opts.trace) {
    tracing = std::make_unique<TracingScope>();
    traced_pass = Flood(*stack, pool, truth, seconds, true);
    CheckFlood("serve_query_flood traced", traced_pass, &result.ops,
               &result.checks);
    traced_e2e = e2e;
    traced_e2e.ops_per_s = traced_pass.qps;
    traced_e2e.query_ms = traced_pass.latency_ms;
    traced_e2e.ingest_ms = OverBlocks(traced_pass.trickle.ingest_latency_ms,
                                      PacedBlocks(traced_pass.trickle), 0.5);
    traced_e2e.mean_accuracy = traced_pass.mean_accuracy;
  }
  // Every request the server answered came from a preload, a flood or a
  // trickle.
  latest::net::StatusRequest status_req;
  status_req.request_id = 1;
  auto status_client = stack->Connect(false);
  auto status = status_client->SendStatus(status_req).ok()
                    ? status_client->ReadResponse()
                    : latest::util::Result<latest::net::ServeResponse>(
                          latest::util::Status::Internal("send"));
  const StreamReport& preload_report = preloads.back();
  result.checks.Require(
      status.ok() && status->status.queries_answered ==
                         preload_report.query_responses + pass.responses +
                             traced_pass.responses,
      "serve_query_flood: STATUS queries_answered differs from queries sent");
  result.checks.Require(
      status.ok() && status->status.objects_ingested ==
                         preload_report.acks + pass.trickle.acks +
                             traced_pass.trickle.acks,
      "serve_query_flood: STATUS objects_ingested differs from ingests sent");
  status_client.reset();
  stack->server->Stop();
  e2e.state_bytes = StateBytes(*stack->module);
  result.end_to_end = e2e.ToMetrics();
  if (!opts.trace) return result;
  traced_e2e.state_bytes = e2e.state_bytes;
  AddOverhead(result.end_to_end, traced_e2e.ToMetrics(), &detail);

  const ServerStages st =
      SummarizeServerStages(stack->server->request_trace().Recent());
  if (st.module_total_ms > 0.0) {
    detail["share.batch_thread.module"] = st.module_total_ms / st.span_ms;
    detail["share.module.ground_truth"] =
        st.ground_truth_total_ms / st.module_total_ms;
    detail["share.module.estimate"] = st.estimate_total_ms / st.module_total_ms;
    detail["share.module.model"] = st.model_total_ms / st.module_total_ms;
  }
  result.detail_lines.push_back(DetailLine("TRACE", detail));
  result.per_layer = RunLayerProbes(MakeLayerInputs(config, preload, pool), st,
                                    &result.checks);
  return result;
}

// ---------------------------------------------------------------------------
// module_replay
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t kReplayWindowMs = 1000;
constexpr uint32_t kReplayPretrainQueries = 100;
constexpr uint32_t kReplayStreams = 32;

LatestConfig ReplayModuleConfig(uint64_t seed) {
  LatestConfig config;
  config.bounds = Domain();
  config.window.window_length_ms = kReplayWindowMs;
  config.window.num_slices = 10;
  config.pretrain_queries = kReplayPretrainQueries;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.maintain_shadow_estimators = false;
  config.alpha = 0.0;
  config.seed = seed;
  return config;
}

struct ReplayRound {
  double create_s = 0.0;
  double replay_s = 0.0;
  std::vector<latest::core::QueryOutcome> outcomes;
  std::unique_ptr<LatestModule> module;
  // Per-call latency of the round, and time spent per call class.
  double query_mean_ms = 0.0, query_p95_ms = 0.0;
  double ingest_mean_ms = 0.0, ingest_p95_ms = 0.0;
  double object_ms = 0.0, query_ms = 0.0;
  // Traced rounds only: the module's own stage split of the queries.
  double truth_ms = 0.0, estimate_ms = 0.0, model_ms = 0.0;
};

/// One replay of `stream` on a fresh module, every call timed (one clock
/// read per call). Traced rounds send queries through the k = 1 batch
/// entry, which also reports the module's ground-truth / estimate / model
/// split and is bit-identical to OnQuery by the batching contract.
ReplayRound ReplayOnce(const LatestConfig& config,
                       const std::vector<Event>& stream, bool traced) {
  ReplayRound round;
  Clock::time_point t = Clock::now();
  round.module = CreateModule(config);
  round.create_s = SecondsSince(t);
  LatestModule* m = round.module.get();
  round.outcomes.reserve(stream.size() / 10 + 1);
  std::vector<double> object_ms, query_ms;
  object_ms.reserve(stream.size());
  latest::core::QueryOutcome out;
  latest::core::QueryStageBreakdown stages;
  const Clock::time_point start = Clock::now();
  Clock::time_point prev = start;
  for (const Event& e : stream) {
    if (!e.is_query) {
      m->OnObject(e.object);
    } else if (!traced) {
      round.outcomes.push_back(m->OnQuery(e.query));
    } else {
      m->OnQueryBatch(&e.query, 1, &out, nullptr, &stages);
      round.truth_ms += stages.ground_truth_ms;
      round.estimate_ms += stages.estimate_ms;
      round.model_ms += stages.model_ms;
      round.outcomes.push_back(out);
    }
    const Clock::time_point now = Clock::now();
    (e.is_query ? query_ms : object_ms)
        .push_back(std::chrono::duration<double, std::milli>(now - prev).count());
    prev = now;
  }
  round.replay_s = std::chrono::duration<double>(prev - start).count();
  round.query_mean_ms = Mean(query_ms);
  round.query_p95_ms = Quantile(query_ms, 0.95);
  round.ingest_mean_ms = Mean(object_ms);
  round.ingest_p95_ms = Quantile(object_ms, 0.95);
  for (double v : object_ms) round.object_ms += v;
  for (double v : query_ms) round.query_ms += v;
  return round;
}

/// Checks one round: every actual against the brute-force count (a wrong
/// one is a failed query), estimates finite and non-negative, the three
/// phases in order with exactly the configured pre-training queries, and
/// estimates bit-identical to the first round's.
void CheckRound(const ReplayRound& round, const std::vector<uint64_t>& truth,
                const std::vector<double>& first_estimates, OpCounts* ops,
                Checks* checks) {
  uint64_t pretraining = 0, incremental = 0, order_breaks = 0, bad = 0,
           diverged = 0;
  int last_phase = 0;
  for (size_t k = 0; k < round.outcomes.size(); ++k) {
    const auto& o = round.outcomes[k];
    if (o.actual != truth[k]) ++ops->query_failed;
    if (!std::isfinite(o.estimate) || o.estimate < 0.0) ++bad;
    const int phase = static_cast<int>(o.phase);
    order_breaks += phase < last_phase;
    last_phase = phase;
    pretraining += o.phase == Phase::kPretraining;
    incremental += o.phase == Phase::kIncremental;
    if (!first_estimates.empty()) {
      diverged += std::memcmp(&o.estimate, &first_estimates[k],
                              sizeof(double)) != 0;
    }
  }
  checks->Require(bad == 0, "module_replay: non-finite or negative estimate");
  checks->Require(order_breaks == 0, "module_replay: phases out of order");
  checks->Require(pretraining == kReplayPretrainQueries,
                  "module_replay: " + std::to_string(pretraining) +
                      " pre-training queries, configured " +
                      std::to_string(kReplayPretrainQueries));
  checks->Require(incremental > 0, "module_replay: no incremental phase");
  checks->Require(diverged == 0,
                  "module_replay: estimates differ between rounds");
}

}  // namespace

WorkloadResult RunModuleReplay(const Options& opts) {
  WorkloadResult result;
  const double seconds = opts.quick ? 1.0 : opts.seconds;
  // Five objects per event-time ms (5000 in the window), one query per
  // ten objects after the first window; the cluster and the keyword band
  // jump at the midpoint. Rounds cycle through kReplayStreams streams of
  // different sub-seeds, each replayed into modules seeded with its own
  // sub-seed, so that the accuracy, the estimator mix and the snapshot size
  // average over several drift histories and module seeds rather than hang
  // on one.
  struct ReplayInput {
    LatestConfig config;
    std::vector<Event> stream;
    std::vector<uint64_t> truth;
    uint64_t objects = 0;
  };
  std::vector<ReplayInput> inputs(kReplayStreams);
  for (uint32_t j = 0; j < kReplayStreams; ++j) {
    StreamSpec spec;
    spec.objects = opts.quick ? 8000 : 40000;
    spec.duration_ms = static_cast<int64_t>(spec.objects / 5);
    spec.query_start_ms = kReplayWindowMs;
    spec.objects_per_query = 10;
    spec.drift = true;
    spec.seed = opts.seed * kReplayStreams + j;
    inputs[j].config = ReplayModuleConfig(spec.seed);
    inputs[j].stream = MakeStream(spec);
    inputs[j].truth = StreamTruth(inputs[j].stream, kReplayWindowMs);
    for (const Event& e : inputs[j].stream) inputs[j].objects += !e.is_query;
  }

  // Whole cycles of rounds, each round on a fresh module, until the run
  // time is used. The first round of each stream is kept.
  struct Rounds {
    std::vector<double> create_s, rates, query_p95_ms, ingest_p95_ms;
    // Round means of query and ingest latency, per stream.
    std::vector<std::vector<double>> query_mean_ms =
        std::vector<std::vector<double>>(kReplayStreams);
    std::vector<std::vector<double>> ingest_mean_ms =
        std::vector<std::vector<double>>(kReplayStreams);
    std::vector<ReplayRound> first;  // One per stream.
    double object_ms = 0, query_ms = 0, truth_ms = 0, estimate_ms = 0,
           model_ms = 0, replay_s = 0;
  };
  auto run_rounds = [&](bool traced) {
    Rounds r;
    std::vector<std::vector<double>> first_estimates(kReplayStreams);
    const Clock::time_point start = Clock::now();
    for (uint64_t n = 0;
         n % kReplayStreams != 0 || SecondsSince(start) < seconds; ++n) {
      const uint32_t j = static_cast<uint32_t>(n % kReplayStreams);
      const ReplayInput& in = inputs[j];
      ReplayRound round = ReplayOnce(in.config, in.stream, traced);
      result.ops.ingest_attempted += in.objects;
      result.ops.query_attempted += in.stream.size() - in.objects;
      CheckRound(round, in.truth, first_estimates[j], &result.ops,
                 &result.checks);
      r.create_s.push_back(round.create_s);
      r.rates.push_back(static_cast<double>(in.stream.size()) / round.replay_s);
      r.query_mean_ms[j].push_back(round.query_mean_ms);
      r.query_p95_ms.push_back(round.query_p95_ms);
      r.ingest_mean_ms[j].push_back(round.ingest_mean_ms);
      r.ingest_p95_ms.push_back(round.ingest_p95_ms);
      r.object_ms += round.object_ms;
      r.query_ms += round.query_ms;
      r.truth_ms += round.truth_ms;
      r.estimate_ms += round.estimate_ms;
      r.model_ms += round.model_ms;
      r.replay_s += round.replay_s;
      if (n < kReplayStreams) {
        for (const auto& o : round.outcomes) {
          first_estimates[j].push_back(o.estimate);
        }
        r.first.push_back(std::move(round));
      }
    }
    return r;
  };
  // Rates and latencies are medians over rounds: a round takes tens of
  // ms, so the median ignores rounds slowed by other work on the host.
  auto round_metrics = [](const Rounds& r) {
    EndToEnd e2e;
    e2e.setup_s = Median(r.create_s);
    e2e.ops_per_s = Median(r.rates);
    // Each stream's typical round mean, averaged over the streams: the
    // mean latency differs between streams (each spends its own share of
    // time under slow and fast estimators), and a median over all rounds
    // would pick one stream's figure. Means, not per-call medians: a
    // call's median jumps with the estimator mix, a mean moves smoothly.
    for (uint32_t j = 0; j < kReplayStreams; ++j) {
      e2e.query_ms += Median(r.query_mean_ms[j]) / kReplayStreams;
      e2e.ingest_ms += Median(r.ingest_mean_ms[j]) / kReplayStreams;
    }
    return e2e;
  };

  const Rounds rounds = run_rounds(false);
  EndToEnd e2e = round_metrics(rounds);
  double accuracy = 0.0, state_bytes = 0.0;
  uint64_t incremental = 0, switches = 0;
  for (uint32_t j = 0; j < kReplayStreams; ++j) {
    const ReplayRound& first = rounds.first[j];
    for (size_t k = 0; k < first.outcomes.size(); ++k) {
      if (first.outcomes[k].phase != Phase::kIncremental) continue;
      accuracy += Accuracy(first.outcomes[k].estimate, inputs[j].truth[k]);
      ++incremental;
    }
    switches += first.module->switch_log().size();
    // The snapshot at the end of the stream, and its round trip.
    latest::util::BinaryWriter writer;
    first.module->SaveState(&writer);
    state_bytes += static_cast<double>(writer.buffer().size());
    auto restored = CreateModule(inputs[j].config);
    latest::util::BinaryReader reader(writer.buffer());
    const bool loaded = restored->LoadState(&reader).ok();
    latest::util::BinaryWriter a, b;
    first.module->SaveDeterministicState(&a);
    if (loaded) restored->SaveDeterministicState(&b);
    result.checks.Require(loaded && a.buffer() == b.buffer(),
                          "module_replay: snapshot does not round-trip");
  }
  e2e.mean_accuracy =
      incremental == 0 ? 0.0 : accuracy / static_cast<double>(incremental);
  e2e.state_bytes = state_bytes / kReplayStreams;
  result.end_to_end = e2e.ToMetrics();
  result.detail_lines.push_back(DetailLine(
      "REPLAY",
      {{"rounds", static_cast<double>(rounds.rates.size())},
       {"streams", kReplayStreams},
       {"events_per_round", static_cast<double>(inputs[0].stream.size())},
       {"switches_per_stream", static_cast<double>(switches) / kReplayStreams},
       {"replay_events_per_s", e2e.ops_per_s},
       {"query_p95_ms", Median(rounds.query_p95_ms)},
       {"ingest_p95_ms", Median(rounds.ingest_p95_ms)},
       {"round_rate_p10", Quantile(rounds.rates, 0.1)},
       {"round_rate_p90", Quantile(rounds.rates, 0.9)}}));
  if (!opts.trace) return result;

  Rounds traced;
  {
    TracingScope tracing;
    traced = run_rounds(true);
  }
  std::map<std::string, double> detail;
  EndToEnd traced_e2e = round_metrics(traced);
  traced_e2e.mean_accuracy = e2e.mean_accuracy;
  traced_e2e.state_bytes = e2e.state_bytes;
  AddOverhead(result.end_to_end, traced_e2e.ToMetrics(), &detail);
  const double total_ms = traced.replay_s * 1e3;
  detail["share.replay.on_object"] = traced.object_ms / total_ms;
  detail["share.replay.on_query"] = traced.query_ms / total_ms;
  detail["share.replay.ground_truth"] = traced.truth_ms / total_ms;
  detail["share.replay.estimate"] = traced.estimate_ms / total_ms;
  detail["share.replay.model"] = traced.model_ms / total_ms;
  detail["share.replay.net"] = 0.0;
  result.detail_lines.push_back(DetailLine("TRACE", detail));
  result.per_layer = RunLayerProbes(
      MakeLayerInputs(inputs[0].config, inputs[0].stream, {}), ServerStages{},
      &result.checks);
  return result;
}

}  // namespace latestbench
