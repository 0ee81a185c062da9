// Shared declarations of the LATEST end-to-end benchmark.
//
// The benchmark generates its own inputs from --seed (inputs.cc), runs one
// workload against the library (workloads.cc, client.cc), checks every
// answer against a brute-force RC-DVQ count it computes itself, and prints
// one JSON result line. With --trace 1 it also times calls into each
// layer's public functions on the same inputs (layers.cc).

#ifndef LATESTBENCH_BENCH_H_
#define LATESTBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/latest_module.h"
#include "net/protocol.h"
#include "obs/request_trace.h"
#include "stream/object.h"
#include "stream/query.h"

namespace latestbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// serve_paced's open-loop schedule: one event (ingest or query) every
/// 850 us. The batcher's 2 ms tick starts at a batch's first arrival, so
/// a batch takes the arrivals at 0, 850 and 1700 us and the next one comes
/// 550 us after the tick, once the batch is processed. A period whose
/// multiple lands near the tick or inside the processing that follows it
/// makes batches race arrivals, and latency then jumps between runs.
inline constexpr double kPacedEventsPerSecond = 1e6 / 850.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;  // Small inputs, for smoke use.
};

// ---------------------------------------------------------------------------
// Inputs (inputs.cc)
// ---------------------------------------------------------------------------

/// One stream event: an object or a query, in arrival order.
struct Event {
  bool is_query = false;
  latest::stream::GeoTextObject object;
  latest::stream::Query query;
};

/// Shape of a generated stream: a dense cluster plus uniform background
/// over [0,100]^2, keywords drawn u^2-skewed from a band of 50 ids, and
/// one query after every `objects_per_query` objects once event time
/// reaches `query_start_ms`. With `drift`, the cluster jumps to the far
/// corner and the keyword band to ids 50..99 at the stream's midpoint.
struct StreamSpec {
  uint64_t objects = 0;
  int64_t duration_ms = 0;
  int64_t query_start_ms = 0;
  uint32_t objects_per_query = 10;
  bool drift = false;
  uint64_t seed = 1;
};

std::vector<Event> MakeStream(const StreamSpec& spec);

/// `count` queries at timestamp `ts`, equal thirds keyword / spatial /
/// hybrid, interleaved.
std::vector<latest::stream::Query> MakeQueryPool(size_t count,
                                                 int64_t ts, uint64_t seed);

/// The spatial domain every generated stream lives in.
latest::geo::Rect Domain();

// ---------------------------------------------------------------------------
// Ground truth (inputs.cc): RC-DVQ from the definition in Section III of
// the paper, independent of Query::Matches and the exact evaluator.
// An object counts when its timestamp lies in [q.t - T, q.t], its
// location in the half-open range [min, max) on both axes, and one of its
// keywords is among the query's; an absent predicate always holds.
// ---------------------------------------------------------------------------

uint64_t BruteForceCount(const latest::stream::GeoTextObject* objects,
                         size_t n, const latest::stream::Query& q,
                         int64_t window_ms);

/// Count for every query of an ordered stream, over the objects that
/// precede it. Indexed by query ordinal.
std::vector<uint64_t> StreamTruth(const std::vector<Event>& events,
                                  int64_t window_ms);

/// Counts for a query pool over a frozen object set (several threads).
std::vector<uint64_t> PoolTruth(
    const std::vector<latest::stream::GeoTextObject>& objects,
    const std::vector<latest::stream::Query>& pool, int64_t window_ms);

/// 1 - relative error, clamped to [0, 1]; the estimate is clamped at 0
/// and the denominator at 1.
double Accuracy(double estimate, uint64_t truth);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed, per class. A failure is a
/// RETRY_LATER, an ERROR, a transport error, a request unanswered at the
/// end, or a wrong `actual`.
struct OpCounts {
  uint64_t ingest_attempted = 0;
  uint64_t ingest_failed = 0;
  uint64_t query_attempted = 0;
  uint64_t query_failed = 0;
  void Add(const OpCounts& o) {
    ingest_attempted += o.ingest_attempted;
    ingest_failed += o.ingest_failed;
    query_attempted += o.query_attempted;
    query_failed += o.query_failed;
  }
};

/// Property checks on operations that did not fail. Any entry makes the
/// run incorrect.
struct Checks {
  std::vector<std::string> problems;
  void Require(bool ok, const std::string& what) {
    if (!ok && problems.size() < 20) problems.push_back(what);
  }
  bool ok() const { return problems.empty(); }
};

/// Server-side stage waterfall of query requests: per-request means
/// (additive, so stage shares sum) from ServeServer::request_trace().
struct ServerStages {
  double queue_wait_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double module_ms = 0.0;
  double flush_ms = 0.0;
  double batch_form_ms = 0.0;
  double events_per_batch = 0.0;
  /// Sums over query records, for shares of busy time.
  double module_total_ms = 0.0;
  double ground_truth_total_ms = 0.0;
  double estimate_total_ms = 0.0;
  double model_total_ms = 0.0;
  double span_ms = 0.0;  // First admission to last flush.
  size_t records = 0;
};

/// Inputs the layer probes run on: the workload's objects and queries,
/// and the module configuration it serves them with.
struct LayerInputs {
  latest::core::LatestConfig config;
  std::vector<Event> stream;  // Ordered stream fed to an in-process module.
  std::vector<latest::stream::GeoTextObject> objects;
  std::vector<latest::stream::Query> queries;  // Stamped at the last object.
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cc). Each runs its untraced pass and, when
// `opts.trace`, a traced pass plus the layer probes.
// ---------------------------------------------------------------------------

struct WorkloadResult {
  OpCounts ops;
  Checks checks;
  std::vector<Metric> end_to_end;  // Untraced.
  std::vector<Metric> per_layer;   // Traced runs only.
  std::vector<std::string> detail_lines;
};

WorkloadResult RunServePaced(const Options& opts);
WorkloadResult RunServeQueryFlood(const Options& opts);
WorkloadResult RunModuleReplay(const Options& opts);

// ---------------------------------------------------------------------------
// Layer probes (layers.cc)
// ---------------------------------------------------------------------------

/// Times each layer's public functions on `inputs`. `served`, when it
/// holds records, supplies the net.server.* stage means; otherwise the
/// stream, replayed pipelined into a served module, produces them.
std::vector<Metric> RunLayerProbes(const LayerInputs& inputs,
                                   const ServerStages& served,
                                   Checks* checks);

/// Means and totals of a server's retained request records.
ServerStages SummarizeServerStages(
    const std::vector<latest::obs::RequestTraceStore::Record>& records);

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The module configuration of the serve workloads (the daemon's
/// evaluation setup: all six estimators measured per query, alpha = 0 so
/// every lifecycle decision is a function of the ordered stream).
latest::core::LatestConfig ServeModuleConfig(uint64_t seed,
                                             int64_t window_ms);

/// Creates a module, or exits with status 2 (the benchmark cannot run).
std::unique_ptr<latest::core::LatestModule> CreateModule(
    const latest::core::LatestConfig& config);

/// Renders a flat JSON object of numbers.
std::string JsonNumbers(const std::map<std::string, double>& values);

}  // namespace latestbench

#endif  // LATESTBENCH_BENCH_H_
