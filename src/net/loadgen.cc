#include "net/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "workload/scenario.h"

namespace latest::net {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Interpolation-free percentile over a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

/// SplitMix64 finalizer: spreads request ids into well-mixed,
/// never-zero trace ids.
uint64_t TraceIdFor(uint64_t request_id) {
  uint64_t x = request_id + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x | 1;
}

/// One connection's share of the run.
struct WorkerResult {
  uint64_t queries_sent = 0;
  uint64_t queries_answered = 0;
  uint64_t ingests_sent = 0;
  uint64_t ingests_acked = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t protocol_errors = 0;
  bool traced = false;
  double max_lateness_ms = 0.0;
  std::vector<double> latencies_ms;
  std::vector<double> ingest_latencies_ms;
};

void RunWorker(const LoadgenConfig& config,
               const std::vector<workload::ScenarioEvent>& events,
               uint32_t worker_index, WorkerResult* result) {
  auto client =
      config.trace
          ? ServeClient::ConnectNegotiated(config.port, config.io_timeout_ms)
          : ServeClient::Connect(config.port, config.io_timeout_ms);
  if (!client.ok()) {
    result->errors = 1;
    return;
  }
  result->traced = client.value()->trace_enabled();

  // request_id -> start time (micros) of each in-flight request: its due
  // time when paced, so falling behind the schedule shows up as latency;
  // its send time when flooding.
  std::unordered_map<uint64_t, int64_t> inflight_start;
  uint64_t outstanding = 0;
  uint64_t next_seq = 1;
  const uint64_t id_base = static_cast<uint64_t>(worker_index + 1) << 48;

  const auto record_latency = [&](uint64_t request_id,
                                  std::vector<double>* latencies_ms) {
    const auto it = inflight_start.find(request_id);
    if (it == inflight_start.end()) return;
    latencies_ms->push_back(
        static_cast<double>(NowMicros() - it->second) / 1000.0);
    inflight_start.erase(it);
  };

  auto handle_response = [&]() -> bool {
    auto resp = client.value()->ReadResponse();
    if (!resp.ok()) {
      ++result->errors;
      return false;
    }
    if (outstanding > 0) --outstanding;
    switch (resp->type) {
      case FrameType::kQueryResponse:
        ++result->queries_answered;
        record_latency(resp->query.request_id, &result->latencies_ms);
        break;
      case FrameType::kIngestAck:
        ++result->ingests_acked;
        record_latency(resp->ack.request_id, &result->ingest_latencies_ms);
        break;
      case FrameType::kRetryLater:
        ++result->shed;
        inflight_start.erase(resp->retry.request_id);
        break;
      default:  // ERROR or an unexpected frame type.
        ++result->protocol_errors;
        return false;
    }
    return true;
  };

  const int64_t start_micros = NowMicros();
  bool transport_ok = true;
  for (size_t i = worker_index; transport_ok && i < events.size();
       i += config.connections) {
    const workload::ScenarioEvent& event = events[i];

    // Open-loop pacing against the scenario's event-time axis. Responses
    // that land while waiting for the due time are read at once, so
    // they are timed on arrival rather than when the window fills.
    int64_t due_micros = 0;
    if (config.speedup > 0.0) {
      const int64_t event_ts =
          event.is_query ? event.query.timestamp : event.object.timestamp;
      due_micros = start_micros +
                   static_cast<int64_t>(static_cast<double>(event_ts) *
                                        1000.0 / config.speedup);
      for (int64_t now = NowMicros(); transport_ok && now < due_micros;
           now = NowMicros()) {
        if (client.value()->WaitReadable(due_micros - now)) {
          transport_ok = handle_response();
        }
      }
    }
    while (transport_ok && outstanding >= config.max_outstanding) {
      transport_ok = handle_response();
    }
    if (!transport_ok) break;

    const uint64_t seq = next_seq++;
    const uint64_t request_id = id_base | seq;
    WireTraceContext trace;
    if (client.value()->trace_enabled()) {
      trace.present = true;
      trace.trace_id = TraceIdFor(request_id);
      trace.sampled = config.trace_sample_every != 0 &&
                      seq % config.trace_sample_every == 0;
    }
    const int64_t send_micros = NowMicros();
    if (due_micros > 0) {
      result->max_lateness_ms =
          std::max(result->max_lateness_ms,
                   static_cast<double>(send_micros - due_micros) / 1000.0);
    }
    inflight_start.emplace(request_id,
                           due_micros > 0 ? due_micros : send_micros);
    const util::Status sent =
        event.is_query
            ? client.value()->SendQuery({request_id, event.query, trace})
            : client.value()->SendIngest({request_id, event.object, trace});
    if (!sent.ok()) {
      inflight_start.erase(request_id);
      ++result->errors;
      transport_ok = false;
      break;
    }
    ++(event.is_query ? result->queries_sent : result->ingests_sent);
    ++outstanding;
  }

  // Drain every outstanding response (bounded by the socket timeout).
  while (transport_ok && outstanding > 0) {
    if (!handle_response()) break;
  }
  result->errors += outstanding;
}

}  // namespace

util::Result<LoadgenReport> RunLoadgen(const LoadgenConfig& config) {
  if (config.connections == 0) {
    return util::Status::InvalidArgument("connections must be > 0");
  }
  auto entry = workload::MakeScenario(config.scenario, config.objects,
                                      config.duration_ms, config.seed);
  if (!entry.ok()) return entry.status();

  // Scenario streams are pure: generate the event list once and deal it
  // round-robin across connections.
  std::vector<workload::ScenarioEvent> events;
  workload::ScenarioStream stream(entry->spec);
  while (stream.HasNext()) events.push_back(stream.Next());
  if (events.empty()) {
    return util::Status::InvalidArgument("scenario produced no events");
  }

  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  const int64_t start_micros = NowMicros();
  for (uint32_t c = 0; c < config.connections; ++c) {
    workers.emplace_back(RunWorker, std::cref(config), std::cref(events),
                         c, &results[c]);
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      static_cast<double>(NowMicros() - start_micros) / 1e6;

  LoadgenReport report;
  std::vector<double> latencies;
  std::vector<double> ingest_latencies;
  for (const WorkerResult& r : results) {
    report.queries_sent += r.queries_sent;
    report.queries_answered += r.queries_answered;
    report.ingests_sent += r.ingests_sent;
    report.ingests_acked += r.ingests_acked;
    report.shed += r.shed;
    report.errors += r.errors;
    report.protocol_errors += r.protocol_errors;
    if (r.traced) ++report.traced_connections;
    report.max_lateness_ms = std::max(report.max_lateness_ms,
                                      r.max_lateness_ms);
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    ingest_latencies.insert(ingest_latencies.end(),
                            r.ingest_latencies_ms.begin(),
                            r.ingest_latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(ingest_latencies.begin(), ingest_latencies.end());
  report.wall_seconds = wall_seconds;
  report.qps = wall_seconds > 0.0
                   ? static_cast<double>(report.queries_answered) /
                         wall_seconds
                   : 0.0;
  report.p50_ms = Percentile(latencies, 0.50);
  report.p95_ms = Percentile(latencies, 0.95);
  report.p99_ms = Percentile(latencies, 0.99);
  report.ingest_p50_ms = Percentile(ingest_latencies, 0.50);
  report.ingest_p95_ms = Percentile(ingest_latencies, 0.95);
  report.ingest_p99_ms = Percentile(ingest_latencies, 0.99);
  return report;
}

}  // namespace latest::net
