// Multi-connection load generator for the serve plane.
//
// Replays a scenario-catalog stream (PR 7) against a running ServeServer
// over N concurrent connections. Events are pre-generated once (scenario
// streams are pure functions of their spec) and dealt round-robin across
// connections; each connection thread paces its slice open-loop against
// the scenario's event-time axis (`speedup` event-ms per wall-ms; 0
// floods as fast as the outstanding window allows), reads responses as
// they arrive, and measures per-request latency: from the due time when
// paced, from the send when flooding.

#ifndef LATEST_NET_LOADGEN_H_
#define LATEST_NET_LOADGEN_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace latest::net {

struct LoadgenConfig {
  uint16_t port = 0;
  uint32_t connections = 16;

  /// Scenario-catalog stream to replay (workload::ScenarioNames()).
  std::string scenario = "baseline";
  uint64_t objects = 16000;
  int64_t duration_ms = 8000;
  uint64_t seed = 5;

  /// Event-time ms replayed per wall-clock ms; 0 = flood (no pacing).
  double speedup = 0.0;

  /// Per-connection pipelining window: past this many unanswered
  /// requests the sender blocks on responses (bounds buffer growth on
  /// both ends; large enough to keep server batches full).
  uint32_t max_outstanding = 128;

  int io_timeout_ms = 5000;

  /// Negotiate trace contexts (HELLO) and stamp every request with a
  /// client-generated 64-bit trace id. Falls back to untraced frames
  /// against a server that predates the feature.
  bool trace = true;
  /// Mark every Nth traced request per connection as sampled (its span
  /// tree is recorded server-side). 0 never samples, 1 samples all.
  uint32_t trace_sample_every = 16;
};

struct LoadgenReport {
  uint64_t queries_sent = 0;
  uint64_t queries_answered = 0;
  uint64_t ingests_sent = 0;
  uint64_t ingests_acked = 0;
  uint64_t shed = 0;    // RETRY_LATER responses (either class).
  uint64_t errors = 0;  // Transport failures + unanswered requests.
  uint64_t protocol_errors = 0;  // ERROR frames / undecodable responses.
  double wall_seconds = 0.0;
  double qps = 0.0;  // Answered queries per wall second.
  /// Query latency (the headline numbers): due time (paced) or send
  /// (flood) to response.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Ingest latency to the ack, reported separately: ingests ride the
  /// same admission queue but skip the estimation stage, so their tail
  /// isolates queueing from compute.
  double ingest_p50_ms = 0.0;
  double ingest_p95_ms = 0.0;
  double ingest_p99_ms = 0.0;
  /// Paced runs: the largest gap between a request's due time and its
  /// send.
  double max_lateness_ms = 0.0;
  /// Connections whose HELLO negotiation enabled trace contexts.
  uint64_t traced_connections = 0;
};

/// Runs the configured load and blocks until every connection drains.
util::Result<LoadgenReport> RunLoadgen(const LoadgenConfig& config);

}  // namespace latest::net

#endif  // LATEST_NET_LOADGEN_H_
