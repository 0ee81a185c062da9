// The benchmark's load generator, built on net::ServeClient and the
// net/protocol codec. Unlike net::RunLoadgen, which reads responses only
// once its outstanding window is full, every client here reads responses
// as they arrive on a thread of its own (paced, pipelined) or blocks on
// the next response only while its window is full (flood).

#ifndef LATESTBENCH_CLIENT_H_
#define LATESTBENCH_CLIENT_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "net/client.h"

namespace latestbench {

/// What one ordered-stream client saw. Answers are indexed by query
/// ordinal; `answered` counts responses per event (1 = exactly once).
struct StreamReport {
  OpCounts ops;
  std::vector<latest::net::QueryResponse> answers;
  std::vector<uint8_t> answered;
  std::vector<double> query_latency_ms;   // From due (paced) or send time.
  std::vector<double> ingest_latency_ms;
  std::vector<double> lateness_ms;        // Paced only: send - due.
  uint64_t acks = 0;             // INGEST_ACK frames received.
  uint64_t query_responses = 0;  // QUERY_RESP frames received.
  uint64_t unexpected_frames = 0;
  latest::net::StatusResponse status;
  bool status_ok = false;
  double wall_s = 0.0;
};

/// Open loop: event i is due at start + i * period_s and is timed from
/// then to its response. A sender thread sends on schedule while the
/// calling thread reads responses as they arrive. Request id = event
/// index + 1. `traced` stamps every request with a sampled trace context
/// (the client must have negotiated it). Ends with a STATUS round trip.
StreamReport RunPaced(latest::net::ServeClient* client,
                      const std::vector<Event>& events, double period_s,
                      bool traced);

/// Pipelined in-order replay: a sender thread keeps at most `window`
/// requests unanswered while the calling thread reads responses and times
/// each from its send.
StreamReport RunPipelined(latest::net::ServeClient* client,
                          const std::vector<Event>& events, uint32_t window);

/// One flooding connection of serve_query_flood.
struct FloodReport {
  OpCounts ops;
  uint64_t answered = 0;         // Answers with the right `actual`.
  uint64_t query_responses = 0;  // QUERY_RESP frames received.
  uint64_t non_incremental = 0;  // Answers not from the incremental phase.
  double accuracy_sum = 0.0;
  uint64_t bad_estimates = 0;    // Non-finite or negative.
  uint64_t duplicates = 0;
  uint64_t unexpected_frames = 0;
  /// Arrival time and send-to-answer latency of every right answer
  /// before the deadline.
  std::vector<Clock::time_point> answer_times;
  std::vector<double> latency_ms;
};

/// Sends pool queries (ids 1, 2, ...; query k uses pool entry
/// (offset + k) % pool size) keeping `window` unanswered until
/// `deadline`; then drains. Checks every `actual` against `truth`.
FloodReport RunFloodConnection(latest::net::ServeClient* client,
                               const std::vector<latest::stream::Query>& pool,
                               const std::vector<uint64_t>& truth,
                               size_t offset, uint32_t window,
                               Clock::time_point deadline, bool traced);

}  // namespace latestbench

#endif  // LATESTBENCH_CLIENT_H_
