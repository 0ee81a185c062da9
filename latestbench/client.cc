#include "client.h"

#include <atomic>
#include <cmath>
#include <thread>

namespace latestbench {

namespace {

using latest::net::FrameType;
using latest::net::ServeClient;
using latest::net::ServeResponse;

latest::net::WireTraceContext TraceFor(uint64_t id, bool traced) {
  latest::net::WireTraceContext trace;
  if (traced) {
    trace.present = true;
    trace.trace_id = id;
    trace.sampled = true;
  }
  return trace;
}

void EncodeEvent(const Event& e, uint64_t id, bool traced, std::string* out) {
  if (e.is_query) {
    latest::net::QueryRequest req;
    req.request_id = id;
    req.query = e.query;
    req.trace = TraceFor(id, traced);
    latest::net::EncodeQuery(req, out);
  } else {
    latest::net::IngestRequest req;
    req.request_id = id;
    req.object = e.object;
    req.trace = TraceFor(id, traced);
    latest::net::EncodeIngest(req, out);
  }
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Reads responses to an ordered stream (request id = event index + 1)
/// until every event is answered or the transport fails, timing each
/// answer from `sent_at(index)`.
class StreamReader {
 public:
  StreamReader(const std::vector<Event>& events, StreamReport* report)
      : events_(events), report_(report), ordinal_(events.size(), -1) {
    int64_t queries = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].is_query) {
        ordinal_[i] = queries++;
        ++report->ops.query_attempted;
      } else {
        ++report->ops.ingest_attempted;
      }
    }
    report->answers.resize(static_cast<size_t>(queries));
    report->answered.assign(events.size(), 0);
  }

  template <typename SentAt>
  void Run(ServeClient* client, SentAt sent_at,
           std::atomic<uint64_t>* responses) {
    uint64_t distinct = 0;
    while (distinct < events_.size()) {
      auto resp = client->ReadResponse();
      if (!resp.ok()) break;  // Transport error: the rest stay unanswered.
      const Clock::time_point now = Clock::now();
      const uint64_t id = RequestId(*resp);
      if (id == 0 || id > events_.size()) {
        ++report_->unexpected_frames;
        continue;
      }
      const size_t idx = id - 1;
      const Event& e = events_[idx];
      if (report_->answered[idx]++ == 0) ++distinct;
      if (responses != nullptr) responses->fetch_add(1);
      const bool answer = resp->type == (e.is_query ? FrameType::kQueryResponse
                                                    : FrameType::kIngestAck);
      if (!answer) {
        // RETRY_LATER, ERROR, or a response of the wrong class.
        ++(e.is_query ? report_->ops.query_failed : report_->ops.ingest_failed);
        if (resp->type == FrameType::kError) break;  // Server closes.
        continue;
      }
      ++(e.is_query ? report_->query_responses : report_->acks);
      (e.is_query ? report_->query_latency_ms : report_->ingest_latency_ms)
          .push_back(MillisBetween(sent_at(idx), now));
      if (e.is_query) {
        report_->answers[static_cast<size_t>(ordinal_[idx])] = resp->query;
      }
    }
    for (size_t i = 0; i < events_.size(); ++i) {
      if (report_->answered[i] != 0) continue;
      ++(events_[i].is_query ? report_->ops.query_failed
                             : report_->ops.ingest_failed);
    }
  }

 private:
  static uint64_t RequestId(const ServeResponse& r) {
    switch (r.type) {
      case FrameType::kIngestAck: return r.ack.request_id;
      case FrameType::kQueryResponse: return r.query.request_id;
      case FrameType::kRetryLater: return r.retry.request_id;
      case FrameType::kError: return r.error.request_id;
      default: return 0;
    }
  }

  const std::vector<Event>& events_;
  StreamReport* report_;
  std::vector<int64_t> ordinal_;
};

void FinishWithStatus(ServeClient* client, uint64_t id, StreamReport* report) {
  latest::net::StatusRequest req;
  req.request_id = id;
  if (!client->SendStatus(req).ok()) return;
  auto resp = client->ReadResponse();
  if (resp.ok() && resp->type == FrameType::kStatusResponse &&
      resp->status.request_id == id) {
    report->status = resp->status;
    report->status_ok = true;
  }
}

}  // namespace

StreamReport RunPaced(ServeClient* client, const std::vector<Event>& events,
                      double period_s, bool traced) {
  StreamReport report;
  std::vector<std::string> frames(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EncodeEvent(events[i], i + 1, traced, &frames[i]);
  }
  report.lateness_ms.resize(events.size());
  StreamReader reader(events, &report);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(period_s *
                                                     static_cast<double>(i)));
  };
  std::thread sender([&] {
    for (size_t i = 0; i < frames.size(); ++i) {
      std::this_thread::sleep_until(due(i));
      report.lateness_ms[i] = MillisBetween(due(i), Clock::now());
      if (!client->SendRaw(frames[i]).ok()) break;
    }
  });
  reader.Run(client, due, nullptr);
  sender.join();
  report.wall_s = SecondsSince(start);
  FinishWithStatus(client, events.size() + 1, &report);
  return report;
}

StreamReport RunPipelined(ServeClient* client,
                          const std::vector<Event>& events, uint32_t window) {
  StreamReport report;
  StreamReader reader(events, &report);
  std::atomic<uint64_t> responses{0};
  std::atomic<bool> reading{true};
  // Send times, ns on the steady clock: written by the sender before the
  // request leaves, read by this thread after its response arrives.
  std::vector<std::atomic<int64_t>> sent_ns(events.size());
  const Clock::time_point start = Clock::now();
  std::thread sender([&] {
    const size_t chunk_events = std::min<size_t>(256, window);
    std::string chunk;
    for (size_t i = 0; i < events.size();) {
      const size_t end = std::min(events.size(), i + chunk_events);
      chunk.clear();
      for (size_t j = i; j < end; ++j) EncodeEvent(events[j], j + 1, false, &chunk);
      while (end - responses.load() > window && reading.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const int64_t now = Clock::now().time_since_epoch().count();
      for (size_t j = i; j < end; ++j) sent_ns[j].store(now);
      if (!reading.load() || !client->SendRaw(chunk).ok()) break;
      i = end;
    }
  });
  reader.Run(
      client,
      [&](size_t i) {
        return Clock::time_point(Clock::duration(sent_ns[i].load()));
      },
      &responses);
  reading.store(false);
  sender.join();
  report.wall_s = SecondsSince(start);
  FinishWithStatus(client, events.size() + 1, &report);
  return report;
}

FloodReport RunFloodConnection(ServeClient* client,
                               const std::vector<latest::stream::Query>& pool,
                               const std::vector<uint64_t>& truth,
                               size_t offset, uint32_t window,
                               Clock::time_point deadline, bool traced) {
  FloodReport report;
  std::vector<uint8_t> answered;
  std::vector<Clock::time_point> sent_at;
  uint64_t sent = 0;
  uint64_t outstanding = 0;
  std::string bytes;
  auto send_more = [&](uint64_t count) {
    bytes.clear();
    for (uint64_t i = 0; i < count; ++i) {
      latest::net::QueryRequest req;
      req.request_id = ++sent;
      req.query = pool[(offset + sent - 1) % pool.size()];
      req.trace = TraceFor(req.request_id, traced);
      latest::net::EncodeQuery(req, &bytes);
    }
    answered.resize(sent, 0);
    sent_at.resize(sent, Clock::now());
    report.ops.query_attempted += count;
    outstanding += count;
    return client->SendRaw(bytes).ok();
  };
  constexpr uint64_t kRefill = 16;
  bool open = send_more(window);
  while (open && outstanding > 0) {
    auto resp = client->ReadResponse();
    if (!resp.ok()) break;
    if (resp->type != FrameType::kQueryResponse &&
        resp->type != FrameType::kRetryLater &&
        resp->type != FrameType::kError) {
      ++report.unexpected_frames;
      continue;
    }
    const uint64_t id = resp->type == FrameType::kQueryResponse
                            ? resp->query.request_id
                            : resp->type == FrameType::kRetryLater
                                  ? resp->retry.request_id
                                  : resp->error.request_id;
    if (id == 0 || id > sent) {
      ++report.unexpected_frames;
      continue;
    }
    if (answered[id - 1]++ != 0) {
      ++report.duplicates;
      continue;
    }
    --outstanding;
    if (resp->type != FrameType::kQueryResponse) {
      ++report.ops.query_failed;
      if (resp->type == FrameType::kError) break;
    } else {
      ++report.query_responses;
      const latest::net::QueryResponse& q = resp->query;
      if (q.actual != truth[(offset + id - 1) % pool.size()]) {
        ++report.ops.query_failed;
      } else {
        ++report.answered;
        if (!std::isfinite(q.estimate) || q.estimate < 0.0) {
          ++report.bad_estimates;
        }
        if (q.phase != static_cast<uint32_t>(latest::core::Phase::kIncremental)) {
          ++report.non_incremental;
        }
        report.accuracy_sum += Accuracy(q.estimate, q.actual);
        const Clock::time_point now = Clock::now();
        if (now <= deadline) {
          report.answer_times.push_back(now);
          report.latency_ms.push_back(MillisBetween(sent_at[id - 1], now));
        }
      }
    }
    if (Clock::now() < deadline && window - outstanding >= kRefill) {
      open = send_more(kRefill);
    }
  }
  report.ops.query_failed += outstanding;  // Unanswered at the end.
  return report;
}

}  // namespace latestbench
