// latest_loadgen: multi-connection load generator for latest_serve.
//
// Replays a scenario-catalog stream (including the flip/burst drift
// shapes) against a running serve daemon over N concurrent loopback
// connections with open-loop pacing, and reports qps + latency
// percentiles + shed/error counts as one RESULT_JSON line. Latencies
// are reported per request class — QUERY round-trips and INGEST acks
// behave differently under shed pressure, so one merged distribution
// hides the tail that matters.
//
// Tracing: by default every connection negotiates the trace-context
// wire extension (HELLO handshake; old servers fall back to untraced
// transparently) and stamps a deterministic trace id on each request,
// sampling every 16th for span capture. `--no-trace` sends the
// pre-extension wire format; `--trace-sample-every N` tunes sampling
// (0 = stamp ids but never sample).
//
// Server attribution: `--metrics-port P` scrapes the daemon's /vars
// JSON after the run and folds the server-measured queue-wait
// percentiles (latest_serve_queue_wait_ms, per class) into the
// RESULT_JSON line, so one line shows client-observed latency next to
// the server-side component it decomposes into.
//
// Exit codes: 0 = run completed (shedding is a *result*, not an error),
// 1 = flag error or no connection could be established.
//
// Usage:
//   latest_loadgen --port P [--connections N] [--scenario NAME]
//                  [--objects N] [--duration MS] [--seed S]
//                  [--speedup X] [--max-outstanding N] [--list]
//                  [--no-trace] [--trace-sample-every N]
//                  [--metrics-port P]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/loadgen.h"
#include "net/socket.h"
#include "result_json.h"
#include "util/json.h"
#include "workload/scenario.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "latest_loadgen: %s\n", message.c_str());
  std::exit(1);
}

/// Server-attributed queue-wait percentiles scraped from /vars.
struct ServerQueueWait {
  bool ok = false;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  double ingest_p50_ms = 0.0;
  double ingest_p99_ms = 0.0;
};

/// Minimal blocking HTTP GET against the loopback introspection port.
/// Returns the response body, or empty on any failure — the scrape is
/// best-effort and must never fail the load run.
std::string HttpGetBody(uint16_t port, const std::string& path) {
  auto fd = latest::net::ConnectLoopback(port);
  if (!fd.ok()) return "";
  latest::net::SetIoTimeouts(fd->get(), 2000);
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Connection: close\r\n\r\n";
  if (!latest::net::SendAll(fd->get(), request.data(), request.size())) {
    return "";
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd->get(), buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return "";
  return response.substr(header_end + 4);
}

/// Pulls latest_serve_queue_wait_ms{class=query|ingest} p50/p99 out of
/// the /vars JSON exposition.
ServerQueueWait ScrapeQueueWait(uint16_t metrics_port) {
  ServerQueueWait result;
  const std::string body = HttpGetBody(metrics_port, "/vars");
  if (body.empty()) return result;
  auto parsed = latest::util::ParseJson(body);
  if (!parsed.ok()) return result;
  for (const auto& metric : parsed->Get("metrics").items()) {
    if (metric.Get("name").AsString() != "latest_serve_queue_wait_ms") {
      continue;
    }
    const std::string klass =
        metric.Get("labels").Get("class").AsString();
    const double p50 = metric.Get("p50").AsDouble();
    const double p99 = metric.Get("p99").AsDouble();
    if (klass == "query") {
      result.query_p50_ms = p50;
      result.query_p99_ms = p99;
      result.ok = true;
    } else if (klass == "ingest") {
      result.ingest_p50_ms = p50;
      result.ingest_p99_ms = p99;
      result.ok = true;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  latest::net::LoadgenConfig config;
  bool have_port = false;
  int metrics_port = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--port") {
      config.port = static_cast<uint16_t>(
          std::strtoul(value().c_str(), nullptr, 10));
      have_port = true;
    } else if (arg == "--connections") {
      config.connections = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--scenario") {
      config.scenario = value();
    } else if (arg == "--objects") {
      config.objects = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration") {
      config.duration_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--speedup") {
      config.speedup = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--max-outstanding") {
      config.max_outstanding = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--no-trace") {
      config.trace = false;
    } else if (arg == "--trace-sample-every") {
      config.trace_sample_every =
          std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--metrics-port") {
      metrics_port = std::atoi(value().c_str());
    } else if (arg == "--list") {
      for (const std::string& name : latest::workload::ScenarioNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (!have_port) Die("--port is required");

  auto report = latest::net::RunLoadgen(config);
  if (!report.ok()) Die(report.status().ToString());

  auto result = latest::tools::ResultJson("loadgen");
  result.Str("scenario", config.scenario)
      .U64("connections", config.connections)
      .U64("traced_connections", report->traced_connections)
      .U64("queries_sent", report->queries_sent)
      .U64("queries_answered", report->queries_answered)
      .U64("ingests_sent", report->ingests_sent)
      .U64("ingests_acked", report->ingests_acked)
      .U64("shed", report->shed)
      .U64("errors", report->errors)
      .U64("protocol_errors", report->protocol_errors)
      .Dbl("wall_seconds", report->wall_seconds)
      .Dbl("qps", report->qps)
      .Dbl("p50_ms", report->p50_ms)
      .Dbl("p95_ms", report->p95_ms)
      .Dbl("p99_ms", report->p99_ms)
      .Dbl("ingest_p50_ms", report->ingest_p50_ms)
      .Dbl("ingest_p95_ms", report->ingest_p95_ms)
      .Dbl("ingest_p99_ms", report->ingest_p99_ms)
      .Dbl("max_lateness_ms", report->max_lateness_ms);
  if (metrics_port >= 0) {
    const ServerQueueWait server =
        ScrapeQueueWait(static_cast<uint16_t>(metrics_port));
    if (server.ok) {
      result.Dbl("server_queue_wait_query_p50_ms", server.query_p50_ms)
          .Dbl("server_queue_wait_query_p99_ms", server.query_p99_ms)
          .Dbl("server_queue_wait_ingest_p50_ms", server.ingest_p50_ms)
          .Dbl("server_queue_wait_ingest_p99_ms", server.ingest_p99_ms);
    }
  }
  result.Print();
  return 0;
}
