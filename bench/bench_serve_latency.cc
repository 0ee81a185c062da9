// Serve-plane latency/throughput bench: an in-process ServeServer driven
// by the loadgen library over real loopback sockets at 1, 16, and 64
// connections, plus a batched-vs-unbatched admission comparison.
//
// The headline number is `serve_batch_speedup`: query throughput of the
// server at --max-batch 64 (whatever queued while the previous batch ran
// coalesces into one OnQueryBatch call) over the same server at
// --max-batch 1 (every query processed alone), with the same module,
// connections and flood. Being a ratio of two rates from the same run
// it cancels most machine noise; it is the acceptance gate for the
// serving data plane's batching claim. Latency percentiles are reported
// for context (open-loop flood, so they measure queueing + service, not
// paced tail latency).
//
// Honours LATEST_BENCH_SCALE (scales the scenario's object volume).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "core/latest_module.h"
#include "net/loadgen.h"
#include "net/serve_server.h"
#include "workload/scenario.h"

namespace {

using namespace latest;

core::LatestConfig ServeModuleConfig(uint64_t seed) {
  auto entry = workload::MakeScenario("baseline");
  core::LatestConfig config;
  if (entry.ok()) config.bounds = entry->spec.bounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 40;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.maintain_shadow_estimators = true;
  config.alpha = 0.0;
  config.seed = seed;
  return config;
}

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Server-attributed admission queue wait (query class), read from the
  /// in-process metrics registry — the decomposed component of p99_ms
  /// that batching policy actually controls.
  double queue_wait_p99_ms = 0.0;
};

/// One fresh module + server + loadgen flood at `connections`. A fresh
/// module per run keeps the lifecycle (pretrain -> incremental) identical
/// across configurations, so the rates are comparable.
RunResult RunOne(uint32_t connections, uint32_t max_batch, uint64_t objects) {
  auto created = core::LatestModule::Create(ServeModuleConfig(5));
  if (!created.ok()) {
    std::fprintf(stderr, "module: %s\n",
                 created.status().ToString().c_str());
    std::exit(1);
  }
  auto module = std::move(created).value();

  net::ServeServerConfig serve_config;
  serve_config.batcher.max_batch = max_batch;
  serve_config.max_connections = 256;
  net::ServeServer server(serve_config, module.get());
  if (const auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  net::LoadgenConfig load;
  load.port = server.port();
  load.connections = connections;
  load.scenario = "baseline";
  load.objects = objects;
  load.duration_ms = 8000;
  load.speedup = 0.0;  // Flood: measure service rate, not pacing.
  load.max_outstanding = 128;
  load.trace = false;  // The gated numbers pin the untraced fast path.
  auto report = net::RunLoadgen(load);
  server.Stop();
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  if (report->protocol_errors != 0 || report->errors != 0) {
    std::fprintf(stderr, "loadgen saw %llu protocol errors, %llu errors\n",
                 static_cast<unsigned long long>(report->protocol_errors),
                 static_cast<unsigned long long>(report->errors));
    std::exit(1);
  }
  double queue_wait_p99_ms = 0.0;
  if (const obs::Histogram* wait =
          module->telemetry().registry().FindHistogram(
              "latest_serve_queue_wait_ms", {{"class", "query"}})) {
    queue_wait_p99_ms = wait->Quantile(0.99);
  }
  return {report->qps, report->p50_ms, report->p95_ms, report->p99_ms,
          queue_wait_p99_ms};
}

}  // namespace

int main() {
  const double scale = bench::BenchScale();
  const auto objects =
      static_cast<uint64_t>(20000 * scale) + 2000;

  bench::PrintHeader("Serve-plane latency",
                     "loopback RPC qps + latency by connection count");
  std::printf("objects per run: %llu\n\n",
              static_cast<unsigned long long>(objects));

  const uint32_t kMaxBatch = 64;

  RunResult by_conns[3];
  const uint32_t conn_counts[3] = {1, 16, 64};
  for (int i = 0; i < 3; ++i) {
    by_conns[i] = RunOne(conn_counts[i], kMaxBatch, objects);
    std::printf(
        "%2u conns: %10.0f qps   p50 %7.3f ms   p95 %7.3f ms   "
        "p99 %7.3f ms   queue-wait p99 %7.3f ms\n",
        conn_counts[i], by_conns[i].qps, by_conns[i].p50_ms,
        by_conns[i].p95_ms, by_conns[i].p99_ms,
        by_conns[i].queue_wait_p99_ms);
  }

  // Batched vs unbatched admission at 16 connections: best of two
  // passes each (transients only slow a pass down).
  double batched_qps = 0.0;
  double unbatched_qps = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    batched_qps = std::max(
        batched_qps, RunOne(16, kMaxBatch, objects).qps);
    unbatched_qps = std::max(
        unbatched_qps, RunOne(16, /*max_batch=*/1, objects).qps);
  }
  const double speedup =
      unbatched_qps > 0.0 ? batched_qps / unbatched_qps : 0.0;
  std::printf(
      "\nbatched (K=%u):  %10.0f qps\n"
      "unbatched (K=1): %10.0f qps\n"
      "batch speedup: %.2fx\n",
      kMaxBatch, batched_qps, unbatched_qps, speedup);

  std::printf(
      "RESULT_JSON {\"experiment\":\"serve_latency\",\"objects\":%llu,"
      "\"conns1_qps\":%.1f,\"conns1_p50_ms\":%.3f,\"conns1_p99_ms\":%.3f,"
      "\"conns16_qps\":%.1f,\"conns16_p50_ms\":%.3f,"
      "\"conns16_p99_ms\":%.3f,"
      "\"conns64_qps\":%.1f,\"conns64_p50_ms\":%.3f,"
      "\"conns64_p99_ms\":%.3f,"
      "\"serve_batched_qps\":%.1f,\"serve_unbatched_qps\":%.1f,"
      "\"serve_batch_speedup\":%.3f,\"queue_wait_p99_ms\":%.3f}\n",
      static_cast<unsigned long long>(objects), by_conns[0].qps,
      by_conns[0].p50_ms, by_conns[0].p99_ms, by_conns[1].qps,
      by_conns[1].p50_ms, by_conns[1].p99_ms, by_conns[2].qps,
      by_conns[2].p50_ms, by_conns[2].p99_ms, batched_qps, unbatched_qps,
      speedup, by_conns[1].queue_wait_p99_ms);
  return 0;
}
