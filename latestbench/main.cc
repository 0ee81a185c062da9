// latestbench: the end-to-end benchmark of LATEST.
//
//   latestbench --workload <serve_paced|serve_query_flood|module_replay>
//               --seed <n> --seconds <s> --trace <0|1> [--quick]
//
// Prints a HOST line (the host fingerprint), detail lines per workload,
// an OPS line (operations attempted and failed per class), and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the detail lines add the traced end-to-end numbers,
// the tracing overhead and each layer's share of its end-to-end metric.

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/kernels.h"

namespace {

using namespace latestbench;

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') continue;
    out += c;
  }
  return out;
}

std::string HostLine(const Options& opts) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "HOST {\"nproc\":%u,\"cpu\":\"%s\",\"kernel_tier\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%d,\"quick\":%d}",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      latest::simd::KernelTierName(latest::simd::ActiveTier()),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      LATESTBENCH_BUILD_TYPE, opts.workload.c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, opts.quick ? 1 : 0);
  return buf;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "latestbench: %s\nusage: latestbench --workload "
               "<serve_paced|serve_query_flood|module_replay> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick]\n",
               why);
  std::exit(64);
}

Options Parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 120.0) {
        Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      opts.trace = value[0] == '1';
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload.empty()) Usage("--workload is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);
  std::printf("%s\n", HostLine(opts).c_str());
  std::fflush(stdout);
  WorkloadResult r;
  if (opts.workload == "serve_paced") {
    r = RunServePaced(opts);
  } else if (opts.workload == "serve_query_flood") {
    r = RunServeQueryFlood(opts);
  } else if (opts.workload == "module_replay") {
    r = RunModuleReplay(opts);
  } else {
    Usage("unknown workload");
  }
  for (const std::string& line : r.detail_lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& p : r.checks.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const OpCounts& ops = r.ops;
  std::printf("OPS %s\n",
              JsonNumbers({{"ingest_attempted", double(ops.ingest_attempted)},
                           {"ingest_failed", double(ops.ingest_failed)},
                           {"query_attempted", double(ops.query_attempted)},
                           {"query_failed", double(ops.query_failed)}})
                  .c_str());
  std::string metrics;
  char buf[256];
  for (const Metric& m : opts.trace ? r.per_layer : r.end_to_end) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      r.checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(ops.ingest_attempted +
                                      ops.query_attempted),
      static_cast<unsigned long long>(ops.ingest_failed + ops.query_failed),
      metrics.c_str());
  return 0;
}
