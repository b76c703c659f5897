// perfbench: the repository benchmark program. One invocation runs one
// workload for a fixed window and prints, as its last stdout line, one JSON
// object {correct, attempted, failed, metrics}. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) replay every layer's public
// calls under spans and report the per-layer metrics. See README.md.
//
//   perfbench --workload <scorecard_fleet|precompute_1024b|ingest_live>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--commit <id>]

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/cpu_features.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_per_s", "1/s"},
    {"latency_ms", "ms"},      {"latency_tail_ms", "ms"},
    {"read_p50_ms", "ms"},     {"cpu_ms_per_op", "ms"},
    {"bytes_per_op", "B"},     {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"storage.fetch_us", "us"},
    {"storage.hot_hit_ratio", "ratio"},
    {"storage.fetches", "count"},
    {"bsi.decode_us", "us"},
    {"bsi.decode_bytes", "B"},
    {"bsi.expose_mask_ms", "ms"},
    {"bsi.masked_sum_ms", "ms"},
    {"bsi.masked_sum_calls", "count"},
    {"cluster.segment_execute_ms", "ms"},
    {"wire.codec_us", "us"},
    {"wire.bytes_per_query", "B"},
    {"net.connect_us", "us"},
    {"net.rpc_roundtrip_us", "us"},
    {"net.scatter_overhead_ms", "ms"},
    {"net.rejections", "count"},
    {"net.node_restart_ms", "ms"},
    {"engine.mask_cache_build_ms", "ms"},
    {"engine.pair_ms", "ms"},
    {"common.pool_efficiency", "ratio"},
    {"bsi.partition_ms", "ms"},
    {"bsi.bucket_sum_us", "us"},
    {"bsi.bucket_mask_card", "count"},
    {"wal.append_us", "us"},
    {"wal.fsync_us", "us"},
    {"wal.roll_append_us", "us"},
    {"wal.bytes_per_event", "B"},
    {"wal.delta_merge_us", "us"},
    {"query.parse_us", "us"},
    {"query.execute_ms", "ms"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.snapshot_bytes", "B"},
    {"wal.replay_ms", "ms"},
    {"storage.recover_ms", "ms"},
    {"roaring.array_share", "ratio"},
    {"roaring.bitmap_share", "ratio"},
    {"roaring.run_share", "ratio"},
    {"obs.op_ms", "ms"},
    {"obs.covered_ms", "ms"},
    {"obs.uncovered_ms", "ms"},
    {"obs.trace_overhead", "ms"},
};

const char* const kWorkloads[] = {"scorecard_fleet", "precompute_1024b",
                                  "ingest_live"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<scorecard_fleet|precompute_1024b|ingest_live> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--commit <id>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

// Keeps every CPU busy for a moment before anything is timed. On a shared
// virtual machine an idle vCPU comes back slow; without this the first
// set-up of a run after a pause read up to twice its usual time.
void Settle(double seconds) {
  const long cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const uint64_t until = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> spinners;
  for (long i = 0; i < cpus; ++i) {
    spinners.emplace_back([until] {
      volatile uint64_t sink = 0;
      while (NowNs() < until) {
        for (int k = 0; k < 1000; ++k) sink = sink + k;
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

// Keeps exactly the metrics of `specs`; false (with a message) when one is
// missing or has the wrong unit -- a benchmark bug, never a result.
bool SelectMetrics(const MetricSpec* specs, size_t n, Outcome* out) {
  std::vector<Metric> kept;
  for (size_t i = 0; i < n; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : out->metrics) {
      if (m.name == specs[i].name) found = &m;
    }
    if (found == nullptr || found->unit != specs[i].unit ||
        !std::isfinite(found->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or malformed\n",
                   specs[i].name);
      return false;
    }
    kept.push_back(*found);
  }
  out->metrics = std::move(kept);
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
      have_seconds = args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      have_trace = args.trace || std::strcmp(value, "0") == 0;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || args.out_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  if (!ResetDir(args.out_dir + "/probe")) {
    return Usage("cannot write under --out-dir");
  }

#ifdef EXPBSI_NO_METRICS
  const bool no_metrics = true;
#else
  const bool no_metrics = false;
#endif
  std::printf(
      "perfbench-env {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": %s, \"cpu_model\": %s, \"nproc\": %ld, "
      "\"simd_tier\": %s, \"build_type\": %s, \"expbsi_no_metrics\": %s, "
      "\"out_dir_fs\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, JsonString(commit).c_str(),
      JsonString(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(expbsi::SimdTierName(expbsi::ActiveSimdTier())).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      no_metrics ? "true" : "false",
      JsonString(FilesystemType(args.out_dir + "/probe")).c_str());
  RemoveTree(args.out_dir + "/probe");
  std::fflush(stdout);

  Settle(0.5);
  Outcome out;
  if (args.workload == "scorecard_fleet") {
    out = RunFleet(args);
  } else if (args.workload == "precompute_1024b") {
    out = RunPrecompute(args);
  } else {
    out = RunIngest(args);
  }
  if (args.trace) {
    ReplayFleet(args, args.workload == "scorecard_fleet", &out);
    ReplayPrecompute(args, args.workload == "precompute_1024b", &out);
    ReplayIngest(args, args.workload == "ingest_live", &out);
    const std::string spans = args.out_dir + "/spans-" + args.workload + "-" +
                              std::to_string(args.seed) + ".jsonl";
    if (!SpanRecorder::Global().WriteJsonLines(spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
      return 1;
    }
    out.Info("spans_file", spans);
    out.Info("spans", static_cast<double>(SpanRecorder::Global().size()));
  }
  const bool selected =
      args.trace ? SelectMetrics(kPerLayer, std::size(kPerLayer), &out)
                 : SelectMetrics(kEndToEnd, std::size(kEndToEnd), &out);
  if (!selected) {
    // A run whose output gate failed may stop before measuring; it still
    // reports the failure. A correct run missing a metric is a bug here.
    if (out.correct) return 1;
    out.metrics.clear();
  }

  for (const auto& [key, value] : out.info) {
    std::printf("info %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (out.attempted == 0) out.attempted = 1;  // the run itself
  std::string json = "{\"correct\": ";
  json += out.correct && out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out.metrics[i].value);
    if (i > 0) json += ", ";
    json += JsonString(out.metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(out.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
