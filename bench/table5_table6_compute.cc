// Tables 5 & 6: the three "typical metrics" A / B / C and the single-core
// computation time of a two-day per-user sum in the normal format vs BSI.
//
// Paper (Table 5): A = 316M rows, 140 MB, range (0,1]; B = 34M rows, 86 MB,
// range (0,50]; C = 510M rows, 2 GB, range (0,21600].
// Paper (Table 6): normal vs BSI seconds -- A: 59.2 / 0.6, B: 7.3 / 1.3,
// C: 94.3 / 10.5. Shapes: BSI wins 7x-100x; the binary metric A compresses
// to one slice and wins the most; the sparse metric B wins the least.
//
// Both paths compute sum-of-value-per-user over two days: sumBSI of two day
// BSIs per segment vs a hash group-by over the rows -- single-threaded, as
// in the paper's evaluation program. The BSI sum also runs through the
// paper's slice-by-slice ripple-carry adder (pairwise::Add), so the word
// kernel's gain or loss against it is measured on the same operands.

#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "bsi/bsi_aggregate.h"
#include "common/timer.h"
#include "expdata/bsi_builder.h"
#include "expdata/generator.h"
#include "expdata/position_encoder.h"
#include "tests/support/pairwise_kernels.h"

using namespace expbsi;

namespace {

struct MetricData {
  // Normal format rows of both days, per segment.
  std::vector<std::vector<MetricRow>> rows_by_segment;
  // BSI format: [segment][day].
  std::vector<std::vector<Bsi>> bsi_by_segment;
  uint64_t rows_day1 = 0;
  size_t bsi_bytes = 0;
  size_t normal_bytes = 0;  // 18-byte rows, both days
  uint64_t value_range = 0;
};

}  // namespace

int main() {
  bench_util::OraclePreflight();
  const uint64_t users = bench_util::ScaledUsers(1u << 20);
  const int kSegments = 16;
  const int kRepeats = 5;

  bench_util::PrintBanner(
      "Tables 5+6: typical metrics A/B/C; two-day per-user sum, "
      "normal vs BSI (single core)",
      "BSI is 7x-100x faster; binary metric A wins the most, sparse B the "
      "least");
  std::printf("scale: %llu users, %d segments, 2 days, %d repeats\n\n",
              static_cast<unsigned long long>(users), kSegments, kRepeats);

  DatasetConfig config;
  config.num_users = users;
  config.num_segments = kSegments;
  config.num_days = 2;
  config.seed = 555;

  const std::vector<MetricConfig> abc = MakeTypicalMetricsABC();
  Dataset ds = GenerateDataset(config, {}, abc, {});

  // Split per metric.
  std::map<uint64_t, MetricData> data;
  for (const MetricConfig& m : abc) {
    data[m.metric_id].rows_by_segment.resize(kSegments);
    data[m.metric_id].bsi_by_segment.assign(kSegments,
                                            std::vector<Bsi>(2));
    data[m.metric_id].value_range = m.value_range;
  }
  for (int seg = 0; seg < kSegments; ++seg) {
    PositionEncoder encoder;
    encoder.PreassignRanked(ds.users_by_engagement[seg]);
    std::map<std::pair<uint64_t, Date>, std::vector<MetricRow>> groups;
    for (const MetricRow& row : ds.segments[seg].metrics) {
      groups[{row.metric_id, row.date}].push_back(row);
      MetricData& md = data[row.metric_id];
      md.rows_by_segment[seg].push_back(row);
      if (row.date == 0) ++md.rows_day1;
    }
    for (auto& [key, rows] : groups) {
      MetricBsi bsi = BuildMetricBsi(rows, encoder);
      MetricData& md = data[key.first];
      md.bsi_bytes += bsi.value.SizeInBytes();
      md.bsi_by_segment[seg][key.second] = std::move(bsi.value);
    }
  }
  for (auto& [id, md] : data) {
    for (const auto& rows : md.rows_by_segment) {
      md.normal_bytes += rows.size() * 18;
    }
  }

  // ---- Table 5 ----
  std::printf("Table 5 (one day):\n");
  std::printf("%-7s %14s %14s %14s %16s\n", "Metric", "Rows", "Normal size",
              "BSI size", "Value range");
  const char* names[] = {"A", "B", "C"};
  int idx = 0;
  for (const MetricConfig& m : abc) {
    const MetricData& md = data.at(m.metric_id);
    std::printf("%-7s %14s %14s %14s %16llu\n", names[idx++],
                bench_util::HumanCount(
                    static_cast<double>(md.rows_day1)).c_str(),
                bench_util::HumanBytes(
                    static_cast<double>(md.rows_day1) * 18).c_str(),
                bench_util::HumanBytes(
                    static_cast<double>(md.bsi_bytes) / 2).c_str(),
                static_cast<unsigned long long>(m.value_range));
  }

  // ---- Table 6 ----
  std::printf("\nTable 6 (two-day per-user sum, avg of %d runs):\n",
              kRepeats);
  std::printf("%-7s %15s %15s %15s %10s %22s\n", "Metric", "Normal", "BSI",
              "BSI pairwise", "speedup", "paper normal/BSI");
  const char* paper[] = {"59.2s / 0.6s (99x)", "7.3s / 1.3s (5.6x)",
                         "94.3s / 10.5s (9x)"};
  idx = 0;
  for (const MetricConfig& m : abc) {
    MetricData& md = data.at(m.metric_id);
    // Normal: hash group-by user over both days' rows.
    double normal_seconds = 0;
    uint64_t normal_checksum = 0;
    for (int r = 0; r < kRepeats; ++r) {
      CpuTimer timer;
      for (int seg = 0; seg < kSegments; ++seg) {
        std::unordered_map<uint32_t, uint64_t> sums;
        sums.reserve(md.rows_by_segment[seg].size());
        for (const MetricRow& row : md.rows_by_segment[seg]) {
          sums[static_cast<uint32_t>(row.analysis_unit_id)] += row.value;
        }
        normal_checksum += sums.size();
      }
      normal_seconds += timer.ElapsedSeconds();
    }
    normal_seconds /= kRepeats;

    // BSI: sumBSI of the two day slices per segment.
    double bsi_seconds = 0;
    uint64_t bsi_checksum = 0;
    for (int r = 0; r < kRepeats; ++r) {
      CpuTimer timer;
      for (int seg = 0; seg < kSegments; ++seg) {
        Bsi sum = SumBsi(md.bsi_by_segment[seg][0],
                         md.bsi_by_segment[seg][1]);
        bsi_checksum += sum.Cardinality();
      }
      bsi_seconds += timer.ElapsedSeconds();
    }
    bsi_seconds /= kRepeats;

    // BSI, pairwise: the same per-segment sums through the paper's
    // ripple-carry adder, checked bit for bit against the word kernel.
    for (int seg = 0; seg < kSegments; ++seg) {
      const std::vector<Bsi>& days = md.bsi_by_segment[seg];
      if (!(pairwise::Add(days[0], days[1]) == SumBsi(days[0], days[1]))) {
        std::printf("PAIRWISE MISMATCH for metric %s!\n", names[idx]);
        return 1;
      }
    }
    double pairwise_seconds = 0;
    uint64_t pairwise_checksum = 0;
    for (int r = 0; r < kRepeats; ++r) {
      CpuTimer timer;
      for (int seg = 0; seg < kSegments; ++seg) {
        Bsi sum = pairwise::Add(md.bsi_by_segment[seg][0],
                                md.bsi_by_segment[seg][1]);
        pairwise_checksum += sum.Cardinality();
      }
      pairwise_seconds += timer.ElapsedSeconds();
    }
    pairwise_seconds /= kRepeats;

    if (normal_checksum / kRepeats != bsi_checksum / kRepeats ||
        pairwise_checksum != bsi_checksum) {
      std::printf("CHECKSUM MISMATCH for metric %s!\n", names[idx]);
      return 1;
    }
    std::printf("%-7s %13.1fms %13.1fms %13.1fms %9.1fx %22s\n", names[idx],
                normal_seconds * 1e3, bsi_seconds * 1e3,
                pairwise_seconds * 1e3, normal_seconds / bsi_seconds,
                paper[idx]);
    std::printf("BENCHJSON {\"op\": \"table6_normal_metric_%s\", "
                "\"ns_per_op\": %.0f}\n", names[idx], normal_seconds * 1e9);
    std::printf("BENCHJSON {\"op\": \"table6_bsi_metric_%s\", "
                "\"ns_per_op\": %.0f}\n", names[idx], bsi_seconds * 1e9);
    std::printf("BENCHJSON {\"op\": \"table6_bsi_pairwise_metric_%s\", "
                "\"ns_per_op\": %.0f}\n", names[idx], pairwise_seconds * 1e9);
    ++idx;
  }
  std::printf("\n(normal format must re-aggregate every row through a hash "
              "table; BSI adds compressed bit-slices word-at-a-time)\n");
  bench_util::EmitRegistrySnapshot("table5_table6_compute");
  return 0;
}
