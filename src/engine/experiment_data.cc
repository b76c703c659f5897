#include "engine/experiment_data.h"

#include <algorithm>

#include "bsi/bsi_group_by.h"
#include "common/check.h"
#include "common/threadpool.h"

namespace expbsi {

const ExposeBsi* SegmentBsiData::FindExpose(uint64_t strategy_id) const {
  auto it = expose.find(strategy_id);
  return it == expose.end() ? nullptr : &it->second;
}

const MetricBsi* SegmentBsiData::FindMetric(uint64_t metric_id,
                                            Date date) const {
  auto it = metrics.find({metric_id, date});
  return it == metrics.end() ? nullptr : &it->second;
}

const DimensionBsi* SegmentBsiData::FindDimension(uint32_t dimension_id,
                                                  Date date) const {
  auto it = dimensions.find({dimension_id, date});
  return it == dimensions.end() ? nullptr : &it->second;
}

void FoldIntoBuckets(const ExperimentBsiData& data, int segment,
                     const Bsi& bucket_plus_one, const RoaringBitmap& mask,
                     const Bsi* value, std::vector<double>* sums,
                     std::vector<double>* counts) {
  if (mask.IsEmpty()) return;
  if (data.bucket_equals_segment) {
    if (value != nullptr) {
      (*sums)[segment] += static_cast<double>(value->SumUnderMask(mask));
    }
    if (counts != nullptr) {
      (*counts)[segment] += static_cast<double>(mask.Cardinality());
    }
    return;
  }
  if (value != nullptr) {
    const std::vector<uint64_t> bucket_sums =
        GroupSumByBucket(*value, bucket_plus_one, data.num_buckets, mask);
    for (int b = 0; b < data.num_buckets; ++b) {
      (*sums)[b] += static_cast<double>(bucket_sums[b]);
    }
  }
  if (counts != nullptr) {
    const std::vector<uint64_t> bucket_counts =
        GroupCountByBucket(bucket_plus_one, data.num_buckets, mask);
    for (int b = 0; b < data.num_buckets; ++b) {
      (*counts)[b] += static_cast<double>(bucket_counts[b]);
    }
  }
}

namespace {

// Builds one segment's BSI data in place.
void BuildSegment(const Dataset& dataset, int seg,
                  bool engagement_ordered_encoding,
                  int bucket_count_for_builder, SegmentBsiData* sbd) {
  const SegmentData& rows = dataset.segments[seg];
  if (engagement_ordered_encoding) {
    sbd->encoder.PreassignRanked(dataset.users_by_engagement[seg]);
  }

  // Group expose rows by strategy.
  std::unordered_map<uint64_t, std::vector<ExposeRow>> expose_groups;
  for (const ExposeRow& row : rows.expose) {
    expose_groups[row.strategy_id].push_back(row);
  }
  for (auto& [strategy_id, group] : expose_groups) {
    sbd->expose.emplace(
        strategy_id,
        BuildExposeBsi(group, sbd->encoder, bucket_count_for_builder));
  }

  // Group metric rows by (metric, date).
  std::map<std::pair<uint64_t, Date>, std::vector<MetricRow>> metric_groups;
  for (const MetricRow& row : rows.metrics) {
    metric_groups[{row.metric_id, row.date}].push_back(row);
  }
  for (auto& [key, group] : metric_groups) {
    sbd->metrics.emplace(key, BuildMetricBsi(group, sbd->encoder));
  }

  // Group dimension rows by (dimension, date).
  std::map<std::pair<uint32_t, Date>, std::vector<DimensionRow>> dim_groups;
  for (const DimensionRow& row : rows.dimensions) {
    dim_groups[{row.dimension_id, row.date}].push_back(row);
  }
  for (auto& [key, group] : dim_groups) {
    sbd->dimensions.emplace(key, BuildDimensionBsi(group, sbd->encoder));
  }
}

ExperimentBsiData MakeShell(const Dataset& dataset) {
  ExperimentBsiData out;
  out.num_segments = dataset.config.num_segments;
  out.num_buckets = dataset.config.num_buckets;
  out.bucket_equals_segment = dataset.config.bucket_equals_segment;
  out.segments.resize(out.num_segments);
  return out;
}

}  // namespace

ExperimentBsiData BuildExperimentBsiData(const Dataset& dataset,
                                         bool engagement_ordered_encoding) {
  ExperimentBsiData out = MakeShell(dataset);
  const int bucket_count_for_builder =
      out.bucket_equals_segment ? 0 : out.num_buckets;
  for (int seg = 0; seg < out.num_segments; ++seg) {
    BuildSegment(dataset, seg, engagement_ordered_encoding,
                 bucket_count_for_builder, &out.segments[seg]);
  }
  return out;
}

ExperimentBsiData BuildExperimentBsiDataParallel(
    const Dataset& dataset, bool engagement_ordered_encoding,
    int num_threads) {
  CHECK_GT(num_threads, 0);
  ExperimentBsiData out = MakeShell(dataset);
  const int bucket_count_for_builder =
      out.bucket_equals_segment ? 0 : out.num_buckets;
  ThreadPool pool(num_threads);
  ParallelFor(pool, out.num_segments,
              [&dataset, &out, engagement_ordered_encoding,
               bucket_count_for_builder](int seg) {
                BuildSegment(dataset, seg, engagement_ordered_encoding,
                             bucket_count_for_builder, &out.segments[seg]);
              });
  return out;
}

}  // namespace expbsi
