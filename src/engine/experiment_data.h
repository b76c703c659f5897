#ifndef EXPBSI_ENGINE_EXPERIMENT_DATA_H_
#define EXPBSI_ENGINE_EXPERIMENT_DATA_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expdata/bsi_builder.h"
#include "expdata/generator.h"
#include "expdata/position_encoder.h"
#include "expdata/schema.h"
#include "stats/bucket_stats.h"

namespace expbsi {

// All BSI representations of one segment, sharing one position encoder
// (which is what makes every BSI of the segment join-free, §4.1.1).
struct SegmentBsiData {
  PositionEncoder encoder;
  std::unordered_map<uint64_t, ExposeBsi> expose;               // by strategy
  std::map<std::pair<uint64_t, Date>, MetricBsi> metrics;       // (metric, date)
  std::map<std::pair<uint32_t, Date>, DimensionBsi> dimensions; // (dim, date)

  const ExposeBsi* FindExpose(uint64_t strategy_id) const;
  const MetricBsi* FindMetric(uint64_t metric_id, Date date) const;
  const DimensionBsi* FindDimension(uint32_t dimension_id, Date date) const;
};

// The whole dataset in BSI form, segment-major.
struct ExperimentBsiData {
  int num_segments = 0;
  // Number of statistical buckets. When bucket_equals_segment is true, the
  // bucket of a unit IS its segment and per-bucket values have num_segments
  // entries; otherwise expose logs carry a bucket BSI with num_buckets ids.
  int num_buckets = 0;
  bool bucket_equals_segment = true;

  std::vector<SegmentBsiData> segments;

  // Bucket count as used by BucketValues vectors.
  int effective_buckets() const {
    return bucket_equals_segment ? num_segments : num_buckets;
  }
};

// Folds one segment's masked partial into per-bucket replicates (§3.3,
// §4.2). This is the only place the bucket == segment choice is made: when
// the bucket is the segment, slot `segment` gains the masked total;
// otherwise `mask` is partitioned by `bucket_plus_one` (the expose BSI's
// bucket column, unused when the bucket is the segment) and every bucket
// gains its share. With `value`, the sum of `value` under the mask is added
// into `*sums`; with `counts`, the number of masked units is added into
// `*counts`. An empty mask adds nothing.
void FoldIntoBuckets(const ExperimentBsiData& data, int segment,
                     const Bsi& bucket_plus_one, const RoaringBitmap& mask,
                     const Bsi* value, std::vector<double>* sums,
                     std::vector<double>* counts);

// Converts a generated dataset to its BSI representation.
// `engagement_ordered_encoding` pre-assigns positions by engagement rank
// (§3.4.1, the paper's compact layout); otherwise positions are assigned in
// row-arrival order (the ablation baseline).
ExperimentBsiData BuildExperimentBsiData(const Dataset& dataset,
                                         bool engagement_ordered_encoding);

// Parallel variant: segments build concurrently on `num_threads` workers --
// segments are the paper's unit of parallel computing (§3.2), and BSI
// construction is embarrassingly parallel across them. Output is identical
// to the serial builder.
ExperimentBsiData BuildExperimentBsiDataParallel(
    const Dataset& dataset, bool engagement_ordered_encoding,
    int num_threads);

}  // namespace expbsi

#endif  // EXPBSI_ENGINE_EXPERIMENT_DATA_H_
