#ifndef EXPBSI_ENGINE_SCORECARD_H_
#define EXPBSI_ENGINE_SCORECARD_H_

#include <cstdint>
#include <vector>

#include "engine/experiment_data.h"
#include "obs/srm.h"
#include "stats/bucket_stats.h"
#include "stats/ttest.h"

namespace expbsi {

// Scorecard computation (§4.2) on the BSI representation: for each
// (strategy, metric) the per-bucket sums and exposed-unit counts, then the
// metric value and a t-test against the control strategy.
//
// The per-segment, per-day kernel is exactly the paper's SQL:
//   expose         = (expose-date <= date)            -- a range search
//   filtered-value = value * expose                   -- a binary multiply
//   bucket-value   = sum(filtered-value) [by bucket]  -- slice popcounts
// summed across days and merged across segments.

// Per-bucket sums and counts of one strategy-metric over dates
// [date_lo, date_hi] (inclusive). The exposure filter is evaluated per day,
// so a unit's values only count from its first-expose date onward; the
// denominator is the units exposed by date_hi.
BucketValues ComputeStrategyMetricBsi(const ExperimentBsiData& data,
                                      uint64_t strategy_id,
                                      uint64_t metric_id, Date date_lo,
                                      Date date_hi);

// Ratio metric between two metric logs (e.g. page-click-rate = clicks /
// page-views): per-bucket numerator sums paired with denominator sums, so
// EstimateRatio yields the delta-method variance of the ratio-of-sums.
// Both metrics are filtered by the same per-day exposure masks.
BucketValues ComputeStrategyRatioMetricBsi(const ExperimentBsiData& data,
                                           uint64_t strategy_id,
                                           uint64_t numerator_metric_id,
                                           uint64_t denominator_metric_id,
                                           Date date_lo, Date date_hi);

// Unique-visitor variant (§4.2 last paragraph): per-bucket count of distinct
// exposed units with a non-zero value on any day in range. Per-day states
// (value > 0) are merged with distinctPos before counting, which is the
// paper's non-decomposable-aggregate treatment.
BucketValues ComputeStrategyUniqueVisitorsBsi(const ExperimentBsiData& data,
                                              uint64_t strategy_id,
                                              uint64_t metric_id, Date date_lo,
                                              Date date_hi);

// Cached per-day exposure masks of one strategy across all segments. The
// paper's pre-compute jobs batch many metrics of the same strategy precisely
// so this filter work is paid once per batch, not once per pair (§5.2).
class ExposeMaskCache {
 public:
  static ExposeMaskCache Build(const ExperimentBsiData& data,
                               uint64_t strategy_id, Date date_lo,
                               Date date_hi);

  // Units of `segment` exposed on or before `date`.
  const RoaringBitmap& Mask(int segment, Date date) const;

  uint64_t strategy_id() const { return strategy_id_; }
  Date date_lo() const { return date_lo_; }
  Date date_hi() const { return date_hi_; }

 private:
  uint64_t strategy_id_ = 0;
  Date date_lo_ = 0;
  Date date_hi_ = 0;
  int num_days_ = 1;
  // masks_[segment * num_days_ + (date - date_lo_)]
  std::vector<RoaringBitmap> masks_;
};

// ComputeStrategyMetricBsi served from a prebuilt mask cache (identical
// results; the expose range searches are amortized across metrics).
BucketValues ComputeStrategyMetricBsiCached(const ExperimentBsiData& data,
                                            const ExposeMaskCache& cache,
                                            uint64_t metric_id, Date date_lo,
                                            Date date_hi);

// The per-segment, per-day loop behind ComputeStrategyMetricBsi, its cached
// form and the deep-dive's ComputeStrategyMetricBsiFiltered, which differ
// only in where a day's exposure mask comes from. For each segment exposing
// `strategy_id`, `segment_masks(seg, segment_data, expose)` returns a
// callable mapping a date to that day's mask -- by value when computed, by
// const reference when cached, so cached masks are never copied. Each day's
// metric sum and the date_hi mask's count fold through FoldIntoBuckets.
template <typename SegmentMasks>
BucketValues FoldStrategyMetric(const ExperimentBsiData& data,
                                uint64_t strategy_id, uint64_t metric_id,
                                Date date_lo, Date date_hi,
                                const SegmentMasks& segment_masks) {
  BucketValues out = BucketValues::Zeros(data.effective_buckets());
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const SegmentBsiData& sbd = data.segments[seg];
    const ExposeBsi* expose = sbd.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    const auto mask_on = segment_masks(seg, sbd, *expose);
    for (Date date = date_lo; date <= date_hi; ++date) {
      const MetricBsi* metric = sbd.FindMetric(metric_id, date);
      if (metric == nullptr) continue;
      FoldIntoBuckets(data, seg, expose->bucket, mask_on(date),
                      &metric->value, &out.sums, nullptr);
    }
    FoldIntoBuckets(data, seg, expose->bucket, mask_on(date_hi), nullptr,
                    nullptr, &out.counts);
  }
  return out;
}

// One scorecard line: treatment vs control on one metric.
struct ScorecardEntry {
  uint64_t metric_id = 0;
  uint64_t treatment_id = 0;
  uint64_t control_id = 0;
  MetricEstimate treatment;
  MetricEstimate control;
  TTestResult ttest;
  // Sample-ratio-mismatch check over the two arms' denominators (exposed
  // units on the standard scorecard path), against an even split. A
  // mismatch means the randomization itself is suspect and the t-test above
  // should not be trusted; it is carried here -- never dropped -- so every
  // consumer sees it. See src/obs/srm.h.
  SrmResult srm;
};

// Runs the statistical comparison given the two arms' bucket values.
ScorecardEntry CompareStrategies(uint64_t metric_id, uint64_t treatment_id,
                                 const BucketValues& treatment_buckets,
                                 uint64_t control_id,
                                 const BucketValues& control_buckets);

// Covariance matrix of several ratio-metric estimates of one strategy over
// the SAME buckets (§3.3: "the covariance between metrics should be
// estimated correctly"; it feeds composite-metric inference and CUPED).
// Entry [i][j] is the delta-method covariance of metric i's and metric j's
// means; the diagonal equals each metric's var_of_mean.
std::vector<std::vector<double>> ComputeMetricCovarianceMatrix(
    const ExperimentBsiData& data, uint64_t strategy_id,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi);

// Full scorecard: every (treatment strategy, metric) against the control.
std::vector<ScorecardEntry> ComputeScorecard(
    const ExperimentBsiData& data, uint64_t control_id,
    const std::vector<uint64_t>& treatment_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi);

}  // namespace expbsi

#endif  // EXPBSI_ENGINE_SCORECARD_H_
