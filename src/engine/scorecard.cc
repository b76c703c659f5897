#include "engine/scorecard.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "roaring/union_accumulator.h"

namespace expbsi {

BucketValues ComputeStrategyMetricBsi(const ExperimentBsiData& data,
                                      uint64_t strategy_id,
                                      uint64_t metric_id, Date date_lo,
                                      Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  return FoldStrategyMetric(
      data, strategy_id, metric_id, date_lo, date_hi,
      [](int, const SegmentBsiData&, const ExposeBsi& expose) {
        return [&expose](Date date) {
          return expose.ExposedOnOrBefore(date);
        };
      });
}

BucketValues ComputeStrategyRatioMetricBsi(const ExperimentBsiData& data,
                                           uint64_t strategy_id,
                                           uint64_t numerator_metric_id,
                                           uint64_t denominator_metric_id,
                                           Date date_lo, Date date_hi) {
  BucketValues numerator = ComputeStrategyMetricBsi(
      data, strategy_id, numerator_metric_id, date_lo, date_hi);
  const BucketValues denominator = ComputeStrategyMetricBsi(
      data, strategy_id, denominator_metric_id, date_lo, date_hi);
  // The ratio's denominator is the other metric's sum, not the exposed
  // count.
  numerator.counts = denominator.sums;
  return numerator;
}

BucketValues ComputeStrategyUniqueVisitorsBsi(const ExperimentBsiData& data,
                                              uint64_t strategy_id,
                                              uint64_t metric_id, Date date_lo,
                                              Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  BucketValues out = BucketValues::Zeros(data.effective_buckets());
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const SegmentBsiData& sbd = data.segments[seg];
    const ExposeBsi* expose = sbd.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    // distinctPos across days: union of per-day (value > 0 AND exposed)
    // states, accumulated lazily so N days cost one container conversion per
    // key instead of N pairwise unions.
    UnionAccumulator acc;
    for (Date date = date_lo; date <= date_hi; ++date) {
      const MetricBsi* metric = sbd.FindMetric(metric_id, date);
      if (metric == nullptr) continue;
      acc.AddOwned(RoaringBitmap::And(metric->value.existence(),
                                      expose->ExposedOnOrBefore(date)));
    }
    const RoaringBitmap visitors = acc.Finish();
    FoldIntoBuckets(data, seg, expose->bucket, visitors, nullptr, nullptr,
                    &out.sums);
    FoldIntoBuckets(data, seg, expose->bucket,
                    expose->ExposedOnOrBefore(date_hi), nullptr, nullptr,
                    &out.counts);
  }
  return out;
}

ExposeMaskCache ExposeMaskCache::Build(const ExperimentBsiData& data,
                                       uint64_t strategy_id, Date date_lo,
                                       Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  ExposeMaskCache cache;
  cache.strategy_id_ = strategy_id;
  cache.date_lo_ = date_lo;
  cache.date_hi_ = date_hi;
  cache.num_days_ = static_cast<int>(date_hi - date_lo) + 1;
  cache.masks_.resize(static_cast<size_t>(data.num_segments) *
                      cache.num_days_);
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const ExposeBsi* expose = data.segments[seg].FindExpose(strategy_id);
    if (expose == nullptr) continue;
    std::vector<RoaringBitmap> by_day =
        expose->ExposedOnOrBeforeEachDay(date_lo, date_hi);
    std::move(by_day.begin(), by_day.end(),
              cache.masks_.begin() +
                  static_cast<ptrdiff_t>(seg) * cache.num_days_);
  }
  return cache;
}

const RoaringBitmap& ExposeMaskCache::Mask(int segment, Date date) const {
  DCHECK_GE(date, date_lo_);
  DCHECK_LE(date, date_hi_);
  return masks_[static_cast<size_t>(segment) * num_days_ +
                (date - date_lo_)];
}

BucketValues ComputeStrategyMetricBsiCached(const ExperimentBsiData& data,
                                            const ExposeMaskCache& cache,
                                            uint64_t metric_id, Date date_lo,
                                            Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  CHECK_GE(date_lo, cache.date_lo());
  CHECK_LE(date_hi, cache.date_hi());
  return FoldStrategyMetric(
      data, cache.strategy_id(), metric_id, date_lo, date_hi,
      [&cache](int seg, const SegmentBsiData&, const ExposeBsi&) {
        return [&cache, seg](Date date) -> const RoaringBitmap& {
          return cache.Mask(seg, date);
        };
      });
}

ScorecardEntry CompareStrategies(uint64_t metric_id, uint64_t treatment_id,
                                 const BucketValues& treatment_buckets,
                                 uint64_t control_id,
                                 const BucketValues& control_buckets) {
  ScorecardEntry entry;
  entry.metric_id = metric_id;
  entry.treatment_id = treatment_id;
  entry.control_id = control_id;
  entry.treatment = EstimateRatio(treatment_buckets);
  entry.control = EstimateRatio(control_buckets);
  entry.ttest = WelchTTest(entry.treatment.mean, entry.treatment.var_of_mean,
                           entry.treatment.df, entry.control.mean,
                           entry.control.var_of_mean, entry.control.df);
  // Data-quality gate: the two arms' unit totals must be consistent with
  // the (even) design split before the comparison above means anything.
  entry.srm = obs::SrmCheckCounts(
      static_cast<uint64_t>(treatment_buckets.total_count()),
      static_cast<uint64_t>(control_buckets.total_count()));
  return entry;
}

std::vector<std::vector<double>> ComputeMetricCovarianceMatrix(
    const ExperimentBsiData& data, uint64_t strategy_id,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  const size_t n = metric_ids.size();
  std::vector<BucketValues> buckets;
  buckets.reserve(n);
  for (uint64_t metric_id : metric_ids) {
    buckets.push_back(ComputeStrategyMetricBsi(data, strategy_id, metric_id,
                                               date_lo, date_hi));
  }
  std::vector<std::vector<double>> cov(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double c = EstimateRatioCovariance(buckets[i], buckets[j]);
      cov[i][j] = c;
      cov[j][i] = c;
    }
  }
  return cov;
}

std::vector<ScorecardEntry> ComputeScorecard(
    const ExperimentBsiData& data, uint64_t control_id,
    const std::vector<uint64_t>& treatment_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  obs::ScopedSpan span("scorecard");
  span.AddAttr("metrics", metric_ids.size());
  span.AddAttr("treatments", treatment_ids.size());
  std::vector<ScorecardEntry> entries;
  entries.reserve(treatment_ids.size() * metric_ids.size());
  for (uint64_t metric_id : metric_ids) {
    obs::ScopedSpan metric_span("scorecard_metric");
    metric_span.AddAttr("metric_id", metric_id);
    const BucketValues control_buckets = ComputeStrategyMetricBsi(
        data, control_id, metric_id, date_lo, date_hi);
    for (uint64_t treatment_id : treatment_ids) {
      const BucketValues treatment_buckets = ComputeStrategyMetricBsi(
          data, treatment_id, metric_id, date_lo, date_hi);
      entries.push_back(CompareStrategies(metric_id, treatment_id,
                                          treatment_buckets, control_id,
                                          control_buckets));
    }
  }
  static obs::Counter& computed = obs::GetCounter("engine.scorecard_entries");
  computed.Add(entries.size());
  return entries;
}

}  // namespace expbsi
