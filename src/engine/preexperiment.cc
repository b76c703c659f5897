#include "engine/preexperiment.h"

#include "bsi/bsi_aggregate.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expbsi {

BucketValues ComputePreExperimentBsi(const ExperimentBsiData& data,
                                     uint64_t strategy_id, uint64_t metric_id,
                                     Date expt_start, int lookback_days,
                                     Date as_of_date) {
  CHECK_GT(lookback_days, 0);
  CHECK_GE(expt_start, static_cast<Date>(lookback_days));
  obs::ScopedSpan span("preexperiment");
  span.AddAttr("lookback_days", static_cast<uint64_t>(lookback_days));
  static obs::Counter& runs = obs::GetCounter("engine.preexperiment_folds");
  runs.Add();
  BucketValues out = BucketValues::Zeros(data.effective_buckets());
  const Date pre_lo = expt_start - lookback_days;
  const Date pre_hi = expt_start - 1;
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const SegmentBsiData& sbd = data.segments[seg];
    const ExposeBsi* expose = sbd.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    // sumBSI over the C pre-period days: one multi-operand kernel call over
    // every day's BSI instead of a chain of pairwise Add materializations.
    std::vector<const Bsi*> days;
    days.reserve(static_cast<size_t>(lookback_days));
    for (Date date = pre_lo; date <= pre_hi; ++date) {
      const MetricBsi* metric = sbd.FindMetric(metric_id, date);
      if (metric != nullptr) days.push_back(&metric->value);
    }
    const Bsi pre_sum = SumBsi(days);
    FoldIntoBuckets(data, seg, expose->bucket,
                    expose->ExposedOnOrBefore(as_of_date), &pre_sum, &out.sums,
                    &out.counts);
  }
  return out;
}

PreAggIndex BuildPreAggIndex(const ExperimentBsiData& data, uint64_t metric_id,
                             Date first_date, Date last_date) {
  CHECK_LE(first_date, last_date);
  PreAggIndex index;
  index.metric_id = metric_id;
  index.first_date = first_date;
  index.last_date = last_date;
  index.per_segment.reserve(data.num_segments);
  for (int seg = 0; seg < data.num_segments; ++seg) {
    std::vector<Bsi> leaves;
    leaves.reserve(last_date - first_date + 1);
    for (Date date = first_date; date <= last_date; ++date) {
      const MetricBsi* metric = data.segments[seg].FindMetric(metric_id, date);
      leaves.push_back(metric != nullptr ? metric->value : Bsi());
    }
    index.per_segment.emplace_back(
        std::move(leaves),
        [](const Bsi& a, const Bsi& b) { return SumBsi(a, b); },
        [](const std::vector<const Bsi*>& nodes) { return SumBsi(nodes); });
  }
  return index;
}

BucketValues ComputePreExperimentWithTree(const ExperimentBsiData& data,
                                          const PreAggIndex& index,
                                          uint64_t strategy_id,
                                          Date expt_start, int lookback_days,
                                          Date as_of_date) {
  CHECK_GT(lookback_days, 0);
  CHECK_GE(expt_start, static_cast<Date>(lookback_days));
  const Date pre_lo = expt_start - lookback_days;
  const Date pre_hi = expt_start - 1;
  CHECK_GE(pre_lo, index.first_date);
  CHECK_LE(pre_hi, index.last_date);
  obs::ScopedSpan span("preexperiment_tree");
  span.AddAttr("lookback_days", static_cast<uint64_t>(lookback_days));
  static obs::Counter& runs = obs::GetCounter("engine.preexperiment_folds");
  runs.Add();
  BucketValues out = BucketValues::Zeros(data.effective_buckets());
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const ExposeBsi* expose = data.segments[seg].FindExpose(strategy_id);
    if (expose == nullptr) continue;
    const Bsi pre_sum = index.per_segment[seg].Query(
        static_cast<int>(pre_lo - index.first_date),
        static_cast<int>(pre_hi - index.first_date));
    FoldIntoBuckets(data, seg, expose->bucket,
                    expose->ExposedOnOrBefore(as_of_date), &pre_sum, &out.sums,
                    &out.counts);
  }
  return out;
}

CupedScorecardEntry CompareWithCuped(uint64_t metric_id,
                                     uint64_t treatment_id,
                                     const BucketValues& treatment_y,
                                     const BucketValues& treatment_x,
                                     uint64_t control_id,
                                     const BucketValues& control_y,
                                     const BucketValues& control_x) {
  CupedScorecardEntry entry;
  entry.raw = CompareStrategies(metric_id, treatment_id, treatment_y,
                                control_id, control_y);
  entry.theta = PooledCupedTheta({&treatment_y, &control_y},
                                 {&treatment_x, &control_x});
  const CupedResult treat =
      ApplyCuped(treatment_y, treatment_x, entry.theta);
  const CupedResult control = ApplyCuped(control_y, control_x, entry.theta);
  entry.treatment_adjusted = treat.adjusted;
  entry.control_adjusted = control.adjusted;
  entry.treatment_variance_reduction = treat.variance_reduction;
  entry.control_variance_reduction = control.variance_reduction;
  entry.adjusted_ttest = WelchTTest(
      treat.adjusted.mean, treat.adjusted.var_of_mean, treat.adjusted.df,
      control.adjusted.mean, control.adjusted.var_of_mean,
      control.adjusted.df);
  return entry;
}

}  // namespace expbsi
