#include "reference/ref_engine.h"

#include <set>

#include "common/check.h"
#include "reference/ref_stats.h"

namespace expbsi {
namespace {

BucketValues MakeEmptyBuckets(const RefExperimentData& data) {
  BucketValues out;
  out.sums.assign(data.effective_buckets(), 0.0);
  out.counts.assign(data.effective_buckets(), 0.0);
  return out;
}

// Bucket of an exposed unit: the segment itself, or the unit's stored
// bucket id.
int BucketOfUnit(const RefExperimentData& data, const RefExpose& expose,
                 int segment, UnitId unit) {
  if (data.bucket_equals_segment) return segment;
  auto it = expose.bucket.find(unit);
  CHECK(it != expose.bucket.end());
  return it->second;
}

bool IsExposedBy(const RefExpose& expose, UnitId unit, Date date) {
  auto it = expose.first_expose.find(unit);
  return it != expose.first_expose.end() && it->second <= date;
}

// Per-bucket integer sum of one (segment, day) cell: metric values of units
// exposed by `date`. Returned as integers so the caller can fold them into
// doubles in the same order the BSI engine does.
std::vector<uint64_t> SegmentDaySums(const RefExperimentData& data,
                                     int segment, const RefExpose& expose,
                                     const std::map<UnitId, uint64_t>& metric,
                                     Date date) {
  std::vector<uint64_t> sums(data.effective_buckets(), 0);
  for (const auto& [unit, value] : metric) {
    if (!IsExposedBy(expose, unit, date)) continue;
    sums[BucketOfUnit(data, expose, segment, unit)] += value;
  }
  return sums;
}

// Per-bucket count of units exposed by `date`.
std::vector<uint64_t> ExposedCounts(const RefExperimentData& data,
                                    int segment, const RefExpose& expose,
                                    Date date) {
  std::vector<uint64_t> counts(data.effective_buckets(), 0);
  for (const auto& [unit, first] : expose.first_expose) {
    if (first > date) continue;
    ++counts[BucketOfUnit(data, expose, segment, unit)];
  }
  return counts;
}

void AddToDoubles(const std::vector<uint64_t>& from,
                  std::vector<double>* to) {
  for (size_t b = 0; b < from.size(); ++b) {
    (*to)[b] += static_cast<double>(from[b]);
  }
}

// True if `unit` passes every dimension predicate on `dim_date`. A missing
// dimension value fails the predicate (zero-is-absent).
bool PassesDimensionFilter(const RefSegment& segment,
                           const std::vector<DimensionPredicate>& preds,
                           Date dim_date, UnitId unit) {
  for (const DimensionPredicate& pred : preds) {
    const std::map<UnitId, uint64_t>* dim =
        segment.FindDimension(pred.dimension_id, dim_date);
    if (dim == nullptr) return false;
    auto it = dim->find(unit);
    if (it == dim->end()) return false;
    const uint64_t v = it->second;
    bool holds = false;
    switch (pred.op) {
      case RangeOp::kEq:
        holds = v == pred.value;
        break;
      case RangeOp::kNe:
        holds = v != pred.value;
        break;
      case RangeOp::kLt:
        holds = v < pred.value;
        break;
      case RangeOp::kLe:
        holds = v <= pred.value;
        break;
      case RangeOp::kGt:
        holds = v > pred.value;
        break;
      case RangeOp::kGe:
        holds = v >= pred.value;
        break;
    }
    if (!holds) return false;
  }
  return true;
}

// True if any unit of the segment passes all predicates on `dim_date`
// (mirrors DimensionFilterMask's "empty mask -> segment contributes
// nothing", including its skipped exposed-count contribution).
bool AnyUnitPassesFilter(const RefSegment& segment,
                         const std::vector<DimensionPredicate>& preds,
                         Date dim_date) {
  if (preds.empty()) return true;
  const std::map<UnitId, uint64_t>* first_dim =
      segment.FindDimension(preds.front().dimension_id, dim_date);
  if (first_dim == nullptr) return false;
  for (const auto& [unit, value] : *first_dim) {
    if (PassesDimensionFilter(segment, preds, dim_date, unit)) return true;
  }
  return false;
}

}  // namespace

BucketValues RefComputeStrategyMetric(const RefExperimentData& data,
                                      uint64_t strategy_id,
                                      uint64_t metric_id, Date date_lo,
                                      Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  BucketValues out = MakeEmptyBuckets(data);
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const RefSegment& segment = data.segments[seg];
    const RefExpose* expose = segment.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    for (Date date = date_lo; date <= date_hi; ++date) {
      const std::map<UnitId, uint64_t>* metric =
          segment.FindMetric(metric_id, date);
      if (metric == nullptr) continue;
      AddToDoubles(SegmentDaySums(data, seg, *expose, *metric, date),
                   &out.sums);
    }
    AddToDoubles(ExposedCounts(data, seg, *expose, date_hi), &out.counts);
  }
  return out;
}

BucketValues RefComputeStrategyRatioMetric(const RefExperimentData& data,
                                           uint64_t strategy_id,
                                           uint64_t numerator_metric_id,
                                           uint64_t denominator_metric_id,
                                           Date date_lo, Date date_hi) {
  BucketValues numerator = RefComputeStrategyMetric(
      data, strategy_id, numerator_metric_id, date_lo, date_hi);
  const BucketValues denominator = RefComputeStrategyMetric(
      data, strategy_id, denominator_metric_id, date_lo, date_hi);
  numerator.counts = denominator.sums;
  return numerator;
}

BucketValues RefComputeStrategyUniqueVisitors(const RefExperimentData& data,
                                              uint64_t strategy_id,
                                              uint64_t metric_id,
                                              Date date_lo, Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  BucketValues out = MakeEmptyBuckets(data);
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const RefSegment& segment = data.segments[seg];
    const RefExpose* expose = segment.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    // Units with a value on some day d in range AND exposed by d.
    std::set<UnitId> visitors;
    for (Date date = date_lo; date <= date_hi; ++date) {
      const std::map<UnitId, uint64_t>* metric =
          segment.FindMetric(metric_id, date);
      if (metric == nullptr) continue;
      for (const auto& [unit, value] : *metric) {
        if (IsExposedBy(*expose, unit, date)) visitors.insert(unit);
      }
    }
    std::vector<uint64_t> counts(data.effective_buckets(), 0);
    for (UnitId unit : visitors) {
      ++counts[BucketOfUnit(data, *expose, seg, unit)];
    }
    AddToDoubles(counts, &out.sums);
    AddToDoubles(ExposedCounts(data, seg, *expose, date_hi), &out.counts);
  }
  return out;
}

BucketValues RefComputeStrategyMetricFiltered(
    const RefExperimentData& data, uint64_t strategy_id, uint64_t metric_id,
    Date date_lo, Date date_hi,
    const std::vector<DimensionPredicate>& preds, Date dim_date) {
  CHECK_LE(date_lo, date_hi);
  BucketValues out = MakeEmptyBuckets(data);
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const RefSegment& segment = data.segments[seg];
    const RefExpose* expose = segment.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    if (!AnyUnitPassesFilter(segment, preds, dim_date)) continue;
    for (Date date = date_lo; date <= date_hi; ++date) {
      const std::map<UnitId, uint64_t>* metric =
          segment.FindMetric(metric_id, date);
      if (metric == nullptr) continue;
      std::vector<uint64_t> sums(data.effective_buckets(), 0);
      for (const auto& [unit, value] : *metric) {
        if (!IsExposedBy(*expose, unit, date)) continue;
        if (!PassesDimensionFilter(segment, preds, dim_date, unit)) continue;
        sums[BucketOfUnit(data, *expose, seg, unit)] += value;
      }
      AddToDoubles(sums, &out.sums);
    }
    std::vector<uint64_t> counts(data.effective_buckets(), 0);
    for (const auto& [unit, first] : expose->first_expose) {
      if (first > date_hi) continue;
      if (!PassesDimensionFilter(segment, preds, dim_date, unit)) continue;
      ++counts[BucketOfUnit(data, *expose, seg, unit)];
    }
    AddToDoubles(counts, &out.counts);
  }
  return out;
}

BucketValues RefComputePreExperiment(const RefExperimentData& data,
                                     uint64_t strategy_id, uint64_t metric_id,
                                     Date expt_start, int lookback_days,
                                     Date as_of_date) {
  CHECK_GT(lookback_days, 0);
  CHECK_GE(expt_start, static_cast<Date>(lookback_days));
  BucketValues out = MakeEmptyBuckets(data);
  const Date pre_lo = expt_start - lookback_days;
  const Date pre_hi = expt_start - 1;
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const RefSegment& segment = data.segments[seg];
    const RefExpose* expose = segment.FindExpose(strategy_id);
    if (expose == nullptr) continue;
    // Per-unit pre-period totals (the scalar sumBSI fold).
    std::map<UnitId, uint64_t> pre_sum;
    for (Date date = pre_lo; date <= pre_hi; ++date) {
      const std::map<UnitId, uint64_t>* metric =
          segment.FindMetric(metric_id, date);
      if (metric == nullptr) continue;
      for (const auto& [unit, value] : *metric) pre_sum[unit] += value;
    }
    std::vector<uint64_t> sums(data.effective_buckets(), 0);
    std::vector<uint64_t> counts(data.effective_buckets(), 0);
    bool any_exposed = false;
    for (const auto& [unit, first] : expose->first_expose) {
      if (first > as_of_date) continue;
      any_exposed = true;
      const int bucket = BucketOfUnit(data, *expose, seg, unit);
      ++counts[bucket];
      auto it = pre_sum.find(unit);
      if (it != pre_sum.end()) sums[bucket] += it->second;
    }
    if (!any_exposed) continue;
    AddToDoubles(sums, &out.sums);
    AddToDoubles(counts, &out.counts);
  }
  return out;
}

ScorecardEntry RefCompareStrategies(uint64_t metric_id, uint64_t treatment_id,
                                    const BucketValues& treatment_buckets,
                                    uint64_t control_id,
                                    const BucketValues& control_buckets) {
  ScorecardEntry entry;
  entry.metric_id = metric_id;
  entry.treatment_id = treatment_id;
  entry.control_id = control_id;
  entry.treatment = RefEstimateRatio(treatment_buckets);
  entry.control = RefEstimateRatio(control_buckets);
  entry.ttest =
      RefWelchTTest(entry.treatment.mean, entry.treatment.var_of_mean,
                    entry.treatment.df, entry.control.mean,
                    entry.control.var_of_mean, entry.control.df);
  return entry;
}

std::vector<ScorecardEntry> RefComputeScorecard(
    const RefExperimentData& data, uint64_t control_id,
    const std::vector<uint64_t>& treatment_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  std::vector<ScorecardEntry> entries;
  entries.reserve(treatment_ids.size() * metric_ids.size());
  for (uint64_t metric_id : metric_ids) {
    const BucketValues control_buckets = RefComputeStrategyMetric(
        data, control_id, metric_id, date_lo, date_hi);
    for (uint64_t treatment_id : treatment_ids) {
      const BucketValues treatment_buckets = RefComputeStrategyMetric(
          data, treatment_id, metric_id, date_lo, date_hi);
      entries.push_back(RefCompareStrategies(metric_id, treatment_id,
                                             treatment_buckets, control_id,
                                             control_buckets));
    }
  }
  return entries;
}

std::vector<std::vector<double>> RefComputeMetricCovarianceMatrix(
    const RefExperimentData& data, uint64_t strategy_id,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  const size_t n = metric_ids.size();
  std::vector<BucketValues> buckets;
  buckets.reserve(n);
  for (uint64_t metric_id : metric_ids) {
    buckets.push_back(RefComputeStrategyMetric(data, strategy_id, metric_id,
                                               date_lo, date_hi));
  }
  std::vector<std::vector<double>> cov(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double c = RefEstimateRatioCovariance(buckets[i], buckets[j]);
      cov[i][j] = c;
      cov[j][i] = c;
    }
  }
  return cov;
}

std::vector<ScorecardEntry> RefComputeDailyBreakdown(
    const RefExperimentData& data, uint64_t control_id, uint64_t treatment_id,
    uint64_t metric_id, Date date_lo, Date date_hi) {
  std::vector<ScorecardEntry> out;
  out.reserve(date_hi - date_lo + 1);
  for (Date date = date_lo; date <= date_hi; ++date) {
    const BucketValues treat =
        RefComputeStrategyMetric(data, treatment_id, metric_id, date, date);
    const BucketValues control =
        RefComputeStrategyMetric(data, control_id, metric_id, date, date);
    out.push_back(RefCompareStrategies(metric_id, treatment_id, treat,
                                       control_id, control));
  }
  return out;
}

std::vector<DimensionBreakdownEntry> RefComputeDimensionBreakdown(
    const RefExperimentData& data, uint64_t control_id, uint64_t treatment_id,
    uint64_t metric_id, Date date_lo, Date date_hi, uint32_t dimension_id,
    const std::vector<uint64_t>& dim_values, Date dim_date) {
  std::vector<DimensionBreakdownEntry> out;
  out.reserve(dim_values.size());
  for (uint64_t value : dim_values) {
    const std::vector<DimensionPredicate> preds = {
        {dimension_id, RangeOp::kEq, value}};
    const BucketValues treat = RefComputeStrategyMetricFiltered(
        data, treatment_id, metric_id, date_lo, date_hi, preds, dim_date);
    const BucketValues control = RefComputeStrategyMetricFiltered(
        data, control_id, metric_id, date_lo, date_hi, preds, dim_date);
    out.push_back(DimensionBreakdownEntry{
        value, RefCompareStrategies(metric_id, treatment_id, treat,
                                    control_id, control)});
  }
  return out;
}

}  // namespace expbsi
