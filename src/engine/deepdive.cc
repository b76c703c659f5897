#include "engine/deepdive.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expbsi {

RoaringBitmap DimensionFilterMask(const SegmentBsiData& segment,
                                  const std::vector<DimensionPredicate>& preds,
                                  Date date) {
  CHECK(!preds.empty());
  RoaringBitmap mask;
  std::vector<RangeTerm> terms;
  for (size_t i = 0; i < preds.size(); ++i) {
    const uint32_t dimension_id = preds[i].dimension_id;
    const auto same_dimension = [dimension_id](const DimensionPredicate& p) {
      return p.dimension_id == dimension_id;
    };
    // Each dimension is filtered once, at its first predicate.
    if (std::any_of(preds.begin(), preds.begin() + i, same_dimension)) {
      continue;
    }
    const DimensionBsi* dim = segment.FindDimension(dimension_id, date);
    if (dim == nullptr) return RoaringBitmap();  // no data -> nothing passes
    terms.clear();
    for (size_t j = i; j < preds.size(); ++j) {
      if (same_dimension(preds[j])) {
        terms.push_back(RangeTerm{preds[j].op, preds[j].value});
      }
    }
    RoaringBitmap filter = dim->value.RangeAll(terms);
    if (i == 0) {
      mask = std::move(filter);
    } else {
      mask.AndInPlace(filter);  // mulBSI of binary filters = intersection
    }
    if (mask.IsEmpty()) break;
  }
  return mask;
}

BucketValues ComputeStrategyMetricBsiFiltered(
    const ExperimentBsiData& data, uint64_t strategy_id, uint64_t metric_id,
    Date date_lo, Date date_hi,
    const std::vector<DimensionPredicate>& preds, Date dim_date) {
  CHECK_LE(date_lo, date_hi);
  return FoldStrategyMetric(
      data, strategy_id, metric_id, date_lo, date_hi,
      [&preds, dim_date](int, const SegmentBsiData& sbd,
                         const ExposeBsi& expose) {
        return [&expose, dim_mask = DimensionFilterMask(sbd, preds, dim_date)](
                   Date date) {
          if (dim_mask.IsEmpty()) return RoaringBitmap();
          RoaringBitmap mask = expose.ExposedOnOrBefore(date);
          mask.AndInPlace(dim_mask);
          return mask;
        };
      });
}

std::vector<DimensionBreakdownEntry> ComputeDimensionBreakdown(
    const ExperimentBsiData& data, uint64_t control_id, uint64_t treatment_id,
    uint64_t metric_id, Date date_lo, Date date_hi, uint32_t dimension_id,
    const std::vector<uint64_t>& dim_values, Date dim_date) {
  obs::ScopedSpan span("dimension_breakdown");
  span.AddAttr("dimension_id", dimension_id);
  span.AddAttr("values", dim_values.size());
  static obs::Counter& runs = obs::GetCounter("engine.deepdive_breakdowns");
  runs.Add();
  std::vector<DimensionBreakdownEntry> out;
  out.reserve(dim_values.size());
  for (uint64_t value : dim_values) {
    const std::vector<DimensionPredicate> preds = {
        {dimension_id, RangeOp::kEq, value}};
    const BucketValues treat = ComputeStrategyMetricBsiFiltered(
        data, treatment_id, metric_id, date_lo, date_hi, preds, dim_date);
    const BucketValues control = ComputeStrategyMetricBsiFiltered(
        data, control_id, metric_id, date_lo, date_hi, preds, dim_date);
    out.push_back(DimensionBreakdownEntry{
        value, CompareStrategies(metric_id, treatment_id, treat, control_id,
                                 control)});
  }
  return out;
}

std::vector<ScorecardEntry> ComputeDailyBreakdown(
    const ExperimentBsiData& data, uint64_t control_id, uint64_t treatment_id,
    uint64_t metric_id, Date date_lo, Date date_hi) {
  obs::ScopedSpan span("daily_breakdown");
  span.AddAttr("days", static_cast<uint64_t>(date_hi - date_lo + 1));
  static obs::Counter& runs = obs::GetCounter("engine.deepdive_breakdowns");
  runs.Add();
  std::vector<ScorecardEntry> out;
  out.reserve(date_hi - date_lo + 1);
  for (Date date = date_lo; date <= date_hi; ++date) {
    const BucketValues treat =
        ComputeStrategyMetricBsi(data, treatment_id, metric_id, date, date);
    const BucketValues control =
        ComputeStrategyMetricBsi(data, control_id, metric_id, date, date);
    out.push_back(
        CompareStrategies(metric_id, treatment_id, treat, control_id,
                          control));
  }
  return out;
}

}  // namespace expbsi
