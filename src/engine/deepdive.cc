#include "engine/deepdive.h"

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace expbsi {

namespace {

// Inclusive-bound views of a dimension predicate (the same bound-pair
// fusion as query/executor.cc): >=/> normalizes to a lower bound, <=/< to
// an upper bound, so a pair over one dimension becomes one RangeBetween
// three-way partition scan instead of two range scans + an intersection.
bool DimLowerBound(const DimensionPredicate& pred, uint64_t* lo) {
  if (pred.op == DimensionPredicate::Op::kGe) {
    *lo = pred.value;
    return true;
  }
  if (pred.op == DimensionPredicate::Op::kGt && pred.value != ~uint64_t{0}) {
    *lo = pred.value + 1;
    return true;
  }
  return false;
}

bool DimUpperBound(const DimensionPredicate& pred, uint64_t* hi) {
  if (pred.op == DimensionPredicate::Op::kLe) {
    *hi = pred.value;
    return true;
  }
  if (pred.op == DimensionPredicate::Op::kLt && pred.value != 0) {
    *hi = pred.value - 1;
    return true;
  }
  return false;
}

}  // namespace

RoaringBitmap DimensionFilterMask(const SegmentBsiData& segment,
                                  const std::vector<DimensionPredicate>& preds,
                                  Date date) {
  CHECK(!preds.empty());
  // Pair each one-sided bound with a later complementary bound on the same
  // dimension; the pair evaluates once, as a Between.
  std::vector<int> partner(preds.size(), -1);
  std::vector<char> consumed(preds.size(), 0);
  for (size_t i = 0; i < preds.size(); ++i) {
    if (consumed[i]) continue;
    uint64_t bound;
    const bool is_lo = DimLowerBound(preds[i], &bound);
    const bool is_hi = !is_lo && DimUpperBound(preds[i], &bound);
    if (!is_lo && !is_hi) continue;
    for (size_t j = i + 1; j < preds.size(); ++j) {
      if (consumed[j] || preds[j].dimension_id != preds[i].dimension_id) {
        continue;
      }
      if ((is_lo && DimUpperBound(preds[j], &bound)) ||
          (is_hi && DimLowerBound(preds[j], &bound))) {
        partner[i] = static_cast<int>(j);
        consumed[j] = 1;
        break;
      }
    }
  }

  RoaringBitmap mask;
  bool first = true;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (consumed[i]) continue;
    const DimensionPredicate& pred = preds[i];
    const DimensionBsi* dim =
        segment.FindDimension(pred.dimension_id, date);
    if (dim == nullptr) return RoaringBitmap();  // no data -> nothing passes
    RoaringBitmap filter;
    if (partner[i] >= 0) {
      uint64_t lo = 0, hi = 0;
      if (!DimLowerBound(pred, &lo)) DimLowerBound(preds[partner[i]], &lo);
      if (!DimUpperBound(pred, &hi)) DimUpperBound(preds[partner[i]], &hi);
      // An inverted interval is empty by definition (filter stays empty).
      if (lo <= hi) filter = dim->value.RangeBetween(lo, hi);
    } else {
      switch (pred.op) {
        case DimensionPredicate::Op::kEq:
          filter = dim->value.RangeEq(pred.value);
          break;
        case DimensionPredicate::Op::kNe:
          filter = dim->value.RangeNe(pred.value);
          break;
        case DimensionPredicate::Op::kLt:
          filter = dim->value.RangeLt(pred.value);
          break;
        case DimensionPredicate::Op::kLe:
          filter = dim->value.RangeLe(pred.value);
          break;
        case DimensionPredicate::Op::kGt:
          filter = dim->value.RangeGt(pred.value);
          break;
        case DimensionPredicate::Op::kGe:
          filter = dim->value.RangeGe(pred.value);
          break;
      }
    }
    if (first) {
      mask = std::move(filter);
      first = false;
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
        {dimension_id, DimensionPredicate::Op::kEq, value}};
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
