#ifndef EXPBSI_ENGINE_DEEPDIVE_H_
#define EXPBSI_ENGINE_DEEPDIVE_H_

#include <cstdint>
#include <vector>

#include "bsi/bsi.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"

namespace expbsi {

// Deep-dive analysis (§4.4): ad-hoc investigation of metric movements by
// analysis-unit attributes (dimension filters -- heterogeneous effects) or
// by time period (daily breakdown -- novelty effects). The computation is
// the scorecard logic with one extra step: filtering the expose log by
// dimension predicates (the paper's "mulBSI(filter)" pipeline, e.g.
// client-type = 1 AND client-version > 134).

// One predicate on a dimension log: "dimension <op> value".
struct DimensionPredicate {
  uint32_t dimension_id = 0;
  RangeOp op = RangeOp::kEq;
  uint64_t value = 0;
};

// Units of one segment satisfying ALL predicates on `date` (binary filters
// combined with mulBSI, i.e. intersection). Units missing a dimension value
// do not satisfy predicates on it. All predicates on one dimension are one
// Bsi::RangeAll call, the same evaluator as the EQL executor's.
RoaringBitmap DimensionFilterMask(const SegmentBsiData& segment,
                                  const std::vector<DimensionPredicate>& preds,
                                  Date date);

// Scorecard bucket values restricted to units passing the dimension filter
// (evaluated on `dim_date`). Mirrors ComputeStrategyMetricBsi otherwise.
BucketValues ComputeStrategyMetricBsiFiltered(
    const ExperimentBsiData& data, uint64_t strategy_id, uint64_t metric_id,
    Date date_lo, Date date_hi,
    const std::vector<DimensionPredicate>& preds, Date dim_date);

// Heterogeneous-effect breakdown: one scorecard entry per dimension value in
// `dim_values` (e.g. client-type in {1,2,3}), each restricted to units with
// that value on dim_date.
struct DimensionBreakdownEntry {
  uint64_t dimension_value = 0;
  ScorecardEntry entry;
};
std::vector<DimensionBreakdownEntry> ComputeDimensionBreakdown(
    const ExperimentBsiData& data, uint64_t control_id, uint64_t treatment_id,
    uint64_t metric_id, Date date_lo, Date date_hi, uint32_t dimension_id,
    const std::vector<uint64_t>& dim_values, Date dim_date);

// Novelty-effect breakdown: one scorecard entry per day in
// [date_lo, date_hi], each computed over that single day.
std::vector<ScorecardEntry> ComputeDailyBreakdown(
    const ExperimentBsiData& data, uint64_t control_id, uint64_t treatment_id,
    uint64_t metric_id, Date date_lo, Date date_hi);

}  // namespace expbsi

#endif  // EXPBSI_ENGINE_DEEPDIVE_H_
