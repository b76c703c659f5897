#ifndef EXPBSI_EXPDATA_SCHEMA_H_
#define EXPBSI_EXPDATA_SCHEMA_H_

#include <cstdint>
#include <utility>

namespace expbsi {

// Identifier of an analysis / randomization unit (user-id, session-id,
// page-view-id, ... -- the platform is unit-agnostic).
using UnitId = uint64_t;

// Calendar date as a day index (0 = epoch of the dataset). The paper stores
// dates as UInt32; a day index keeps arithmetic (offsets, ranges) trivial.
using Date = uint32_t;

// (strategy_id, metric_id): the key of one scorecard cell.
using StrategyMetricPair = std::pair<uint64_t, uint64_t>;

// Normal-format ("row") schemas, Table 1 of the paper. These are what the
// baseline engines scan and what the BSI builders consume.

// One exposed analysis unit of one experiment strategy.
struct ExposeRow {
  uint64_t strategy_id = 0;
  UnitId analysis_unit_id = 0;
  UnitId randomization_unit_id = 0;
  Date first_expose_date = 0;
};

// One analysis unit's metric value on one date. Zero values are not logged
// (zero means "no activity", matching the BSI zero-is-absent convention).
struct MetricRow {
  Date date = 0;
  uint64_t metric_id = 0;
  UnitId analysis_unit_id = 0;
  uint64_t value = 0;
};

// One analysis unit's attribute value on one date. Dimension names are
// interned as 32-bit ids by the dataset owner.
struct DimensionRow {
  Date date = 0;
  uint32_t dimension_id = 0;
  UnitId analysis_unit_id = 0;
  uint64_t value = 0;
};

}  // namespace expbsi

#endif  // EXPBSI_EXPDATA_SCHEMA_H_
