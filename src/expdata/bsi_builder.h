#ifndef EXPBSI_EXPDATA_BSI_BUILDER_H_
#define EXPBSI_EXPDATA_BSI_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "bsi/bsi.h"
#include "expdata/position_encoder.h"
#include "expdata/schema.h"

namespace expbsi {

// BSI representations of the three experiment-data categories (Table 2).
// Each instance covers ONE segment; positions refer to that segment's
// PositionEncoder.

// Expose log of one strategy in one segment: a constant min-expose-date plus
// two BSIs (§3.4.2). `offset` stores first_expose_date - min_expose_date + 1
// (starting at 1 because zero means absent); `bucket` stores bucket_id + 1
// for the same reason, and is left empty when bucketing coincides with
// segmentation (the common case, §3.3).
struct ExposeBsi {
  uint64_t strategy_id = 0;
  Date min_expose_date = 0;
  Bsi offset;
  Bsi bucket;

  // Units first exposed on or before `date` (the scorecard's
  // "expose-date <= t2.date" filter rewritten as a range search on offset).
  RoaringBitmap ExposedOnOrBefore(Date date) const;

  // ExposedOnOrBefore(d) for every day d in [lo, hi] (lo <= hi), at index
  // d - lo, from one pass over the offset BSI instead of one per day.
  std::vector<RoaringBitmap> ExposedOnOrBeforeEachDay(Date lo, Date hi) const;

  // Units first exposed in [from, to] relative to min_expose_date as
  // absolute dates (the paper's "first exposed between 2nd and 5th day").
  RoaringBitmap ExposedBetween(Date from, Date to) const;

  // All exposed units.
  const RoaringBitmap& Exposed() const { return offset.existence(); }

  size_t SizeInBytes() const;
  void Serialize(std::string* out) const;
  static Result<ExposeBsi> Deserialize(std::string_view bytes);
};

// Metric log of one (metric, date) in one segment: a single value BSI.
struct MetricBsi {
  Date date = 0;
  uint64_t metric_id = 0;
  Bsi value;

  size_t SizeInBytes() const { return value.SizeInBytes(); }
  void Serialize(std::string* out) const;
  static Result<MetricBsi> Deserialize(std::string_view bytes);
};

// Dimension log of one (dimension, date) in one segment.
struct DimensionBsi {
  Date date = 0;
  uint32_t dimension_id = 0;
  Bsi value;

  size_t SizeInBytes() const { return value.SizeInBytes(); }
  void Serialize(std::string* out) const;
  static Result<DimensionBsi> Deserialize(std::string_view bytes);
};

// Builders: convert normal-format rows (already restricted to one segment
// and one strategy / metric / dimension / date) into the BSI form, encoding
// analysis-unit-ids through `encoder`.
//
// `num_buckets` <= 0 means bucketing == segmentation; no bucket BSI is built.
ExposeBsi BuildExposeBsi(const std::vector<ExposeRow>& rows,
                         PositionEncoder& encoder, int num_buckets);

MetricBsi BuildMetricBsi(const std::vector<MetricRow>& rows,
                         PositionEncoder& encoder);

DimensionBsi BuildDimensionBsi(const std::vector<DimensionRow>& rows,
                               PositionEncoder& encoder);

}  // namespace expbsi

#endif  // EXPBSI_EXPDATA_BSI_BUILDER_H_
