#include "engine/normal_engine.h"

#include <unordered_map>

#include "common/check.h"
#include "expdata/segmenter.h"

namespace expbsi {
namespace {

struct ExposeInfo {
  Date first_expose_date;
  int bucket;
};

int BucketForRow(const Dataset& dataset, int segment, const ExposeRow& row) {
  return dataset.config.bucket_equals_segment
             ? segment
             : BucketOf(row.randomization_unit_id,
                        dataset.config.num_buckets);
}

}  // namespace

BucketValues ComputeStrategyMetricNormal(const Dataset& dataset,
                                         uint64_t strategy_id,
                                         uint64_t metric_id, Date date_lo,
                                         Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  BucketValues out =
      BucketValues::Zeros(dataset.config.effective_buckets());

  for (int seg = 0; seg < dataset.config.num_segments; ++seg) {
    const SegmentData& rows = dataset.segments[seg];
    // Build side: exposed units of this strategy.
    std::unordered_map<UnitId, ExposeInfo> exposed;
    for (const ExposeRow& row : rows.expose) {
      if (row.strategy_id != strategy_id) continue;
      exposed.emplace(row.analysis_unit_id,
                      ExposeInfo{row.first_expose_date,
                                 BucketForRow(dataset, seg, row)});
    }
    if (exposed.empty()) continue;
    // Denominator: units exposed by date_hi.
    for (const auto& [unit, info] : exposed) {
      if (info.first_expose_date <= date_hi) {
        out.counts[info.bucket] += 1.0;
      }
    }
    // Probe side: metric rows in range, filtered by the expose condition.
    for (const MetricRow& row : rows.metrics) {
      if (row.metric_id != metric_id || row.date < date_lo ||
          row.date > date_hi) {
        continue;
      }
      auto it = exposed.find(row.analysis_unit_id);
      if (it == exposed.end()) continue;
      if (it->second.first_expose_date > row.date) continue;
      out.sums[it->second.bucket] += static_cast<double>(row.value);
    }
  }
  return out;
}

NormalDataIndex NormalDataIndex::Build(const Dataset& dataset) {
  NormalDataIndex index;
  for (int seg = 0; seg < dataset.config.num_segments; ++seg) {
    for (const ExposeRow& row : dataset.segments[seg].expose) {
      index.expose_[{row.strategy_id, seg}].push_back(row);
    }
    for (const MetricRow& row : dataset.segments[seg].metrics) {
      index.metrics_[{row.metric_id, seg}].push_back(row);
    }
  }
  return index;
}

const std::vector<ExposeRow>* NormalDataIndex::ExposeRows(
    uint64_t strategy_id, int segment) const {
  auto it = expose_.find({strategy_id, segment});
  return it == expose_.end() ? nullptr : &it->second;
}

const std::vector<MetricRow>* NormalDataIndex::MetricRows(
    uint64_t metric_id, int segment) const {
  auto it = metrics_.find({metric_id, segment});
  return it == metrics_.end() ? nullptr : &it->second;
}

BucketValues ComputeStrategyMetricNormalIndexed(const Dataset& dataset,
                                                const NormalDataIndex& index,
                                                uint64_t strategy_id,
                                                uint64_t metric_id,
                                                Date date_lo, Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  BucketValues out =
      BucketValues::Zeros(dataset.config.effective_buckets());
  for (int seg = 0; seg < dataset.config.num_segments; ++seg) {
    const std::vector<ExposeRow>* expose_rows =
        index.ExposeRows(strategy_id, seg);
    if (expose_rows == nullptr) continue;
    std::unordered_map<UnitId, ExposeInfo> exposed;
    exposed.reserve(expose_rows->size());
    for (const ExposeRow& row : *expose_rows) {
      exposed.emplace(row.analysis_unit_id,
                      ExposeInfo{row.first_expose_date,
                                 BucketForRow(dataset, seg, row)});
    }
    for (const auto& [unit, info] : exposed) {
      (void)unit;
      if (info.first_expose_date <= date_hi) {
        out.counts[info.bucket] += 1.0;
      }
    }
    const std::vector<MetricRow>* metric_rows =
        index.MetricRows(metric_id, seg);
    if (metric_rows == nullptr) continue;
    for (const MetricRow& row : *metric_rows) {
      if (row.date < date_lo || row.date > date_hi) continue;
      auto it = exposed.find(row.analysis_unit_id);
      if (it == exposed.end()) continue;
      if (it->second.first_expose_date > row.date) continue;
      out.sums[it->second.bucket] += static_cast<double>(row.value);
    }
  }
  return out;
}

ExposeBitmapCache ExposeBitmapCache::Build(const Dataset& dataset,
                                           uint64_t strategy_id, Date date_lo,
                                           Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  ExposeBitmapCache cache;
  cache.date_lo_ = date_lo;
  cache.date_hi_ = date_hi;
  cache.num_days_ = static_cast<int>(date_hi - date_lo) + 1;
  cache.bitmaps_.resize(
      static_cast<size_t>(dataset.config.num_segments) * cache.num_days_);
  for (int seg = 0; seg < dataset.config.num_segments; ++seg) {
    for (const ExposeRow& row : dataset.segments[seg].expose) {
      if (row.strategy_id != strategy_id) continue;
      if (row.first_expose_date > date_hi) continue;
      // The unit is exposed from max(first_expose_date, date_lo) onward.
      const Date from =
          row.first_expose_date < date_lo ? date_lo : row.first_expose_date;
      for (Date d = from; d <= date_hi; ++d) {
        cache.bitmaps_[static_cast<size_t>(seg) * cache.num_days_ +
                       (d - date_lo)]
            .Add(static_cast<uint32_t>(row.analysis_unit_id));
      }
    }
  }
  return cache;
}

const RoaringBitmap& ExposeBitmapCache::For(int segment, Date date) const {
  CHECK_GE(date, date_lo_);
  CHECK_LE(date, date_hi_);
  return bitmaps_[static_cast<size_t>(segment) * num_days_ +
                  (date - date_lo_)];
}

size_t ExposeBitmapCache::SizeInBytes() const {
  size_t total = 0;
  for (const RoaringBitmap& bm : bitmaps_) total += bm.SizeInBytes();
  return total;
}

BucketValues ComputeStrategyMetricExposeBitmap(const Dataset& dataset,
                                               const ExposeBitmapCache& cache,
                                               uint64_t metric_id,
                                               Date date_lo, Date date_hi) {
  CHECK(dataset.config.bucket_equals_segment);
  CHECK_GE(date_lo, cache.date_lo());
  CHECK_LE(date_hi, cache.date_hi());
  BucketValues out = BucketValues::Zeros(dataset.config.num_segments);
  for (int seg = 0; seg < dataset.config.num_segments; ++seg) {
    // Scan the metric rows, filtering through the per-day expose bitmap.
    for (const MetricRow& row : dataset.segments[seg].metrics) {
      if (row.metric_id != metric_id || row.date < date_lo ||
          row.date > date_hi) {
        continue;
      }
      if (cache.For(seg, row.date)
              .Contains(static_cast<uint32_t>(row.analysis_unit_id))) {
        out.sums[seg] += static_cast<double>(row.value);
      }
    }
    out.counts[seg] +=
        static_cast<double>(cache.For(seg, date_hi).Cardinality());
  }
  return out;
}

}  // namespace expbsi
