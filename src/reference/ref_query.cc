#include "reference/ref_query.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/check.h"
#include "query/parser.h"

namespace expbsi {
namespace {

bool CompareHolds(uint64_t v, RangeOp op, uint64_t k) {
  switch (op) {
    case RangeOp::kEq:
      return v == k;
    case RangeOp::kNe:
      return v != k;
    case RangeOp::kLt:
      return v < k;
    case RangeOp::kLe:
      return v <= k;
    case RangeOp::kGt:
      return v > k;
    case RangeOp::kGe:
      return v >= k;
  }
  return false;
}

// Execution state of one (segment, scan-day) cell; the scalar mirror of the
// production executor's SegmentScan.
struct RefScan {
  bool has_source = false;
  std::map<UnitId, uint64_t> source;       // materialized source values
  std::set<UnitId> mask;                   // units passing all predicates
  const std::map<UnitId, int>* bucket = nullptr;
};

// Same validation rules (and messages) as the production executor.
Status Validate(const RefExperimentData& data, const Query& query) {
  for (const QueryPredicate& pred : query.predicates) {
    if (pred.kind == QueryPredicate::Kind::kOffset &&
        query.source != Query::Source::kExpose) {
      return Status::InvalidArgument(
          "offset predicates require an expose(...) source");
    }
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  if (query.group_by_bucket) {
    for (const QueryAggregate& agg : query.aggregates) {
      if (agg.func != QueryAggregate::Func::kSum &&
          agg.func != QueryAggregate::Func::kCount &&
          agg.func != QueryAggregate::Func::kAvg) {
        return Status::InvalidArgument(
            "GROUP BY BUCKET supports sum/count/avg only");
      }
    }
    if (!data.bucket_equals_segment) {
      int exposed_preds = 0;
      for (const QueryPredicate& pred : query.predicates) {
        exposed_preds +=
            pred.kind == QueryPredicate::Kind::kExposed ? 1 : 0;
      }
      if (exposed_preds != 1) {
        return Status::InvalidArgument(
            "GROUP BY BUCKET with bucket != segment requires exactly one "
            "exposed(...) predicate (the bucket ids live in that strategy's "
            "expose log)");
      }
    }
  }
  return Status::OK();
}

RefScan BuildScan(const RefSegment& seg, const Query& query, Date scan_date) {
  RefScan scan;
  if (query.source == Query::Source::kMetric) {
    const std::map<UnitId, uint64_t>* metric =
        seg.FindMetric(query.source_id, scan_date);
    if (metric == nullptr) return scan;
    scan.source = *metric;
  } else if (query.source == Query::Source::kDimension) {
    const std::map<UnitId, uint64_t>* dim = seg.FindDimension(
        static_cast<uint32_t>(query.source_id), scan_date);
    if (dim == nullptr) return scan;
    scan.source = *dim;
  } else {
    const RefExpose* expose = seg.FindExpose(query.source_id);
    if (expose == nullptr) return scan;
    for (const auto& [unit, first] : expose->first_expose) {
      scan.source[unit] = expose->OffsetOf(unit);
    }
  }
  scan.has_source = true;
  for (const auto& [unit, value] : scan.source) scan.mask.insert(unit);
  for (const QueryPredicate& pred : query.predicates) {
    if (scan.mask.empty()) break;
    switch (pred.kind) {
      case QueryPredicate::Kind::kValue:
      case QueryPredicate::Kind::kOffset: {
        for (auto it = scan.mask.begin(); it != scan.mask.end();) {
          if (CompareHolds(scan.source.at(*it), pred.op, pred.constant)) {
            ++it;
          } else {
            it = scan.mask.erase(it);
          }
        }
        break;
      }
      case QueryPredicate::Kind::kDimension: {
        const std::map<UnitId, uint64_t>* dim =
            seg.FindDimension(pred.dimension_id, pred.dim_date);
        if (dim == nullptr) {
          scan.mask.clear();
          break;
        }
        for (auto it = scan.mask.begin(); it != scan.mask.end();) {
          auto dim_it = dim->find(*it);
          if (dim_it != dim->end() &&
              CompareHolds(dim_it->second, pred.op, pred.constant)) {
            ++it;
          } else {
            it = scan.mask.erase(it);
          }
        }
        break;
      }
      case QueryPredicate::Kind::kExposed: {
        const RefExpose* expose = seg.FindExpose(pred.strategy_id);
        if (expose == nullptr) {
          scan.mask.clear();
          break;
        }
        const Date cutoff =
            pred.per_scan_day ? scan_date : pred.on_or_before;
        for (auto it = scan.mask.begin(); it != scan.mask.end();) {
          auto exp_it = expose->first_expose.find(*it);
          if (exp_it != expose->first_expose.end() &&
              exp_it->second <= cutoff) {
            ++it;
          } else {
            it = scan.mask.erase(it);
          }
        }
        if (scan.bucket == nullptr && !expose->bucket.empty()) {
          scan.bucket = &expose->bucket;
        }
        break;
      }
    }
  }
  return scan;
}

uint64_t MaskedSum(const RefScan& scan) {
  unsigned __int128 total = 0;
  for (UnitId unit : scan.mask) total += scan.source.at(unit);
  CHECK(total <= ~uint64_t{0});
  return static_cast<uint64_t>(total);
}

}  // namespace

Result<QueryResult> RefExecuteQuery(const RefExperimentData& data,
                                    const Query& query) {
  RETURN_IF_ERROR(Validate(data, query));

  std::vector<Date> days;
  if (query.source == Query::Source::kExpose) {
    days.push_back(0);
  } else {
    for (Date d = query.date; d <= query.date_to; ++d) days.push_back(d);
  }

  std::vector<std::vector<RefScan>> scans(data.num_segments);
  for (int seg = 0; seg < data.num_segments; ++seg) {
    scans[seg].reserve(days.size());
    for (Date d : days) {
      scans[seg].push_back(BuildScan(data.segments[seg], query, d));
    }
  }

  const bool needs_quantile = std::any_of(
      query.aggregates.begin(), query.aggregates.end(),
      [](const QueryAggregate& a) {
        return a.func == QueryAggregate::Func::kMedian ||
               a.func == QueryAggregate::Func::kQuantile;
      });

  double total_sum = 0.0;
  double total_count = 0.0;
  double total_uv = 0.0;
  uint64_t global_min = std::numeric_limits<uint64_t>::max();
  uint64_t global_max = 0;
  bool any_value = false;
  std::vector<uint64_t> quantile_values;
  for (int seg = 0; seg < data.num_segments; ++seg) {
    std::set<UnitId> distinct;
    for (const RefScan& scan : scans[seg]) {
      if (!scan.has_source || scan.mask.empty()) continue;
      total_sum += static_cast<double>(MaskedSum(scan));
      total_count += static_cast<double>(scan.mask.size());
      distinct.insert(scan.mask.begin(), scan.mask.end());
      for (UnitId unit : scan.mask) {
        const uint64_t value = scan.source.at(unit);
        any_value = true;
        global_min = std::min(global_min, value);
        global_max = std::max(global_max, value);
        if (needs_quantile) quantile_values.push_back(value);
      }
    }
    total_uv += static_cast<double>(distinct.size());
  }

  QueryResult result;
  for (const QueryAggregate& agg : query.aggregates) {
    result.columns.push_back(agg.label);
    double value = 0.0;
    switch (agg.func) {
      case QueryAggregate::Func::kSum:
        value = total_sum;
        break;
      case QueryAggregate::Func::kCount:
        value = total_count;
        break;
      case QueryAggregate::Func::kAvg:
        value = total_count > 0 ? total_sum / total_count : 0.0;
        break;
      case QueryAggregate::Func::kUv:
        value = total_uv;
        break;
      case QueryAggregate::Func::kMin:
        value = any_value ? static_cast<double>(global_min) : 0.0;
        break;
      case QueryAggregate::Func::kMax:
        value = any_value ? static_cast<double>(global_max) : 0.0;
        break;
      case QueryAggregate::Func::kMedian:
      case QueryAggregate::Func::kQuantile: {
        if (quantile_values.empty()) {
          value = 0.0;
          break;
        }
        const double q =
            agg.func == QueryAggregate::Func::kMedian ? 0.5 : agg.quantile_q;
        std::vector<uint64_t> sorted = quantile_values;
        std::sort(sorted.begin(), sorted.end());
        const uint64_t n = sorted.size();
        uint64_t rank = static_cast<uint64_t>(
            std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
        if (rank > n) rank = n;
        value = static_cast<double>(sorted[rank - 1]);
        break;
      }
    }
    result.row.push_back(value);
  }

  if (query.group_by_bucket) {
    const int buckets = data.effective_buckets();
    std::vector<double> sums(buckets, 0.0), counts(buckets, 0.0);
    for (int seg = 0; seg < data.num_segments; ++seg) {
      for (const RefScan& scan : scans[seg]) {
        if (!scan.has_source || scan.mask.empty()) continue;
        if (data.bucket_equals_segment) {
          sums[seg] += static_cast<double>(MaskedSum(scan));
          counts[seg] += static_cast<double>(scan.mask.size());
        } else {
          if (scan.bucket == nullptr) continue;
          // Units without a bucket id never appear in a bucket partition,
          // matching GroupSumByBucket / GroupCountByBucket.
          std::vector<uint64_t> s(buckets, 0), c(buckets, 0);
          for (UnitId unit : scan.mask) {
            auto it = scan.bucket->find(unit);
            if (it == scan.bucket->end()) continue;
            s[it->second] += scan.source.at(unit);
            ++c[it->second];
          }
          for (int b = 0; b < buckets; ++b) {
            sums[b] += static_cast<double>(s[b]);
            counts[b] += static_cast<double>(c[b]);
          }
        }
      }
    }
    result.per_bucket.assign(buckets, {});
    for (int b = 0; b < buckets; ++b) {
      for (const QueryAggregate& agg : query.aggregates) {
        switch (agg.func) {
          case QueryAggregate::Func::kSum:
            result.per_bucket[b].push_back(sums[b]);
            break;
          case QueryAggregate::Func::kCount:
            result.per_bucket[b].push_back(counts[b]);
            break;
          case QueryAggregate::Func::kAvg:
            result.per_bucket[b].push_back(
                counts[b] > 0 ? sums[b] / counts[b] : 0.0);
            break;
          default:
            break;  // validated unreachable
        }
      }
    }
  }
  return result;
}

Result<QueryResult> RefRunQuery(const RefExperimentData& data,
                                const std::string& text) {
  Result<Query> query = ParseQuery(text);
  if (!query.ok()) return query.status();
  return RefExecuteQuery(data, query.value());
}

}  // namespace expbsi
