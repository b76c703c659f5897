#include "query/executor.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "bsi/bsi_aggregate.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "roaring/union_accumulator.h"

namespace expbsi {
namespace {

RoaringBitmap ApplyRange(const Bsi& bsi, CompareOp op, uint64_t k) {
  switch (op) {
    case CompareOp::kEq:
      return bsi.RangeEq(k);
    case CompareOp::kNe:
      return bsi.RangeNe(k);
    case CompareOp::kLt:
      return bsi.RangeLt(k);
    case CompareOp::kLe:
      return bsi.RangeLe(k);
    case CompareOp::kGt:
      return bsi.RangeGt(k);
    case CompareOp::kGe:
      return bsi.RangeGe(k);
  }
  return RoaringBitmap();
}

// Bound-pair fusion: normalize >=/> predicates to an inclusive lower bound
// and <=/< ones to an inclusive upper bound. A (lower, upper) pair over the
// same BSI collapses into one RangeBetween call -- a single three-way
// partition pass -- instead of two full range scans plus an intersection.
// The non-normalizable extremes (> UINT64_MAX, < 0) keep the single-
// predicate path, which returns empty for them anyway.
bool AsLowerBound(const QueryPredicate& pred, uint64_t* lo) {
  if (pred.op == CompareOp::kGe) {
    *lo = pred.constant;
    return true;
  }
  if (pred.op == CompareOp::kGt && pred.constant != ~uint64_t{0}) {
    *lo = pred.constant + 1;
    return true;
  }
  return false;
}

bool AsUpperBound(const QueryPredicate& pred, uint64_t* hi) {
  if (pred.op == CompareOp::kLe) {
    *hi = pred.constant;
    return true;
  }
  if (pred.op == CompareOp::kLt && pred.constant != 0) {
    *hi = pred.constant - 1;
    return true;
  }
  return false;
}

// True when the two predicates scan the same BSI (fusable): value and
// offset predicates both scan the query source, dimension predicates scan
// the same dimension log only if id and date agree.
bool SameRangeTarget(const QueryPredicate& a, const QueryPredicate& b) {
  if (a.kind == QueryPredicate::Kind::kExposed ||
      b.kind == QueryPredicate::Kind::kExposed) {
    return false;
  }
  const bool a_source = a.kind != QueryPredicate::Kind::kDimension;
  const bool b_source = b.kind != QueryPredicate::Kind::kDimension;
  if (a_source != b_source) return false;
  if (a_source) return true;
  return a.dimension_id == b.dimension_id && a.dim_date == b.dim_date;
}

// partner[i] = j > i when predicates i and j fuse into one Between scan;
// consumed[j] marks the absorbed upper/lower half.
void PlanRangeFusion(const std::vector<QueryPredicate>& preds,
                     std::vector<int>* partner,
                     std::vector<char>* consumed) {
  partner->assign(preds.size(), -1);
  consumed->assign(preds.size(), 0);
  for (size_t i = 0; i < preds.size(); ++i) {
    if ((*consumed)[i] ||
        preds[i].kind == QueryPredicate::Kind::kExposed) {
      continue;
    }
    uint64_t bound;
    const bool is_lo = AsLowerBound(preds[i], &bound);
    const bool is_hi = !is_lo && AsUpperBound(preds[i], &bound);
    if (!is_lo && !is_hi) continue;
    for (size_t j = i + 1; j < preds.size(); ++j) {
      if ((*consumed)[j] || !SameRangeTarget(preds[i], preds[j])) continue;
      if ((is_lo && AsUpperBound(preds[j], &bound)) ||
          (is_hi && AsLowerBound(preds[j], &bound))) {
        (*partner)[i] = static_cast<int>(j);
        (*consumed)[j] = 1;
        break;
      }
    }
  }
}

// Applies predicate i (optionally fused with its partner) to `bsi`. An
// inverted fused interval (lo > hi) is empty by definition.
RoaringBitmap ApplyPredicate(const Bsi& bsi, const QueryPredicate& pred,
                             const QueryPredicate* fused_with) {
  if (fused_with != nullptr) {
    static obs::Counter& fusions = obs::GetCounter("query.range_fusions");
    fusions.Add(1);
    uint64_t lo = 0, hi = 0;
    if (!AsLowerBound(pred, &lo)) AsLowerBound(*fused_with, &lo);
    if (!AsUpperBound(pred, &hi)) AsUpperBound(*fused_with, &hi);
    if (lo > hi) return RoaringBitmap();
    return bsi.RangeBetween(lo, hi);
  }
  return ApplyRange(bsi, pred.op, pred.constant);
}

bool HasAggregate(const Query& query, QueryAggregate::Func func) {
  return std::any_of(
      query.aggregates.begin(), query.aggregates.end(),
      [func](const QueryAggregate& a) { return a.func == func; });
}

// Execution state of one (segment, scan-day) cell. Expose sources have a
// single cell per segment (the expose log is not dated).
struct SegmentScan {
  const Bsi* source = nullptr;   // value BSI (metric) or offset BSI (expose)
  RoaringBitmap mask;            // positions passing all predicates
  const Bsi* bucket = nullptr;   // bucket BSI when grouping by bucket
};

Status Validate(const ExperimentBsiData& data, const Query& query) {
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

// Builds the source pointer and combined predicate mask for one segment on
// one scan day. Returns an empty-source scan when the segment has no data.
SegmentScan BuildScan(const SegmentBsiData& seg, const Query& query,
                      Date scan_date) {
  SegmentScan scan;
  if (query.source == Query::Source::kMetric) {
    const MetricBsi* metric = seg.FindMetric(query.source_id, scan_date);
    if (metric == nullptr) return scan;
    scan.source = &metric->value;
  } else if (query.source == Query::Source::kDimension) {
    const DimensionBsi* dim = seg.FindDimension(
        static_cast<uint32_t>(query.source_id), scan_date);
    if (dim == nullptr) return scan;
    scan.source = &dim->value;
  } else {
    const ExposeBsi* source_expose = seg.FindExpose(query.source_id);
    if (source_expose == nullptr) return scan;
    scan.source = &source_expose->offset;
  }
  scan.mask = scan.source->existence();
  const std::vector<QueryPredicate>& preds = query.predicates;
  std::vector<int> partner;
  std::vector<char> consumed;
  PlanRangeFusion(preds, &partner, &consumed);
  for (size_t i = 0; i < preds.size(); ++i) {
    if (scan.mask.IsEmpty()) break;
    if (consumed[i]) continue;  // absorbed into an earlier Between scan
    const QueryPredicate& pred = preds[i];
    const QueryPredicate* fused_with =
        partner[i] >= 0 ? &preds[partner[i]] : nullptr;
    switch (pred.kind) {
      case QueryPredicate::Kind::kValue:
        scan.mask.AndInPlace(ApplyPredicate(*scan.source, pred, fused_with));
        break;
      case QueryPredicate::Kind::kOffset:
        // Validated: only on expose sources, where source == offset.
        scan.mask.AndInPlace(ApplyPredicate(*scan.source, pred, fused_with));
        break;
      case QueryPredicate::Kind::kDimension: {
        const DimensionBsi* dim =
            seg.FindDimension(pred.dimension_id, pred.dim_date);
        if (dim == nullptr) {
          scan.mask.Clear();
          break;
        }
        scan.mask.AndInPlace(ApplyPredicate(dim->value, pred, fused_with));
        break;
      }
      case QueryPredicate::Kind::kExposed: {
        const ExposeBsi* expose = seg.FindExpose(pred.strategy_id);
        if (expose == nullptr) {
          scan.mask.Clear();
          break;
        }
        const Date cutoff =
            pred.per_scan_day ? scan_date : pred.on_or_before;
        scan.mask.AndInPlace(expose->ExposedOnOrBefore(cutoff));
        if (scan.bucket == nullptr && !expose->bucket.IsEmpty()) {
          scan.bucket = &expose->bucket;
        }
        break;
      }
    }
  }
  return scan;
}

}  // namespace

std::string QueryResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out += columns[i];
    out += i + 1 < columns.size() ? " | " : "\n";
  }
  char buf[64];
  auto append_row = [&out, &buf](const std::vector<double>& r) {
    for (size_t i = 0; i < r.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.6g", r[i]);
      out += buf;
      out += i + 1 < r.size() ? " | " : "\n";
    }
  };
  append_row(row);
  for (const std::vector<double>& bucket_row : per_bucket) {
    append_row(bucket_row);
  }
  return out;
}

Result<QueryResult> ExecuteQuery(const ExperimentBsiData& data,
                                 const Query& query, obs::QueryTrace* trace) {
  // Install the trace unless a caller higher up (RunQuery, the cluster)
  // already did; ScopedTrace(nullptr) is a no-op.
  obs::ScopedTrace install(obs::CurrentTrace() == trace ? nullptr : trace);
  static obs::Counter& executed = obs::GetCounter("query.executed");
  executed.Add();
  {
    obs::ScopedSpan span("validate");
    Status st = Validate(data, query);
    if (!st.ok()) {
      static obs::Counter& invalid = obs::GetCounter("query.validation_errors");
      invalid.Add();
      return st;
    }
  }

  // Scan days: the dated source's window, or one undated cell for expose.
  std::vector<Date> days;
  if (query.source == Query::Source::kExpose) {
    days.push_back(0);
  } else {
    for (Date d = query.date; d <= query.date_to; ++d) days.push_back(d);
  }

  // One scan per (segment, day); aggregates fold the partials.
  std::vector<std::vector<SegmentScan>> scans(data.num_segments);
  {
    obs::ScopedSpan span("build_scans");
    span.AddAttr("segments", static_cast<uint64_t>(data.num_segments));
    span.AddAttr("days", static_cast<uint64_t>(days.size()));
    for (int seg = 0; seg < data.num_segments; ++seg) {
      scans[seg].reserve(days.size());
      for (Date d : days) {
        scans[seg].push_back(BuildScan(data.segments[seg], query, d));
      }
    }
  }
  static obs::Counter& scanned = obs::GetCounter("query.segment_scans");
  scanned.Add(static_cast<uint64_t>(data.num_segments) * days.size());

  // Min/max, uv and quantiles each add per-scan work beyond the masked sum
  // and count, done only when an aggregate asks for it.
  const bool needs_extrema = HasAggregate(query, QueryAggregate::Func::kMin) ||
                             HasAggregate(query, QueryAggregate::Func::kMax);
  const bool needs_uv = HasAggregate(query, QueryAggregate::Func::kUv);
  const bool needs_quantile =
      HasAggregate(query, QueryAggregate::Func::kMedian) ||
      HasAggregate(query, QueryAggregate::Func::kQuantile);
  std::vector<MaskedBsi> quantile_inputs;

  double total_sum = 0.0;
  double total_count = 0.0;
  double total_uv = 0.0;
  uint64_t global_min = std::numeric_limits<uint64_t>::max();
  uint64_t global_max = 0;
  bool any_value = false;
  {
    obs::ScopedSpan agg_span("aggregate");
    for (int seg = 0; seg < data.num_segments; ++seg) {
      // uv: distinct positions with a value on ANY scan day (distinctPos),
      // union-accumulated lazily across the per-day masks (which stay alive in
      // `scans` for the whole loop).
      UnionAccumulator distinct_acc;
      for (const SegmentScan& scan : scans[seg]) {
        if (scan.source == nullptr || scan.mask.IsEmpty()) continue;
        total_sum += static_cast<double>(scan.source->SumUnderMask(scan.mask));
        total_count += static_cast<double>(scan.mask.Cardinality());
        if (needs_uv) distinct_acc.Add(scan.mask);
        if (needs_extrema) {
          const Bsi filtered = Bsi::MultiplyByBinary(*scan.source, scan.mask);
          if (!filtered.IsEmpty()) {
            any_value = true;
            global_min = std::min(global_min, filtered.MinValue());
            global_max = std::max(global_max, filtered.MaxValue());
          }
        }
        if (needs_quantile) {
          quantile_inputs.push_back(MaskedBsi{scan.source, &scan.mask});
        }
      }
      // Positions are segment-local, so distinct counts add across segments.
      if (needs_uv) {
        total_uv += static_cast<double>(distinct_acc.Finish().Cardinality());
      }
    }
    agg_span.AddAttr("quantile_inputs",
                     static_cast<uint64_t>(quantile_inputs.size()));
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
        const double q =
            agg.func == QueryAggregate::Func::kMedian ? 0.5 : agg.quantile_q;
        value = quantile_inputs.empty()
                    ? 0.0
                    : static_cast<double>(
                          QuantileOverInputs(quantile_inputs, q));
        break;
      }
    }
    result.row.push_back(value);
  }

  if (query.group_by_bucket) {
    obs::ScopedSpan span("group_by_bucket");
    const int buckets = data.effective_buckets();
    span.AddAttr("buckets", static_cast<uint64_t>(buckets));
    BucketValues folded = BucketValues::Zeros(buckets);
    // Validated: in bucketed mode scan.bucket comes from the single
    // exposed() predicate; a scan without one has an empty mask.
    const Bsi no_bucket;
    for (int seg = 0; seg < data.num_segments; ++seg) {
      for (const SegmentScan& scan : scans[seg]) {
        if (scan.source == nullptr) continue;
        FoldIntoBuckets(data, seg,
                        scan.bucket != nullptr ? *scan.bucket : no_bucket,
                        scan.mask, scan.source, &folded.sums,
                        &folded.counts);
      }
    }
    result.per_bucket.assign(buckets, {});
    for (int b = 0; b < buckets; ++b) {
      for (const QueryAggregate& agg : query.aggregates) {
        switch (agg.func) {
          case QueryAggregate::Func::kSum:
            result.per_bucket[b].push_back(folded.sums[b]);
            break;
          case QueryAggregate::Func::kCount:
            result.per_bucket[b].push_back(folded.counts[b]);
            break;
          case QueryAggregate::Func::kAvg:
            result.per_bucket[b].push_back(
                folded.counts[b] > 0 ? folded.sums[b] / folded.counts[b]
                                     : 0.0);
            break;
          default:
            break;  // validated unreachable
        }
      }
    }
  }
  return result;
}

Result<QueryResult> RunQuery(const ExperimentBsiData& data,
                             const std::string& text,
                             obs::QueryTrace* trace) {
  obs::ScopedTrace install(obs::CurrentTrace() == trace ? nullptr : trace);
  Result<Query> query = [&text] {
    obs::ScopedSpan span("parse");
    span.AddAttr("text_bytes", text.size());
    return ParseQuery(text);
  }();
  if (!query.ok()) {
    static obs::Counter& parse_errors = obs::GetCounter("query.parse_errors");
    parse_errors.Add();
    return query.status();
  }
  return ExecuteQuery(data, query.value(), trace);
}

}  // namespace expbsi
