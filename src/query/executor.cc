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

// One step of a scan's predicate mask. A range step holds every value,
// offset or dim(...) predicate on one target BSI -- the query source, or one
// (dimension_id, dim_date) log -- sits at the target's first predicate, and
// is evaluated by one Bsi::RangeAll call. An exposed(...) predicate is a
// step without terms.
struct ScanStep {
  const QueryPredicate* pred = nullptr;  // the target's first predicate
  std::vector<RangeTerm> terms;          // empty for kExposed
};

// Groups the predicates into steps once per query; every (segment, day)
// scan replays the same plan.
std::vector<ScanStep> PlanScanSteps(const Query& query) {
  std::vector<ScanStep> steps;
  for (const QueryPredicate& pred : query.predicates) {
    const bool on_dim = pred.kind == QueryPredicate::Kind::kDimension;
    if (pred.kind != QueryPredicate::Kind::kExposed) {
      // Value and offset predicates both scan the source.
      auto same_target = std::find_if(
          steps.begin(), steps.end(), [&](const ScanStep& step) {
            const QueryPredicate& first = *step.pred;
            if (step.terms.empty()) return false;  // an exposed(...) step
            if (!on_dim) return first.kind != QueryPredicate::Kind::kDimension;
            return first.kind == QueryPredicate::Kind::kDimension &&
                   first.dimension_id == pred.dimension_id &&
                   first.dim_date == pred.dim_date;
          });
      if (same_target != steps.end()) {
        same_target->terms.push_back(RangeTerm{pred.op, pred.constant});
        continue;
      }
    }
    ScanStep& step = steps.emplace_back();
    step.pred = &pred;
    if (pred.kind != QueryPredicate::Kind::kExposed) {
      step.terms.push_back(RangeTerm{pred.op, pred.constant});
    }
  }
  return steps;
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
                      const std::vector<ScanStep>& steps, Date scan_date) {
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
  for (const ScanStep& step : steps) {
    if (scan.mask.IsEmpty()) break;
    const QueryPredicate& pred = *step.pred;
    switch (pred.kind) {
      case QueryPredicate::Kind::kValue:
      case QueryPredicate::Kind::kOffset:
        // Validated: offset predicates only on expose sources, where
        // source == offset.
        scan.mask.AndInPlace(scan.source->RangeAll(step.terms));
        break;
      case QueryPredicate::Kind::kDimension: {
        const DimensionBsi* dim =
            seg.FindDimension(pred.dimension_id, pred.dim_date);
        if (dim == nullptr) {
          scan.mask.Clear();
          break;
        }
        scan.mask.AndInPlace(dim->value.RangeAll(step.terms));
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
  const std::vector<ScanStep> steps = PlanScanSteps(query);
  std::vector<std::vector<SegmentScan>> scans(data.num_segments);
  {
    obs::ScopedSpan span("build_scans");
    span.AddAttr("segments", static_cast<uint64_t>(data.num_segments));
    span.AddAttr("days", static_cast<uint64_t>(days.size()));
    for (int seg = 0; seg < data.num_segments; ++seg) {
      scans[seg].reserve(days.size());
      for (Date d : days) {
        scans[seg].push_back(BuildScan(data.segments[seg], query, steps, d));
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
