#ifndef EXPBSI_QUERY_AST_H_
#define EXPBSI_QUERY_AST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bsi/bsi.h"
#include "expdata/schema.h"

namespace expbsi {

// Abstract syntax of the experiment query language (EQL). The language
// covers the paper's fixed single-scan query paradigms (§4.1-§4.4): metric /
// expose sources, expose and dimension filters as BSI range searches, and
// the in-BSI aggregates, optionally grouped by statistical bucket.
//
// Grammar (keywords case-insensitive):
//   query  := SELECT aggs FROM source [WHERE pred (AND pred)*]
//             [GROUP BY BUCKET]
//   aggs   := agg (',' agg)*
//   agg    := (sum|count|avg|min|max|median|uv) '(' (value|'*') ')'
//           | quantile '(' value ',' number ')'
//   source := metric '(' metric_id ',' date '=' number [',' to '=' number] ')'
//           | dim    '(' dimension_id ',' date '=' number [',' to '=' number] ')'
//           | expose '(' strategy_id ')'
//   pred   := exposed '(' strategy_id [',' on_or_before '=' number] ')'
//           | value  cmp number
//           | offset cmp number
//           | dim '(' dimension_id ',' date '=' number ')' cmp number
//   cmp    := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//
// A metric source may cover a date RANGE (date = a, to = b): sum/count/avg
// then fold every (unit, day) row in the range, uv(value) counts DISTINCT
// units with a value on any day (the paper's distinctPos merge of
// non-decomposable state, §4.2), and an `exposed(s)` predicate without an
// explicit date applies the scorecard's per-day filter
// "first-expose-date <= scan day".
//
// Examples (mirroring the paper's SQL):
//   SELECT sum(value), count(*) FROM metric(8371, date = 5)
//       WHERE exposed(8764293, on_or_before = 5)
//   SELECT count(*) FROM expose(8746325) WHERE offset >= 2 AND offset <= 5
//   SELECT sum(value) FROM metric(555, date = 3)
//       WHERE exposed(9002, on_or_before = 3)
//         AND dim(1, date = 3) = 1 AND dim(2, date = 3) > 134

struct QueryPredicate {
  enum class Kind { kValue, kOffset, kDimension, kExposed };

  Kind kind = Kind::kValue;
  RangeOp op = RangeOp::kEq;  // unused for kExposed
  uint64_t constant = 0;      // comparison constant

  // kDimension only.
  uint32_t dimension_id = 0;
  Date dim_date = 0;

  // kExposed only. per_scan_day means "exposed by the day being scanned"
  // (the scorecard filter); otherwise on_or_before is the fixed cutoff.
  uint64_t strategy_id = 0;
  Date on_or_before = 0;
  bool per_scan_day = false;
};

struct QueryAggregate {
  enum class Func { kSum, kCount, kAvg, kMin, kMax, kMedian, kQuantile, kUv };

  Func func = Func::kSum;
  double quantile_q = 0.5;  // kQuantile only
  std::string label;        // rendered column name, e.g. "sum(value)"
};

struct Query {
  enum class Source { kMetric, kExpose, kDimension };

  Source source = Source::kMetric;
  uint64_t source_id = 0;  // metric-id, strategy-id or dimension-id
  Date date = 0;           // dated sources: first day of the window
  Date date_to = 0;        // last day (== date for a single-day query)

  std::vector<QueryAggregate> aggregates;
  std::vector<QueryPredicate> predicates;
  bool group_by_bucket = false;
};

// The result table: one row of aggregate values, or (when grouped) one row
// per bucket plus the global row.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<double> row;
  // group_by_bucket: per_bucket[b][i] is column i of bucket b.
  std::vector<std::vector<double>> per_bucket;

  std::string ToString() const;
};

}  // namespace expbsi

#endif  // EXPBSI_QUERY_AST_H_
