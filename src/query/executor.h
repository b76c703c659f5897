#ifndef EXPBSI_QUERY_EXECUTOR_H_
#define EXPBSI_QUERY_EXECUTOR_H_

#include <string>

#include "common/status.h"
#include "engine/experiment_data.h"
#include "obs/trace.h"
#include "query/ast.h"

namespace expbsi {

// Executes a parsed EQL query against the BSI data: per segment, the WHERE
// predicates become bitmap masks -- expose filters, and one Bsi::RangeAll
// call per range target (the source BSI, or one dim(id, date) log) holding
// every value / offset / dim predicate on it -- aggregates fold the source
// BSI under the combined mask, and segment partials merge into the result.
// Median/quantile merge exactly via the cross-input slice descent
// (non-decomposable aggregates, §4.2), not by approximation.
//
// Validation errors (unknown constructs for the source, unsupported grouped
// aggregates) return InvalidArgument. Missing data (unknown metric-id,
// strategy without exposure in a segment) is not an error -- those segments
// simply contribute nothing, as in the production system.
// Pass a QueryTrace to record the execution as a span tree (validate ->
// build_scans -> aggregate -> group_by_bucket, with per-layer byte and
// container counts); nullptr skips all tracing work. The trace is installed
// on the calling thread for the duration, so kernels and stores reached
// from here attach to it automatically.
Result<QueryResult> ExecuteQuery(const ExperimentBsiData& data,
                                 const Query& query,
                                 obs::QueryTrace* trace = nullptr);

// Parses and executes in one step.
Result<QueryResult> RunQuery(const ExperimentBsiData& data,
                             const std::string& text,
                             obs::QueryTrace* trace = nullptr);

}  // namespace expbsi

#endif  // EXPBSI_QUERY_EXECUTOR_H_
