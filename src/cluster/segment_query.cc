#include "cluster/segment_query.h"

#include <optional>
#include <utility>

#include "common/timer.h"
#include "engine/experiment_data.h"
#include "obs/trace.h"
#include "storage/bsi_store.h"

namespace expbsi {

namespace {

enum class FetchOutcome { kGot, kAbsent, kLost };

// Fetch + decode one blob through `tier` under the retry policy. NotFound
// is semantic absence (strategy/metric not in this segment), never retried;
// Unavailable/Corruption are retried with simulated backoff and, once
// attempts are exhausted, either degrade the segment (kLost) or fail the
// query (strict mode).
template <typename Decode, typename Out>
Result<FetchOutcome> FetchDecoded(TieredStore& tier, const BsiStoreKey& key,
                                  const RetryPolicy& retry,
                                  bool allow_degraded, Decode&& decode,
                                  Out* out, SegmentExecStats* exec_stats) {
  using Decoded = typename Out::value_type;
  RetryStats rstats;
  Result<Decoded> decoded = RetryWithPolicy<Decoded>(
      retry, BsiStoreKeyHash{}(key), &rstats, [&]() -> Result<Decoded> {
        Result<std::shared_ptr<const std::string>> blob = tier.Fetch(key);
        if (!blob.ok()) return blob.status();
        return decode(*blob.value());
      });
  exec_stats->retries += rstats.retries;
  if (rstats.recovered) ++exec_stats->faults_survived;
  // A clean fetch stays silent; only the (rare) retried ones mark the
  // enclosing segment span.
  if (rstats.retries > 0) {
    obs::CurrentSpanAttr("fetch_retries",
                         static_cast<uint64_t>(rstats.retries));
  }
  if (decoded.ok()) {
    out->emplace(std::move(decoded).value());
    return FetchOutcome::kGot;
  }
  if (decoded.status().code() == StatusCode::kNotFound) {
    return FetchOutcome::kAbsent;
  }
  if (allow_degraded) return FetchOutcome::kLost;
  return decoded.status();
}

}  // namespace

std::map<StrategyMetricPair, BucketValues> MakeSegmentPartials(
    const std::vector<uint64_t>& strategy_ids,
    const std::vector<uint64_t>& metric_ids, int num_segments) {
  std::map<StrategyMetricPair, BucketValues> partials;
  for (uint64_t s : strategy_ids) {
    for (uint64_t m : metric_ids) {
      partials.emplace(StrategyMetricPair{s, m},
                       BucketValues::Zeros(num_segments));
    }
  }
  return partials;
}

void StoreSegmentPartial(const std::vector<uint64_t>& strategy_ids,
                         const std::vector<uint64_t>& metric_ids, int seg,
                         const std::vector<double>& sums,
                         const std::vector<double>& counts,
                         std::map<StrategyMetricPair, BucketValues>* partials) {
  size_t slot = 0;
  for (uint64_t s : strategy_ids) {
    for (uint64_t m : metric_ids) {
      BucketValues& bv = (*partials)[{s, m}];
      bv.sums[seg] = sums[slot];
      bv.counts[seg] = counts[slot];
      ++slot;
    }
  }
}

Result<bool> ExecuteSegmentQuery(TieredStore& tier, int seg,
                                 const std::vector<uint64_t>& strategy_ids,
                                 const std::vector<uint64_t>& metric_ids,
                                 Date date_lo, Date date_hi,
                                 const RetryPolicy& retry,
                                 bool allow_degraded, SegPartial* out,
                                 SegmentExecStats* exec_stats) {
  const size_t num_metrics = metric_ids.size();
  obs::ScopedSpan seg_span("segment_execute");
  seg_span.AddAttr("segment", static_cast<uint64_t>(seg));
  out->sums.assign(strategy_ids.size() * num_metrics, 0.0);
  out->counts.assign(strategy_ids.size() * num_metrics, 0.0);
  // Fetch + decode the expose BSIs once per (segment, strategy) and
  // precompute the per-day masks all metrics share.
  struct StrategyMasks {
    std::vector<RoaringBitmap> by_day;  // index: date - date_lo
    uint64_t exposed_by_hi = 0;
  };
  std::vector<std::optional<StrategyMasks>> masks(strategy_ids.size());
  for (size_t si = 0; si < strategy_ids.size(); ++si) {
    std::optional<ExposeBsi> expose;
    Result<FetchOutcome> oc = FetchDecoded(
        tier,
        BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kExpose,
                    strategy_ids[si], 0},
        retry, allow_degraded,
        [](const std::string& b) { return ExposeBsi::Deserialize(b); },
        &expose, exec_stats);
    if (!oc.ok()) return oc.status();
    if (oc.value() == FetchOutcome::kLost) return false;
    if (oc.value() == FetchOutcome::kAbsent) continue;
    StrategyMasks sm;
    sm.by_day = expose->ExposedOnOrBeforeEachDay(date_lo, date_hi);
    sm.exposed_by_hi = sm.by_day.back().Cardinality();
    masks[si].emplace(std::move(sm));
  }
  for (size_t mi = 0; mi < num_metrics; ++mi) {
    for (Date d = date_lo; d <= date_hi; ++d) {
      std::optional<MetricBsi> metric;
      Result<FetchOutcome> oc = FetchDecoded(
          tier,
          BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kMetric,
                      metric_ids[mi], d},
          retry, allow_degraded,
          [](const std::string& b) { return MetricBsi::Deserialize(b); },
          &metric, exec_stats);
      if (!oc.ok()) return oc.status();
      if (oc.value() == FetchOutcome::kLost) return false;
      if (oc.value() == FetchOutcome::kAbsent) continue;
      for (size_t si = 0; si < strategy_ids.size(); ++si) {
        if (!masks[si].has_value()) continue;
        out->sums[si * num_metrics + mi] += static_cast<double>(
            metric->value.SumUnderMask(masks[si]->by_day[d - date_lo]));
      }
    }
    for (size_t si = 0; si < strategy_ids.size(); ++si) {
      if (!masks[si].has_value()) continue;
      out->counts[si * num_metrics + mi] +=
          static_cast<double>(masks[si]->exposed_by_hi);
    }
  }
  return true;
}

Status ExecuteQueryRequest(TieredStore& tier,
                           const wire::WireQueryRequest& req,
                           const RetryPolicy& retry,
                           const std::function<SegmentGate(uint32_t)>& gate,
                           wire::WireQueryResponse* resp) {
  Status exec_status;
  // Trace the node-side execution when asked; the spans ship back in the
  // response and the coordinator grafts them under its RPC span.
  std::unique_ptr<obs::QueryTrace> trace;
  if (req.want_trace) trace = std::make_unique<obs::QueryTrace>("node_query");
  {
    obs::ScopedTrace install_trace(trace.get());
    const TieredStore::Stats io_before = tier.stats();
    CpuTimer cpu;
    for (uint32_t seg : req.segments) {
      const SegmentGate g = gate ? gate(seg) : SegmentGate::kExecute;
      if (g == SegmentGate::kAbort) break;
      wire::WireSegmentResult out;
      out.segment = seg;
      if (g == SegmentGate::kLost) {
        out.lost = 1;
        resp->segments.push_back(std::move(out));
        continue;
      }
      SegPartial partial;
      SegmentExecStats exec;
      Result<bool> processed = ExecuteSegmentQuery(
          tier, static_cast<int>(seg), req.strategy_ids, req.metric_ids,
          req.date_lo, req.date_hi, retry, req.allow_degraded, &partial,
          &exec);
      resp->retries += static_cast<uint32_t>(exec.retries);
      resp->faults_survived += static_cast<uint32_t>(exec.faults_survived);
      if (!processed.ok()) {
        exec_status = processed.status();
        break;
      }
      if (processed.value()) {
        out.sums = std::move(partial.sums);
        out.counts = std::move(partial.counts);
      } else {
        out.lost = 1;  // degraded: named explicitly, never silent
      }
      resp->segments.push_back(std::move(out));
    }
    resp->cpu_seconds = cpu.ElapsedSeconds();
    const TieredStore::Stats io_after = tier.stats();
    resp->bytes_from_cold =
        io_after.bytes_from_cold - io_before.bytes_from_cold;
    resp->hot_hits = io_after.hot_hits - io_before.hot_hits;
  }
  // ScopedTrace closed the root above, so every shipped span is closed.
  if (trace != nullptr) {
    for (const obs::QueryTrace::Span& s : trace->spans()) {
      wire::WireSpan ws;
      ws.id = s.id;
      ws.parent_id = s.parent_id;
      ws.name = s.name;
      ws.start_ns = s.start_ns;
      ws.duration_ns = s.duration_ns;
      ws.attrs = s.attrs;
      resp->spans.push_back(std::move(ws));
    }
  }
  return exec_status;
}

}  // namespace expbsi
