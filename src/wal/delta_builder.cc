#include "wal/delta_builder.h"

#include <algorithm>

#include "common/check.h"
#include "expdata/bsi_builder.h"
#include "expdata/segmenter.h"
#include "obs/metrics.h"

namespace expbsi {
namespace {

// Stable-sorts one key's events by unit and folds each unit's events, in
// arrival order, into its first entry: fold(kept, next). Leaves one entry
// per unit, ascending unit id -- the order PositionEncoder::Encode must see
// them in for a log to rebuild the same store bit for bit.
template <typename Entry, typename Fold>
void FoldByUnit(std::vector<Entry>* entries, Fold fold) {
  std::stable_sort(
      entries->begin(), entries->end(),
      [](const Entry& a, const Entry& b) { return a.unit < b.unit; });
  size_t kept = 0;
  for (size_t i = 0; i < entries->size(); ++i) {
    const Entry& next = (*entries)[i];
    if (kept > 0 && (*entries)[kept - 1].unit == next.unit) {
      fold((*entries)[kept - 1], next);
    } else {
      (*entries)[kept++] = next;
    }
  }
  entries->resize(kept);
}

}  // namespace

DeltaBuilder::DeltaBuilder(int num_segments, int num_buckets,
                           bool bucket_equals_segment)
    : num_segments_(num_segments),
      num_buckets_(num_buckets),
      bucket_equals_segment_(bucket_equals_segment) {
  CHECK_GT(num_segments, 0);
  deltas_.resize(static_cast<size_t>(num_segments));
}

void DeltaBuilder::Add(const WalEvent& event) {
  const int seg = SegmentOf(event.analysis_unit_id, num_segments_);
  SegmentDelta& delta = deltas_[static_cast<size_t>(seg)];
  switch (event.kind) {
    case WalEventKind::kExpose:
      delta.expose[event.id].push_back(
          {event.analysis_unit_id, event.date, event.randomization_unit_id});
      break;
    case WalEventKind::kMetric:
      delta.metrics[{event.id, event.date}].push_back(
          {event.analysis_unit_id, event.value});
      break;
    case WalEventKind::kDimension:
      delta.dimensions[{static_cast<uint32_t>(event.id), event.date}]
          .push_back({event.analysis_unit_id, event.value});
      break;
  }
  ++num_events_;
}

void DeltaBuilder::AddRecord(const WalRecord& record) {
  for (const WalEvent& event : record.events) Add(event);
}

void DeltaBuilder::MergeExpose(
    SegmentBsiData* segment, uint64_t strategy_id,
    const std::vector<ExposeEntry>& units) {
  auto it = segment->expose.find(strategy_id);
  if (it == segment->expose.end()) {
    // First sight of this strategy in this segment: the batch builder
    // already does exactly what we need.
    std::vector<ExposeRow> rows;
    rows.reserve(units.size());
    for (const ExposeEntry& entry : units) {
      ExposeRow row;
      row.strategy_id = strategy_id;
      row.analysis_unit_id = entry.unit;
      row.randomization_unit_id = entry.randomization_unit;
      row.first_expose_date = entry.date;
      rows.push_back(row);
    }
    segment->expose.emplace(
        strategy_id,
        BuildExposeBsi(rows, segment->encoder,
                       bucket_equals_segment_ ? 0 : num_buckets_));
    return;
  }

  ExposeBsi& live = it->second;
  Date delta_min = units.front().date;
  for (const ExposeEntry& entry : units) {
    delta_min = std::min(delta_min, entry.date);
  }
  if (delta_min < live.min_expose_date) {
    // A late event carries an earlier first-expose date than anything in
    // the live BSI: rebase every stored offset so the new minimum maps to
    // offset 1 and existing units keep their absolute dates.
    live.offset =
        Bsi::AddScalar(live.offset, live.min_expose_date - delta_min);
    live.min_expose_date = delta_min;
  }

  std::vector<std::pair<uint32_t, uint64_t>> offset_pairs;
  std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
  for (const ExposeEntry& entry : units) {
    const uint32_t pos = segment->encoder.Encode(entry.unit);
    const uint64_t offset = entry.date - live.min_expose_date + 1;
    if (!live.offset.Exists(pos)) {
      offset_pairs.emplace_back(pos, offset);
      if (!bucket_equals_segment_) {
        bucket_pairs.emplace_back(
            pos,
            static_cast<uint64_t>(
                BucketOf(entry.randomization_unit, num_buckets_)) +
                1);
      }
    } else if (offset < live.offset.Get(pos)) {
      // The unit was already exposed but this delta saw an earlier date.
      live.offset.SetValue(pos, offset);
    }
  }
  live.offset.MergeAppend(Bsi::FromPairs(std::move(offset_pairs)));
  if (!bucket_equals_segment_) {
    live.bucket.MergeAppend(Bsi::FromPairs(std::move(bucket_pairs)));
  }
}

void DeltaBuilder::MergeInto(ExperimentBsiData* data) {
  CHECK_EQ(data->num_segments, num_segments_);
  CHECK_EQ(static_cast<int>(data->segments.size()), num_segments_);
  static obs::Counter& merges = obs::GetCounter("wal.delta_merges");
  static obs::Counter& merged_events =
      obs::GetCounter("wal.delta_merged_events");
  merges.Add();
  merged_events.Add(num_events_);
  for (int seg = 0; seg < num_segments_; ++seg) {
    SegmentDelta& delta = deltas_[static_cast<size_t>(seg)];
    if (delta.empty()) continue;
    SegmentBsiData& live = data->segments[static_cast<size_t>(seg)];

    for (auto& [strategy_id, units] : delta.expose) {
      // Earliest first-expose date wins; on a tie the first event does.
      // The randomization unit rides along with the date (it is a property
      // of the unit, not the date).
      FoldByUnit(&units, [](ExposeEntry& kept, const ExposeEntry& next) {
        if (next.date < kept.date) kept = next;
      });
      MergeExpose(&live, strategy_id, units);
    }

    for (auto& [key, units] : delta.metrics) {
      FoldByUnit(&units, [](ValueEntry& kept, const ValueEntry& next) {
        kept.value += next.value;
      });
      std::vector<std::pair<uint32_t, uint64_t>> pairs;
      pairs.reserve(units.size());
      for (const ValueEntry& entry : units) {
        pairs.emplace_back(live.encoder.Encode(entry.unit), entry.value);
      }
      Bsi value = Bsi::FromPairs(std::move(pairs));
      auto it = live.metrics.find(key);
      if (it == live.metrics.end()) {
        MetricBsi bsi;
        bsi.metric_id = key.first;
        bsi.date = key.second;
        bsi.value = std::move(value);
        live.metrics.emplace(key, std::move(bsi));
      } else {
        it->second.value.MergeAppend(value);
      }
    }

    for (auto& [key, units] : delta.dimensions) {
      // Last write wins (an attribute is a state, not a flow).
      FoldByUnit(&units, [](ValueEntry& kept, const ValueEntry& next) {
        kept.value = next.value;
      });
      auto it = live.dimensions.find(key);
      if (it == live.dimensions.end()) {
        std::vector<std::pair<uint32_t, uint64_t>> pairs;
        pairs.reserve(units.size());
        for (const ValueEntry& entry : units) {
          pairs.emplace_back(live.encoder.Encode(entry.unit), entry.value);
        }
        DimensionBsi bsi;
        bsi.dimension_id = key.first;
        bsi.date = key.second;
        bsi.value = Bsi::FromPairs(std::move(pairs));
        live.dimensions.emplace(key, std::move(bsi));
      } else {
        Bsi& value = it->second.value;
        std::vector<std::pair<uint32_t, uint64_t>> fresh;
        for (const ValueEntry& entry : units) {
          const uint32_t pos = live.encoder.Encode(entry.unit);
          if (value.Exists(pos)) {
            value.SetValue(pos, entry.value);  // last write wins
          } else if (entry.value != 0) {
            fresh.emplace_back(pos, entry.value);
          }
        }
        value.MergeAppend(Bsi::FromPairs(std::move(fresh)));
      }
    }

    delta = SegmentDelta{};
  }
  num_events_ = 0;
}

}  // namespace expbsi
