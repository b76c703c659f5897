#ifndef EXPBSI_WAL_DELTA_BUILDER_H_
#define EXPBSI_WAL_DELTA_BUILDER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "engine/experiment_data.h"
#include "expdata/schema.h"
#include "wal/wal.h"

namespace expbsi {

// Accumulates replayed WAL events into per-segment deltas and merges them
// into a live ExperimentBsiData (DESIGN.md §8.3). The builder is the
// incremental counterpart of BuildExperimentBsiData: feeding the same
// events through Add()+MergeInto() -- in any batching -- yields BSIs that
// answer every query identically to a full batch rebuild.
//
// Merge semantics per event kind:
//   * metric     -- additive: multiple events for one (metric, date, unit)
//                   sum, and a merge ADDS to the live value (a unit's daily
//                   value can be delivered in increments).
//   * dimension  -- last write wins (an attribute is a state, not a flow).
//   * expose     -- earliest first-expose date wins; merging can REBASE the
//                   live strategy's min_expose_date when a late event
//                   carries an earlier date than anything seen so far.
//
// Late-arriving analysis units get fresh positions from the segment's
// PositionEncoder (the disjoint fast path of Bsi::MergeAppend); units
// already encoded merge at their existing positions.
class DeltaBuilder {
 public:
  DeltaBuilder(int num_segments, int num_buckets, bool bucket_equals_segment);

  // Routes one event to its segment accumulator (SegmentOf on the analysis
  // unit id, the same deterministic hash the batch builders use).
  void Add(const WalEvent& event);
  void AddRecord(const WalRecord& record);

  // Events accumulated since construction / the last MergeInto.
  uint64_t num_events() const { return num_events_; }

  // Merges every accumulated delta into `data` (whose shape must match the
  // builder's constructor arguments) and clears the accumulators.
  void MergeInto(ExperimentBsiData* data);

 private:
  // Per-key accumulators are flat vectors of events in arrival order.
  // MergeInto stable-sorts each one by unit and folds every unit's events
  // once (metrics sum, dimensions keep the last write, exposes keep the
  // earliest date), so an Add is one append and never a tree insert.
  struct ExposeEntry {
    UnitId unit;
    Date date;  // first-expose date
    UnitId randomization_unit;
  };
  struct ValueEntry {
    UnitId unit;
    uint64_t value;
  };
  struct SegmentDelta {
    // strategy -> expose events.
    std::map<uint64_t, std::vector<ExposeEntry>> expose;
    // (metric, date) -> metric events.
    std::map<std::pair<uint64_t, Date>, std::vector<ValueEntry>> metrics;
    // (dimension, date) -> dimension events.
    std::map<std::pair<uint32_t, Date>, std::vector<ValueEntry>> dimensions;

    bool empty() const {
      return expose.empty() && metrics.empty() && dimensions.empty();
    }
  };

  // `units` is folded: one entry per unit, ascending unit id.
  void MergeExpose(SegmentBsiData* segment, uint64_t strategy_id,
                   const std::vector<ExposeEntry>& units);

  int num_segments_;
  int num_buckets_;
  bool bucket_equals_segment_;
  uint64_t num_events_ = 0;
  std::vector<SegmentDelta> deltas_;
};

}  // namespace expbsi

#endif  // EXPBSI_WAL_DELTA_BUILDER_H_
