#include "cluster/adhoc_cluster.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "net/coordinator.h"
#include "obs/trace.h"
#include "wal/ingest_store.h"

namespace expbsi {

BsiStore BuildColdStore(const ExperimentBsiData& data) {
  BsiStore store;
  for (int seg = 0; seg < data.num_segments; ++seg) {
    const SegmentBsiData& sbd = data.segments[seg];
    for (const auto& [strategy_id, expose] : sbd.expose) {
      std::string bytes;
      expose.Serialize(&bytes);
      store.Put(BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kExpose,
                            strategy_id, 0},
                std::move(bytes));
    }
    for (const auto& [key, metric] : sbd.metrics) {
      std::string bytes;
      metric.Serialize(&bytes);
      store.Put(BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kMetric,
                            key.first, key.second},
                std::move(bytes));
    }
    for (const auto& [key, dimension] : sbd.dimensions) {
      std::string bytes;
      dimension.Serialize(&bytes);
      store.Put(BsiStoreKey{static_cast<uint16_t>(seg), BsiKind::kDimension,
                            key.first, key.second},
                std::move(bytes));
    }
  }
  return store;
}

Result<ExperimentBsiData> ReconstructBsiData(const BsiStore& store,
                                             int num_segments,
                                             int num_buckets,
                                             bool bucket_equals_segment) {
  ExperimentBsiData out;
  if (num_segments <= 0) {
    int max_segment = -1;
    store.ForEach([&max_segment](const BsiStoreKey& key, const std::string&) {
      max_segment = std::max(max_segment, static_cast<int>(key.segment));
    });
    num_segments = max_segment + 1;
  }
  out.num_segments = num_segments;
  out.num_buckets = num_buckets;
  out.bucket_equals_segment = bucket_equals_segment;
  out.segments.resize(static_cast<size_t>(std::max(num_segments, 0)));
  Status status;
  store.ForEach([&](const BsiStoreKey& key, const std::string& bytes) {
    if (!status.ok()) return;
    if (static_cast<int>(key.segment) >= num_segments) {
      status = Status::Corruption(
          "reconstruct: blob for segment beyond num_segments");
      return;
    }
    SegmentBsiData& seg = out.segments[key.segment];
    // Each blob must decode AND describe the key it was stored under -- a
    // blob swapped between keys would otherwise be silently accepted.
    switch (key.kind) {
      case BsiKind::kExpose: {
        Result<ExposeBsi> expose = ExposeBsi::Deserialize(bytes);
        if (!expose.ok()) {
          status = expose.status();
          return;
        }
        if (expose.value().strategy_id != key.id || key.date != 0) {
          status = Status::Corruption(
              "reconstruct: expose blob does not match its key");
          return;
        }
        seg.expose.emplace(key.id, std::move(expose).value());
        break;
      }
      case BsiKind::kMetric: {
        Result<MetricBsi> metric = MetricBsi::Deserialize(bytes);
        if (!metric.ok()) {
          status = metric.status();
          return;
        }
        if (metric.value().metric_id != key.id ||
            metric.value().date != key.date) {
          status = Status::Corruption(
              "reconstruct: metric blob does not match its key");
          return;
        }
        seg.metrics.emplace(std::make_pair(key.id, key.date),
                            std::move(metric).value());
        break;
      }
      case BsiKind::kDimension: {
        Result<DimensionBsi> dimension = DimensionBsi::Deserialize(bytes);
        if (!dimension.ok()) {
          status = dimension.status();
          return;
        }
        if (dimension.value().dimension_id != key.id ||
            dimension.value().date != key.date) {
          status = Status::Corruption(
              "reconstruct: dimension blob does not match its key");
          return;
        }
        seg.dimensions.emplace(
            std::make_pair(static_cast<uint32_t>(key.id), key.date),
            std::move(dimension).value());
        break;
      }
      case BsiKind::kState:
        // Ingest-store checkpoint state (meta / position encoders); not a
        // BSI. The ingest store decodes these itself.
        break;
    }
  });
  if (!status.ok()) return status;
  return out;
}

AdhocCluster::AdhocCluster(const Dataset* dataset,
                           const ExperimentBsiData* bsi,
                           AdhocClusterConfig config)
    : dataset_(dataset), bsi_(bsi), config_(std::move(config)) {
  CHECK_GT(config_.num_nodes, 0);
  if (dataset_ != nullptr) CHECK(dataset_->config.bucket_equals_segment);

  if (config_.ingest != nullptr) {
    // The ingest store already recovered (newest good snapshot + WAL tail
    // replay); the cluster is a serving view of its live data.
    CHECK(bsi_ == nullptr);  // exactly one BSI source
    bsi_ = &config_.ingest->data();
  }

  bool recovered = false;
  if (config_.ingest == nullptr && !config_.snapshot_dir.empty()) {
    Result<BsiStore> r =
        BsiStore::Recover(config_.snapshot_dir, &recovery_report_);
    // With a rebuild source at hand only a complete recovery is worth
    // taking; on a pure cold start (bsi == nullptr) a partial recovery is
    // accepted and the losses surface through DegradedInfo on every query.
    if (r.ok() && r.value().NumBlobs() > 0 &&
        (bsi_ == nullptr || recovery_report_.fully_recovered())) {
      cold_ = std::move(r).value();
      recovered = true;
      cold_started_from_snapshot_ = true;
    }
  }
  if (!recovered) {
    CHECK(bsi_ != nullptr);  // neither a snapshot nor a build source
    recovery_report_ = RecoveryReport{};
    cold_ = BuildColdStore(*bsi_);
    // With an ingest store the snapshot directory belongs to its
    // checkpoints (whose manifests carry WAL metadata); the cluster must
    // not publish versions of its own there.
    if (config_.ingest == nullptr && !config_.snapshot_dir.empty()) {
      Result<SnapshotWriteStats> written =
          SnapshotWriter::Write(cold_, config_.snapshot_dir);
      if (!written.ok()) snapshot_write_status_ = written.status();
    }
  }

  if (bsi_ != nullptr) {
    num_segments_ = bsi_->num_segments;
  } else {
    // Cold start without shape metadata: the segment count is whatever the
    // manifest talked about, recovered or lost.
    int max_segment = -1;
    cold_.ForEach([&max_segment](const BsiStoreKey& key, const std::string&) {
      max_segment = std::max(max_segment, static_cast<int>(key.segment));
    });
    for (uint16_t seg : recovery_report_.lost_segments) {
      max_segment = std::max(max_segment, static_cast<int>(seg));
    }
    num_segments_ = max_segment + 1;
  }
  for (uint16_t seg : recovery_report_.lost_segments) {
    if (static_cast<int>(seg) < num_segments_) {
      recovery_lost_segments_.push_back(seg);
    }
  }

  if (dataset_ != nullptr) {
    // Cluster-local layout of the normal-format rows, clustered by
    // (metric, segment) like a ClickHouse primary key.
    normal_index_ =
        std::make_unique<NormalDataIndex>(NormalDataIndex::Build(*dataset_));
  }

  net::InProcessNodes nodes;
  nodes.warehouse = &cold_;
  nodes.num_nodes = config_.num_nodes;
  nodes.hot_capacity_bytes = config_.hot_capacity_bytes_per_node;
  nodes.retry = config_.retry;
  nodes.lost_segments = recovery_lost_segments_;
  // The network coordinator over an in-process link. Every node reads the
  // same warehouse, so every node replicates every segment (R = num_nodes):
  // primaries are the rendezvous primaries the fleet uses, and a crashed
  // node's segments fail over to their next rendezvous replica.
  net::CoordinatorOptions options;
  options.num_segments = num_segments_;
  options.replication_factor = config_.num_nodes;
  options.allow_degraded = config_.allow_degraded;
  options.postmortem_dir = config_.postmortem_dir;
  coordinator_ =
      std::make_unique<net::Coordinator>(std::move(options), std::move(nodes));
}

AdhocCluster::~AdhocCluster() = default;

int AdhocCluster::NodeOfSegment(int segment) const {
  return coordinator_->placement().PrimaryOf(segment);
}

Result<AdhocCluster::QueryStats> AdhocCluster::QueryBsi(
    const std::vector<uint64_t>& strategy_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  if (!recovery_lost_segments_.empty() && !config_.allow_degraded) {
    return Status::Corruption(
        "adhoc cluster: warehouse recovered with lost segments; strict mode "
        "refuses to serve a biased scorecard");
  }
  return coordinator_->QueryBsi(strategy_ids, metric_ids, date_lo, date_hi);
}

const ExposeBitmapCache& AdhocCluster::GetOrBuildBitmapCache(
    uint64_t strategy_id, Date date_lo, Date date_hi, bool* built) {
  *built = false;
  auto it = bitmap_caches_.find(strategy_id);
  if (it != bitmap_caches_.end() && it->second.date_lo() <= date_lo &&
      it->second.date_hi() >= date_hi) {
    return it->second;
  }
  *built = true;
  ExposeBitmapCache cache =
      ExposeBitmapCache::Build(*dataset_, strategy_id, date_lo, date_hi);
  auto [new_it, _] = bitmap_caches_.insert_or_assign(strategy_id,
                                                     std::move(cache));
  return new_it->second;
}

Result<AdhocCluster::QueryStats> AdhocCluster::QueryNormalBitmap(
    const std::vector<uint64_t>& strategy_ids,
    const std::vector<uint64_t>& metric_ids, Date date_lo, Date date_hi) {
  CHECK_LE(date_lo, date_hi);
  CHECK(dataset_ != nullptr);  // the baseline needs the normal-format rows
  QueryStats stats;
  stats.trace = std::make_shared<obs::QueryTrace>("adhoc_query_normal");
  obs::ScopedTrace install_trace(stats.trace.get());
  const int num_segments = dataset_->config.num_segments;
  // The paper's baseline caches the expose bitmaps in memory up front; the
  // cache build is not part of the repeated-query latency. It IS a read of
  // the expose rows, though, so it is accounted exactly like the BSI path's
  // tier accounting: a (re)build charges the scanned rows to
  // bytes_from_cold, a reuse of the in-memory cache is a hot hit.
  std::vector<const ExposeBitmapCache*> caches;
  caches.reserve(strategy_ids.size());
  {
    obs::ScopedSpan span("build_bitmap_caches");
    for (uint64_t strategy_id : strategy_ids) {
      bool built = false;
      caches.push_back(
          &GetOrBuildBitmapCache(strategy_id, date_lo, date_hi, &built));
      if (built) {
        for (int seg = 0; seg < num_segments; ++seg) {
          const std::vector<ExposeRow>* rows =
              normal_index_->ExposeRows(strategy_id, seg);
          if (rows != nullptr) {
            stats.bytes_from_cold += rows->size() * sizeof(ExposeRow);
          }
        }
      } else {
        ++stats.hot_hits;
      }
    }
    span.AddAttr("strategies", strategy_ids.size());
    span.AddAttr("cold_bytes", stats.bytes_from_cold);
  }

  std::map<StrategyMetricPair, BucketValues> partials =
      MakeSegmentPartials(strategy_ids, metric_ids, num_segments);

  // Each node scans its primary segments (the BSI path's ownership), one
  // node after another.
  std::vector<std::vector<int>> owned(config_.num_nodes);
  for (int seg = 0; seg < num_segments; ++seg) {
    owned[NodeOfSegment(seg)].push_back(seg);
  }
  Stopwatch wall;
  for (int node = 0; node < config_.num_nodes; ++node) {
    obs::ScopedSpan node_span("node_scan");
    node_span.AddAttr("node", static_cast<uint64_t>(node));
    node_span.AddAttr("segments", owned[node].size());
    CpuTimer cpu;
    for (const int seg : owned[node]) {
      // Scan each requested metric's clustered rows (ClickHouse primary-key
      // order prunes other metrics), filtering each row through the per-day
      // expose bitmap. Masks are hoisted and sums accumulate in registers,
      // as a columnar engine would.
      const int num_days = static_cast<int>(date_hi - date_lo) + 1;
      std::vector<const RoaringBitmap*> day_masks(strategy_ids.size() *
                                                  num_days);
      for (size_t si = 0; si < strategy_ids.size(); ++si) {
        for (int d = 0; d < num_days; ++d) {
          day_masks[si * num_days + d] =
              &caches[si]->For(seg, date_lo + static_cast<Date>(d));
        }
      }
      std::vector<double> local_sums(strategy_ids.size());
      for (uint64_t metric_id : metric_ids) {
        const std::vector<MetricRow>* rows =
            normal_index_->MetricRows(metric_id, seg);
        if (rows == nullptr) continue;
        // First scan of this row group pays the cold read; repeats hit the
        // in-memory copy (the baseline's analogue of the BSI hot tier).
        if (normal_scanned_.insert({metric_id, seg}).second) {
          stats.bytes_from_cold += rows->size() * sizeof(MetricRow);
        } else {
          ++stats.hot_hits;
        }
        std::fill(local_sums.begin(), local_sums.end(), 0.0);
        for (const MetricRow& row : *rows) {
          if (row.date < date_lo || row.date > date_hi) continue;
          const uint32_t unit = static_cast<uint32_t>(row.analysis_unit_id);
          const int d = static_cast<int>(row.date - date_lo);
          for (size_t si = 0; si < strategy_ids.size(); ++si) {
            if (day_masks[si * num_days + d]->Contains(unit)) {
              local_sums[si] += static_cast<double>(row.value);
            }
          }
        }
        for (size_t si = 0; si < strategy_ids.size(); ++si) {
          partials[{strategy_ids[si], metric_id}].sums[seg] +=
              local_sums[si];
        }
      }
      for (size_t si = 0; si < strategy_ids.size(); ++si) {
        const double exposed = static_cast<double>(
            caches[si]->For(seg, date_hi).Cardinality());
        for (uint64_t m : metric_ids) {
          partials[{strategy_ids[si], m}].counts[seg] += exposed;
        }
      }
    }
    stats.total_cpu_seconds += cpu.ElapsedSeconds();
  }
  stats.results = std::move(partials);
  stats.latency_seconds = wall.ElapsedSeconds();
  return stats;
}

}  // namespace expbsi
