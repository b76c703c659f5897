#ifndef EXPBSI_EXPDATA_GENERATOR_H_
#define EXPBSI_EXPDATA_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "expdata/schema.h"

namespace expbsi {

// Synthetic workload generator. The paper evaluates on WeChat production
// logs; we reproduce the published distributional shapes instead (DESIGN.md
// "Substitutions"):
//   * metric value-range cardinalities follow Fig. 4 / Table 3,
//   * metric values are Zipf-distributed near zero (Fig. 5, Pareto
//     principle),
//   * first-expose dates decay geometrically ("most users are exposed in the
//     beginning few days", §3.5),
//   * user activity is engagement-skewed so engagement-ordered position
//     encoding is compact (§3.4.1).
// All draws are deterministic in (seed, user-id), so datasets are
// reproducible and order-independent.

// Dataset-wide shape parameters.
struct DatasetConfig {
  uint64_t num_users = 100000;
  int num_segments = 16;
  // Statistical buckets (§3.3). When bucket_equals_segment is true the
  // engines use segments as buckets (the paper's common case) and no bucket
  // BSI is built.
  int num_buckets = 1024;
  bool bucket_equals_segment = true;
  Date start_date = 0;
  int num_days = 7;
  uint64_t seed = 42;
  // Exponent of the per-user engagement skew; higher = heavier head.
  double engagement_exponent = 0.5;

  // Bucket count as used by BucketValues vectors.
  int effective_buckets() const {
    return bucket_equals_segment ? num_segments : num_buckets;
  }
};

// One experiment: a traffic split over `strategy_ids` (arm 0 = control).
struct ExperimentConfig {
  std::vector<uint64_t> strategy_ids;
  // Per-arm multiplicative effect on metric values (1.0 = no effect);
  // size must match strategy_ids.
  std::vector<double> arm_effects;
  uint64_t traffic_salt = 1;      // identifies the randomization layer
  double traffic_fraction = 1.0;  // fraction of users in the experiment
  // P(first exposure happens on the n-th running day) ~ Geometric(p):
  // most exposures land on the first days, as in the paper.
  double expose_day_p = 0.6;
};

// One metric's value model.
struct MetricConfig {
  uint64_t metric_id = 0;
  // Values are drawn from [1, value_range] (the paper's "value range
  // cardinality" for one day).
  uint64_t value_range = 100;
  double zipf_s = 1.3;  // value skew; mass concentrates near 1
  // Base probability that a user logs this metric on a given day; scaled by
  // per-user engagement.
  double daily_participation = 0.3;
};

// One dimension's value model (values mostly stable per user across days).
struct DimensionConfig {
  uint32_t dimension_id = 0;
  uint64_t cardinality = 5;  // values in [1, cardinality]
  double zipf_s = 1.0;
};

// Normal-format rows of one segment.
struct SegmentData {
  std::vector<ExposeRow> expose;
  std::vector<MetricRow> metrics;
  std::vector<DimensionRow> dimensions;
};

// A full generated dataset.
struct Dataset {
  DatasetConfig config;
  std::vector<ExperimentConfig> experiments;
  std::vector<MetricConfig> metrics;
  std::vector<DimensionConfig> dimensions;
  std::vector<SegmentData> segments;
  // Per segment: unit ids ordered by engagement (most engaged first); feed
  // to PositionEncoder::PreassignRanked for the paper's compact encoding.
  std::vector<std::vector<UnitId>> users_by_engagement;
};

// Generates the dataset. Cost is O(users * days * (metrics + dimensions)).
Dataset GenerateDataset(const DatasetConfig& config,
                        std::vector<ExperimentConfig> experiments,
                        std::vector<MetricConfig> metrics,
                        std::vector<DimensionConfig> dimensions);

// Session-level dataset: the paper's unit-hierarchy case (§3.1.1) where the
// randomization unit (user) is HIGHER than the analysis unit (session).
// Sessions are short-lived analysis units: each is exposed on the day it
// happens (if its user is exposed by then), carries per-session metric
// values, and inherits its user's statistical bucket -- which is what makes
// bucket-based variance estimation valid under SUTVA when sessions of the
// same user are correlated.
//
// The returned dataset always has bucket_equals_segment == false: sessions
// are segmented by session-id while buckets come from the user id (the
// ExposeRow's randomization_unit_id).
Dataset GenerateSessionDataset(const DatasetConfig& config,
                               std::vector<ExperimentConfig> experiments,
                               std::vector<MetricConfig> metrics,
                               double sessions_per_user_day);

// Metric populations calibrated to the paper's published histograms.

// Table 3: the 105 "core metrics" value-range cardinality proportions
// (31.4% in (0,10], ..., 1.9% in (10^7,10^8]). `n` metrics, ids from
// `first_metric_id`.
std::vector<MetricConfig> MakeCoreMetricPopulation(int n,
                                                   uint64_t first_metric_id,
                                                   uint64_t seed);

// Figure 4: the fleet-wide 5890-metric population (3979 of 5890 with range
// cardinality <= 100).
std::vector<MetricConfig> MakeFleetMetricPopulation(int n,
                                                    uint64_t first_metric_id,
                                                    uint64_t seed);

// Table 5: the three "typical metrics" A (binary, dense), B (range 50,
// sparse), C (range 21600, dense).
std::vector<MetricConfig> MakeTypicalMetricsABC();

}  // namespace expbsi

#endif  // EXPBSI_EXPDATA_GENERATOR_H_
