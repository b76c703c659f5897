#ifndef EXPBSI_STATS_BUCKET_STATS_H_
#define EXPBSI_STATS_BUCKET_STATS_H_

#include <cstdint>
#include <vector>

namespace expbsi {

// Bucket-based statistical inference (§3.3 and the companion covariance
// paper [23]): under SUTVA, the deterministic bucketing of randomization
// units yields B independent replicates of the experiment, so the variance
// (and covariance) of any metric can be estimated from its per-bucket
// values -- no per-unit variance bookkeeping needed.

// Per-bucket aggregation state of one (strategy, metric): the numerator
// (metric sum) and denominator (exposed-unit count) of each bucket.
struct BucketValues {
  std::vector<double> sums;    // sum of metric values per bucket
  std::vector<double> counts;  // exposed analysis units per bucket

  // `num_buckets` replicates whose sums and counts are all zero: the one
  // starting state every engine and query path folds partials into.
  static BucketValues Zeros(int num_buckets) {
    return BucketValues{std::vector<double>(num_buckets, 0.0),
                        std::vector<double>(num_buckets, 0.0)};
  }

  int num_buckets() const { return static_cast<int>(sums.size()); }
  double total_sum() const;
  double total_count() const;

  // Element-wise merge (for combining segments when segment != bucket).
  void MergeFrom(const BucketValues& other);
};

// A metric estimate with its sampling uncertainty.
struct MetricEstimate {
  double mean = 0.0;         // ratio estimate: total sum / total count
  double var_of_mean = 0.0;  // delta-method variance of `mean`
  double df = 0.0;           // replicate degrees of freedom (buckets - 1)
  double total_sum = 0.0;
  double total_count = 0.0;
};

// Sample mean / variance / covariance over replicate vectors.
double Mean(const std::vector<double>& xs);
double SampleVariance(const std::vector<double>& xs);
double SampleCovariance(const std::vector<double>& xs,
                        const std::vector<double>& ys);

// Ratio-metric estimate from bucket replicates: mean = sum(S_b)/sum(N_b),
// with the delta-method variance
//   Var(R) = (Var(s) + R^2 Var(n) - 2 R Cov(s, n)) / (B * nbar^2)
// where s, n are per-bucket sums/counts and nbar their mean. Buckets whose
// count is zero still participate (they are legitimate replicates).
MetricEstimate EstimateRatio(const BucketValues& buckets);

// Covariance of two metric ratio estimates computed over the SAME buckets
// (needed for CUPED and for metric-covariance reporting). Returns the
// delta-method covariance of the two means.
double EstimateRatioCovariance(const BucketValues& x, const BucketValues& y);

}  // namespace expbsi

#endif  // EXPBSI_STATS_BUCKET_STATS_H_
