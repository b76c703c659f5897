// Differential-oracle fuzzing: every optimized path (BSI columns, the
// scorecard / deep-dive / pre-experiment engines, the EQL executor) is run
// against the deliberately-naive scalar reference in src/reference/ on
// hundreds of randomized workloads. Integer aggregates and engine bucket
// values must match BIT FOR BIT (both sides fold the same integer partials
// into doubles in the same order); the statistical layer is compared to a
// small relative tolerance because the reference t-CDF is computed by
// numerical integration instead of the production continued fraction.
//
// Reproducing a failure: every assertion message carries the iteration seed.
// Re-run just that seed with
//
//   EXPBSI_DIFF_SEED=<seed> ./build/tests/expbsi_tests
//       --gtest_filter='DifferentialTest.*'   (one command, line-wrapped)
//
// The deterministic corpus in tests/corpus/seeds.txt is replayed BEFORE the
// random exploration, so known-nasty container transitions are always
// covered even if the exploration schedule changes.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "bsi/bsi_aggregate.h"
#include "bsi/bsi_compare.h"
#include "common/cpu_features.h"
#include "engine/deepdive.h"
#include "engine/experiment_data.h"
#include "engine/preexperiment.h"
#include "engine/scorecard.h"
#include "expdata/bsi_builder.h"
#include "query/executor.h"
#include "reference/ref_column.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "reference/ref_query.h"
#include "reference/ref_stats.h"
#include "tests/property_gen.h"
#include "tests/support/pairwise_kernels.h"

namespace expbsi {
namespace {

using bsi_compare::CmpOp;
using bsi_compare::RangeOp;
using propgen::ColumnShape;
using propgen::FuzzDataset;

// ---------------------------------------------------------------------------
// Seed schedules.
// ---------------------------------------------------------------------------

// splitmix64: decorrelates consecutive exploration seeds.
uint64_t Splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// tests/corpus/seeds.txt: one seed per line, '#' comments. The build passes
// the directory via EXPBSI_CORPUS_DIR.
std::vector<uint64_t> CorpusSeeds() {
  std::vector<uint64_t> seeds;
#ifdef EXPBSI_CORPUS_DIR
  std::ifstream in(std::string(EXPBSI_CORPUS_DIR) + "/seeds.txt");
  EXPECT_TRUE(in.good()) << "missing corpus file " << EXPBSI_CORPUS_DIR
                         << "/seeds.txt";
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    uint64_t seed;
    if (ls >> seed) seeds.push_back(seed);
  }
  EXPECT_GE(seeds.size(), 5u) << "corpus unexpectedly small";
#endif
  return seeds;
}

// Corpus seeds first (deterministic regressions), then `explore` random
// seeds derived from `base`. EXPBSI_DIFF_SEED overrides everything with a
// single seed for one-command repro.
std::vector<uint64_t> SeedSchedule(uint64_t base, int explore) {
  if (const char* env = std::getenv("EXPBSI_DIFF_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 0))};
  }
  std::vector<uint64_t> seeds = CorpusSeeds();
  uint64_t x = base;
  for (int i = 0; i < explore; ++i) {
    x = Splitmix(x);
    seeds.push_back(x);
  }
  return seeds;
}

std::string Ctx(uint64_t seed, const std::string& what) {
  return what + " (reproduce: EXPBSI_DIFF_SEED=" + std::to_string(seed) +
         " ./build/tests/expbsi_tests"
         " --gtest_filter='DifferentialTest.*')";
}

// ---------------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------------

void ExpectPositionsEqual(const RoaringBitmap& got, const RefPositions& want,
                          const std::string& ctx) {
  EXPECT_EQ(got.ToVector(), want) << ctx;
}

void ExpectColumnsEqual(const Bsi& got, const RefColumn& want,
                        const std::string& ctx) {
  const std::vector<std::pair<uint32_t, uint64_t>> got_pairs = got.ToPairs();
  const std::vector<std::pair<uint32_t, uint64_t>> want_pairs(
      want.values().begin(), want.values().end());
  EXPECT_EQ(got_pairs, want_pairs) << ctx;
}

// Floating-point agreement for the stats layer: same formulas, possibly
// different association order / CDF evaluation method.
void ExpectClose(double got, double want, const std::string& ctx,
                 double rel = 5e-8) {
  if (std::isnan(got) || std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got) && std::isnan(want)) << ctx;
    return;
  }
  const double tol =
      rel * std::max(1.0, std::max(std::fabs(got), std::fabs(want)));
  EXPECT_NEAR(got, want, tol) << ctx;
}

// Engine bucket values must match exactly: both engines fold the same
// uint64 partials into doubles in the same order.
void ExpectBucketsBitEqual(const BucketValues& got, const BucketValues& want,
                           const std::string& ctx) {
  EXPECT_EQ(got.sums, want.sums) << ctx;
  EXPECT_EQ(got.counts, want.counts) << ctx;
}

void ExpectEstimatesClose(const MetricEstimate& got,
                          const MetricEstimate& want,
                          const std::string& ctx) {
  ExpectClose(got.mean, want.mean, ctx + " mean");
  ExpectClose(got.var_of_mean, want.var_of_mean, ctx + " var_of_mean");
  EXPECT_EQ(got.df, want.df) << ctx;
  ExpectClose(got.total_sum, want.total_sum, ctx + " total_sum");
  ExpectClose(got.total_count, want.total_count, ctx + " total_count");
}

void ExpectTTestsClose(const TTestResult& got, const TTestResult& want,
                       const std::string& ctx) {
  ExpectClose(got.mean_diff, want.mean_diff, ctx + " mean_diff");
  ExpectClose(got.relative_diff, want.relative_diff, ctx + " relative_diff");
  ExpectClose(got.std_error, want.std_error, ctx + " std_error");
  ExpectClose(got.t_stat, want.t_stat, ctx + " t_stat");
  ExpectClose(got.df, want.df, ctx + " df");
  ExpectClose(got.p_value, want.p_value, ctx + " p_value");
}

void ExpectEntriesClose(const ScorecardEntry& got, const ScorecardEntry& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.metric_id, want.metric_id) << ctx;
  EXPECT_EQ(got.treatment_id, want.treatment_id) << ctx;
  EXPECT_EQ(got.control_id, want.control_id) << ctx;
  ExpectEstimatesClose(got.treatment, want.treatment, ctx + " treatment");
  ExpectEstimatesClose(got.control, want.control, ctx + " control");
  ExpectTTestsClose(got.ttest, want.ttest, ctx + " ttest");
}

// ---------------------------------------------------------------------------
// Raw column operations: Bsi vs RefColumn.
// ---------------------------------------------------------------------------

constexpr uint32_t kUniverse = 1 << 20;

std::pair<Bsi, RefColumn> BuildBoth(
    const std::vector<std::pair<uint32_t, uint64_t>>& pairs) {
  return {Bsi::FromPairs(pairs), RefColumn::FromPairs(pairs)};
}

void RunColumnOpsIteration(uint64_t seed) {
  Rng rng(seed);
  const ColumnShape shape_x = propgen::RandomShape(rng);
  const ColumnShape shape_y = propgen::RandomShape(rng);

  // Wide-value columns: aggregates + comparisons + ranges. Values of the
  // multi-position shapes are capped so Sum stays far below 2^64.
  const auto pairs_x =
      propgen::GenColumnPairs(rng, shape_x, kUniverse, uint64_t{1} << 20);
  const auto pairs_y =
      propgen::GenColumnPairs(rng, shape_y, kUniverse, uint64_t{1} << 20);
  const auto [x, rx] = BuildBoth(pairs_x);
  const auto [y, ry] = BuildBoth(pairs_y);
  const std::string ctx = Ctx(seed, "column ops");

  ExpectColumnsEqual(x, rx, ctx + " roundtrip x");
  ExpectPositionsEqual(x.existence(), rx.Existence(), ctx + " existence");
  EXPECT_EQ(x.Cardinality(), rx.Cardinality()) << ctx;

  // Point lookups on present and absent positions.
  for (int i = 0; i < 16; ++i) {
    const uint32_t pos = static_cast<uint32_t>(rng.NextBounded(kUniverse));
    EXPECT_EQ(x.Get(pos), rx.Get(pos)) << ctx << " pos=" << pos;
    EXPECT_EQ(x.Exists(pos), rx.Exists(pos)) << ctx << " pos=" << pos;
  }

  // Comparisons (both-present convention).
  ExpectPositionsEqual(Bsi::Lt(x, y), RefColumn::Lt(rx, ry), ctx + " Lt");
  ExpectPositionsEqual(Bsi::Eq(x, y), RefColumn::Eq(rx, ry), ctx + " Eq");
  ExpectPositionsEqual(Bsi::Ne(x, y), RefColumn::Ne(rx, ry), ctx + " Ne");
  ExpectPositionsEqual(Bsi::Le(x, y), RefColumn::Le(rx, ry), ctx + " Le");
  ExpectPositionsEqual(Bsi::Gt(x, y), RefColumn::Gt(rx, ry), ctx + " Gt");
  ExpectPositionsEqual(Bsi::Ge(x, y), RefColumn::Ge(rx, ry), ctx + " Ge");

  // Range searches, with constants spanning below / inside / above the
  // value range (0 and UINT64_MAX are the degenerate bounds).
  const uint64_t ks[] = {0, 1, 2, 1 + rng.NextBounded(uint64_t{1} << 20),
                         (uint64_t{1} << 62), ~uint64_t{0}};
  for (const uint64_t k : ks) {
    const std::string kctx = ctx + " k=" + std::to_string(k);
    ExpectPositionsEqual(x.RangeEq(k), rx.RangeEq(k), kctx + " RangeEq");
    ExpectPositionsEqual(x.RangeNe(k), rx.RangeNe(k), kctx + " RangeNe");
    ExpectPositionsEqual(x.RangeLt(k), rx.RangeLt(k), kctx + " RangeLt");
    ExpectPositionsEqual(x.RangeLe(k), rx.RangeLe(k), kctx + " RangeLe");
    ExpectPositionsEqual(x.RangeGt(k), rx.RangeGt(k), kctx + " RangeGt");
    ExpectPositionsEqual(x.RangeGe(k), rx.RangeGe(k), kctx + " RangeGe");
  }
  const uint64_t lo = rng.NextBounded(uint64_t{1} << 21);
  const uint64_t hi = lo + rng.NextBounded(uint64_t{1} << 21);
  ExpectPositionsEqual(x.RangeBetween(lo, hi), rx.RangeBetween(lo, hi),
                       ctx + " RangeBetween");

  // In-column aggregates. Min/Max/Quantile CHECK-fail on empty input in
  // both implementations, so they are only compared on non-empty columns
  // (the empty-input aborts are covered by bsi_edge_test.cc).
  EXPECT_EQ(x.Sum(), rx.Sum()) << ctx << " Sum";
  EXPECT_EQ(x.Average(), rx.Average()) << ctx << " Average";
  const RefPositions mask_positions = propgen::GenMask(rng, kUniverse);
  const RoaringBitmap mask = RoaringBitmap::FromSorted(mask_positions);
  EXPECT_EQ(x.SumUnderMask(mask), rx.SumUnderMask(mask_positions))
      << ctx << " SumUnderMask";
  if (!rx.IsEmpty()) {
    EXPECT_EQ(x.MinValue(), rx.MinValue()) << ctx << " MinValue";
    EXPECT_EQ(x.MaxValue(), rx.MaxValue()) << ctx << " MaxValue";
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0}) {
      EXPECT_EQ(x.Quantile(q), rx.Quantile(q)) << ctx << " q=" << q;
    }
  }

  // Quantile over several masked inputs (cross-segment merge), guarded the
  // same way as the production CHECK on an empty combined candidate set.
  {
    const RefPositions my = ry.Existence();
    uint64_t candidates = RoaringBitmap::And(x.existence(), mask).Cardinality();
    candidates += y.Cardinality();
    if (candidates > 0) {
      const std::vector<MaskedBsi> inputs = {{&x, &mask}, {&y, nullptr}};
      const std::vector<RefMaskedColumn> ref_inputs = {
          {&rx, &mask_positions}, {&ry, nullptr}};
      for (const double q : {0.1, 0.5, 0.95}) {
        EXPECT_EQ(QuantileOverInputs(inputs, q),
                  RefQuantileOverInputs(ref_inputs, q))
            << ctx << " QuantileOverInputs q=" << q;
      }
    }
    (void)my;
  }

  // Arithmetic on small-value columns: caps keep every intermediate far
  // below 64 bits (Bsi::Multiply is exact in slices while the scalar oracle
  // multiplies in uint64, so unbounded operands would diverge by design).
  const auto small_x = propgen::GenColumnPairs(
      rng, propgen::RandomArithmeticShape(rng), kUniverse, uint64_t{1} << 16);
  const auto small_y = propgen::GenColumnPairs(
      rng, propgen::RandomArithmeticShape(rng), kUniverse, uint64_t{1} << 16);
  const auto [sx, rsx] = BuildBoth(small_x);
  const auto [sy, rsy] = BuildBoth(small_y);
  ExpectColumnsEqual(Bsi::Add(sx, sy), RefColumn::Add(rsx, rsy),
                     ctx + " Add");
  ExpectColumnsEqual(Bsi::Subtract(sx, sy), RefColumn::Subtract(rsx, rsy),
                     ctx + " Subtract");
  ExpectColumnsEqual(Bsi::Multiply(sx, sy), RefColumn::Multiply(rsx, rsy),
                     ctx + " Multiply");
  ExpectColumnsEqual(Bsi::MultiplyByBinary(sx, mask),
                     RefColumn::MultiplyByBinary(rsx, mask_positions),
                     ctx + " MultiplyByBinary");
  const uint64_t scalar = rng.NextBounded(uint64_t{1} << 16);
  ExpectColumnsEqual(Bsi::AddScalar(sx, scalar),
                     RefColumn::AddScalar(rsx, scalar), ctx + " AddScalar");
  ExpectColumnsEqual(Bsi::MultiplyScalar(sx, scalar),
                     RefColumn::MultiplyScalar(rsx, scalar),
                     ctx + " MultiplyScalar");
  const int bits = static_cast<int>(rng.NextBounded(9));
  ExpectColumnsEqual(Bsi::ShiftLeft(sx, bits),
                     RefColumn::ShiftLeft(rsx, bits), ctx + " ShiftLeft");

  // List aggregates.
  ExpectColumnsEqual(MaxBsi(sx, sy),
                     [&] {
                       RefColumn out;
                       for (const auto& [pos, v] : rsx.values()) {
                         out.SetValue(pos, v);
                       }
                       for (const auto& [pos, v] : rsy.values()) {
                         out.SetValue(pos, std::max(out.Get(pos), v));
                       }
                       return out;
                     }(),
                     ctx + " MaxBsi");
  ExpectPositionsEqual(DistinctPos(sx, sy),
                       [&] {
                         RefPositions out;
                         for (const auto& [pos, v] : rsx.values()) {
                           out.push_back(pos);
                         }
                         RefPositions other = rsy.Existence();
                         RefPositions merged;
                         std::set_union(out.begin(), out.end(),
                                        other.begin(), other.end(),
                                        std::back_inserter(merged));
                         return merged;
                       }(),
                       ctx + " DistinctPos");

  // Multi-operand kernels: the CSA sum, the lazy union accumulator, and the
  // pairwise folds must all agree with a scalar fold over N inputs.
  {
    const int n = 2 + static_cast<int>(rng.NextBounded(7));  // 2..8 operands
    std::vector<Bsi> cols;
    std::vector<RefColumn> ref_cols;
    cols.reserve(n);
    ref_cols.reserve(n);
    for (int i = 0; i < n; ++i) {
      const auto pairs = propgen::GenColumnPairs(
          rng, propgen::RandomArithmeticShape(rng), kUniverse,
          uint64_t{1} << 16);
      auto [b, r] = BuildBoth(pairs);
      cols.push_back(std::move(b));
      ref_cols.push_back(std::move(r));
    }
    std::vector<const Bsi*> inputs;
    for (const Bsi& b : cols) inputs.push_back(&b);

    RefColumn ref_sum;
    for (const RefColumn& r : ref_cols) ref_sum = RefColumn::Add(ref_sum, r);
    ExpectColumnsEqual(SumBsi(inputs), ref_sum,
                       ctx + " SumBsi n=" + std::to_string(n));
    ExpectColumnsEqual(pairwise::SumBsi(inputs), ref_sum,
                       ctx + " pairwise::SumBsi n=" + std::to_string(n));

    // Weighted sum: weights up to 2^8 keep the total far below 64 bits.
    std::vector<WeightedBsi> weighted;
    RefColumn ref_weighted;
    for (int i = 0; i < n; ++i) {
      const uint64_t w = rng.NextBounded(1 + (uint64_t{1} << 8));  // 0 valid
      weighted.push_back({&cols[i], w});
      ref_weighted = RefColumn::Add(
          ref_weighted, RefColumn::MultiplyScalar(ref_cols[i], w));
    }
    ExpectColumnsEqual(WeightedSumBsi(weighted), ref_weighted,
                       ctx + " WeightedSumBsi");
    ExpectColumnsEqual(pairwise::WeightedSumBsi(weighted), ref_weighted,
                       ctx + " pairwise::WeightedSumBsi");

    RefPositions ref_union;
    for (const RefColumn& r : ref_cols) {
      const RefPositions e = r.Existence();
      RefPositions merged;
      std::set_union(ref_union.begin(), ref_union.end(), e.begin(), e.end(),
                     std::back_inserter(merged));
      ref_union = std::move(merged);
    }
    ExpectPositionsEqual(DistinctPos(inputs), ref_union,
                         ctx + " DistinctPos n=" + std::to_string(n));
    ExpectPositionsEqual(pairwise::DistinctPos(inputs), ref_union,
                         ctx + " pairwise::DistinctPos");
  }

  // Galloping intersect: skewed array-array workloads where one side is far
  // smaller than the other (the kGallopRatio dispatch), checked against
  // std::set_intersection in both argument orders.
  {
    std::vector<uint32_t> small_vals, large_vals;
    propgen::GenSkewedArrays(rng, /*chunk_base=*/1u << 16, &small_vals,
                             &large_vals);
    const RoaringBitmap small_bm = RoaringBitmap::FromSorted(small_vals);
    const RoaringBitmap large_bm = RoaringBitmap::FromSorted(large_vals);
    RefPositions want;
    std::set_intersection(small_vals.begin(), small_vals.end(),
                          large_vals.begin(), large_vals.end(),
                          std::back_inserter(want));
    ExpectPositionsEqual(RoaringBitmap::And(small_bm, large_bm), want,
                         ctx + " gallop And(small, large)");
    ExpectPositionsEqual(RoaringBitmap::And(large_bm, small_bm), want,
                         ctx + " gallop And(large, small)");
    EXPECT_EQ(RoaringBitmap::AndCardinality(small_bm, large_bm), want.size())
        << ctx << " gallop AndCardinality";
    EXPECT_EQ(RoaringBitmap::Intersects(small_bm, large_bm), !want.empty())
        << ctx << " gallop Intersects";
    EXPECT_EQ(RoaringBitmap::Intersects(large_bm, small_bm), !want.empty())
        << ctx << " gallop Intersects swapped";
  }
}

TEST(DifferentialTest, ColumnOpsMatchScalarOracle) {
  for (const uint64_t seed : SeedSchedule(/*base=*/0xC015EED, 120)) {
    RunColumnOpsIteration(seed);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Masked sums: every (mask container type x slice container type) pair.
// ---------------------------------------------------------------------------

// Container layouts the sweep steers masks and value slices into.
enum class Layout { kArray, kBitmap, kRun };

ContainerType TypeOf(Layout layout) {
  switch (layout) {
    case Layout::kArray:
      return ContainerType::kArray;
    case Layout::kBitmap:
      return ContainerType::kBitmap;
    case Layout::kRun:
      return ContainerType::kRun;
  }
  return ContainerType::kArray;
}

const char* LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kArray:
      return "array";
    case Layout::kBitmap:
      return "bitmap";
    case Layout::kRun:
      return "run";
  }
  return "?";
}

// Positions of 2^16 chunk `chunk` laid out for `layout`: up to 3,000
// scattered positions (array), 12,000+ scattered positions (bitmap) or a few
// long ranges (run, once run-optimized).
std::set<uint32_t> ChunkPositions(Rng& rng, Layout layout, uint32_t chunk) {
  const uint32_t base = chunk << 16;
  std::set<uint32_t> out;
  switch (layout) {
    case Layout::kArray: {
      const int n = 1 + static_cast<int>(rng.NextBounded(3000));
      for (int i = 0; i < n; ++i) {
        out.insert(base + static_cast<uint32_t>(rng.NextBounded(1u << 16)));
      }
      break;
    }
    case Layout::kBitmap: {
      const int n = 12000 + static_cast<int>(rng.NextBounded(20000));
      for (int i = 0; i < n; ++i) {
        out.insert(base + static_cast<uint32_t>(rng.NextBounded(1u << 16)));
      }
      break;
    }
    case Layout::kRun: {
      const int runs = 1 + static_cast<int>(rng.NextBounded(4));
      for (int r = 0; r < runs; ++r) {
        const uint32_t start =
            static_cast<uint32_t>(rng.NextBounded(60000));
        const uint32_t len = 100 + static_cast<uint32_t>(rng.NextBounded(5000));
        for (uint32_t i = start; i < std::min(start + len, 1u << 16); ++i) {
          out.insert(base + i);
        }
      }
      break;
    }
  }
  return out;
}

// A column over chunks 0, 1 and 3 whose slices take `layout`. Chunk 1 holds
// only values 1..3, so every slice above bit 1 lacks its key. Run layouts
// give each range one value, so each slice is a union of ranges.
std::vector<std::pair<uint32_t, uint64_t>> LayoutColumn(Rng& rng,
                                                        Layout layout) {
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  for (const uint32_t chunk : {0u, 1u, 3u}) {
    const uint64_t cap = chunk == 1 ? 3 : uint64_t{1} << 12;
    uint64_t run_value = 1 + rng.NextBounded(cap);
    uint32_t prev = 0;
    for (const uint32_t pos : ChunkPositions(rng, layout, chunk)) {
      if (layout != Layout::kRun) {
        pairs.emplace_back(pos, 1 + rng.NextBounded(cap));
        continue;
      }
      if (pos != prev + 1) run_value = 1 + rng.NextBounded(cap);
      pairs.emplace_back(pos, run_value);
      prev = pos;
    }
  }
  return pairs;
}

bool HasContainerType(const RoaringBitmap& b, ContainerType type) {
  for (int c = 0; c < b.NumContainers(); ++c) {
    if (b.ContainerAt(c).type() == type) return true;
  }
  return false;
}

void ExpectMaskedSum(const Bsi& x, const RefColumn& rx,
                     const std::vector<uint32_t>& mask_positions,
                     bool run_optimize, const std::string& ctx) {
  RoaringBitmap mask = RoaringBitmap::FromSorted(mask_positions);
  if (run_optimize) mask.RunOptimize();
  EXPECT_EQ(x.SumUnderMask(mask), rx.SumUnderMask(mask_positions)) << ctx;
}

void RunMaskedSumIteration(uint64_t seed, Layout mask_layout,
                           Layout slice_layout) {
  Rng rng(seed);
  const std::string ctx =
      Ctx(seed, std::string("masked sum mask=") + LayoutName(mask_layout) +
                    " slices=" + LayoutName(slice_layout));
  const auto pairs = LayoutColumn(rng, slice_layout);
  auto [x, rx] = BuildBoth(pairs);
  if (slice_layout == Layout::kRun) x.RunOptimize();
  bool slice_type_seen = false;
  for (int i = 0; i < x.num_slices(); ++i) {
    slice_type_seen |= HasContainerType(x.slice(i), TypeOf(slice_layout));
  }
  ASSERT_TRUE(slice_type_seen) << ctx;

  // A mask over at least two of chunks {0, 1, 2, 3, 5}: chunk 2 is absent
  // from every slice and chunk 5 lies beyond the last key of all of them.
  std::set<uint32_t> mask_set;
  std::vector<uint32_t> chunks;
  for (const uint32_t chunk : {0u, 1u, 2u, 3u, 5u}) {
    if (rng.NextBernoulli(0.6)) chunks.push_back(chunk);
  }
  for (const uint32_t chunk : {0u, 5u}) {
    if (chunks.size() < 2) chunks.push_back(chunk);
  }
  for (const uint32_t chunk : chunks) {
    const std::set<uint32_t> part = ChunkPositions(rng, mask_layout, chunk);
    mask_set.insert(part.begin(), part.end());
  }
  const std::vector<uint32_t> mask_positions(mask_set.begin(),
                                             mask_set.end());
  const bool run_mask = mask_layout == Layout::kRun;
  RoaringBitmap mask = RoaringBitmap::FromSorted(mask_positions);
  if (run_mask) mask.RunOptimize();
  ASSERT_TRUE(HasContainerType(mask, TypeOf(mask_layout))) << ctx;
  ExpectMaskedSum(x, rx, mask_positions, run_mask, ctx);

  // Degenerate masks: one present position, one absent position, the
  // column's own existence, empty; and an empty column under the mask.
  const uint32_t present =
      pairs[static_cast<size_t>(rng.NextBounded(pairs.size()))].first;
  ExpectMaskedSum(x, rx, {present}, false, ctx + " 1-value present");
  ExpectMaskedSum(x, rx, {(2u << 16) + 7}, false, ctx + " 1-value absent");
  ExpectMaskedSum(x, rx, rx.Existence(), run_mask, ctx + " existence");
  ExpectMaskedSum(x, rx, {}, false, ctx + " empty mask");
  ExpectMaskedSum(Bsi(), RefColumn(), mask_positions, run_mask,
                  ctx + " empty column");
}

// Seeded masks of every container type against slices of every container
// type, so each branch of the fused masked sum (bit-test against the mask's
// words, galloping and bitmap AndCardinality, chunks missing from a slice)
// faces the oracle. ColumnOpsMatchScalarOracle only builds array masks.
TEST(DifferentialTest, SumUnderMaskAcrossMaskAndSliceTypes) {
  for (const Layout mask_layout :
       {Layout::kArray, Layout::kBitmap, Layout::kRun}) {
    for (const Layout slice_layout :
         {Layout::kArray, Layout::kBitmap, Layout::kRun}) {
      const uint64_t base = 0x5A5Dull ^
                            (static_cast<uint64_t>(mask_layout) << 8) ^
                            static_cast<uint64_t>(slice_layout);
      for (const uint64_t seed : SeedSchedule(base, 4)) {
        RunMaskedSumIteration(seed, mask_layout, slice_layout);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Compare kernels: correlated workloads, swept over every (compare kernel,
// SIMD dispatch tier) combination the host supports.
// ---------------------------------------------------------------------------

// The compare kernels one leg of the sweep runs: the library's word path
// through the public Bsi API, or the pairwise folds.
struct CompareKernels {
  const char* name;
  RoaringBitmap (*compare)(const Bsi&, const Bsi&, CmpOp);
  RoaringBitmap (*range)(const Bsi&, RangeOp, uint64_t);
  RoaringBitmap (*between)(const Bsi&, uint64_t, uint64_t);
};

RoaringBitmap WordCompare(const Bsi& x, const Bsi& y, CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return Bsi::Lt(x, y);
    case CmpOp::kLe:
      return Bsi::Le(x, y);
    case CmpOp::kEq:
      return Bsi::Eq(x, y);
    case CmpOp::kNe:
      return Bsi::Ne(x, y);
  }
  return RoaringBitmap();
}

RoaringBitmap WordRange(const Bsi& x, RangeOp op, uint64_t k) {
  switch (op) {
    case RangeOp::kEq:
      return x.RangeEq(k);
    case RangeOp::kNe:
      return x.RangeNe(k);
    case RangeOp::kLt:
      return x.RangeLt(k);
    case RangeOp::kLe:
      return x.RangeLe(k);
    case RangeOp::kGt:
      return x.RangeGt(k);
    case RangeOp::kGe:
      return x.RangeGe(k);
  }
  return RoaringBitmap();
}

RoaringBitmap WordBetween(const Bsi& x, uint64_t lo, uint64_t hi) {
  return x.RangeBetween(lo, hi);
}

// Leg 0 is the word path, leg 1 the pairwise folds; the index seeds the leg.
constexpr CompareKernels kCompareLegs[] = {
    {"word", WordCompare, WordRange, WordBetween},
    {"pairwise", pairwise::Compare, pairwise::Range, pairwise::RangeBetween},
};

// One correlated-pair iteration: all six comparisons, boundary-constant
// range scans, and RangeBetween over boundary bound pairs. Planted equal /
// off-by-one / high-slice relationships make the eq/lt accumulator updates
// (Algorithms 1-3) load-bearing instead of vacuously empty.
void RunCompareIteration(uint64_t seed, const CompareKernels& k,
                         const std::string& label) {
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint64_t>> pairs_x, pairs_y;
  propgen::GenCorrelatedPairs(rng, kUniverse, uint64_t{1} << 20, &pairs_x,
                              &pairs_y);
  const auto [x, rx] = BuildBoth(pairs_x);
  const auto [y, ry] = BuildBoth(pairs_y);
  const std::string ctx = Ctx(seed, "compare[" + label + "]");

  ExpectPositionsEqual(k.compare(x, y, CmpOp::kLt), RefColumn::Lt(rx, ry),
                       ctx + " Lt");
  ExpectPositionsEqual(k.compare(x, y, CmpOp::kEq), RefColumn::Eq(rx, ry),
                       ctx + " Eq");
  ExpectPositionsEqual(k.compare(x, y, CmpOp::kNe), RefColumn::Ne(rx, ry),
                       ctx + " Ne");
  ExpectPositionsEqual(k.compare(x, y, CmpOp::kLe), RefColumn::Le(rx, ry),
                       ctx + " Le");
  // Gt / Ge are Lt / Le with the operands swapped (Bsi::Gt, Bsi::Ge).
  ExpectPositionsEqual(k.compare(y, x, CmpOp::kLt), RefColumn::Gt(rx, ry),
                       ctx + " Gt");
  ExpectPositionsEqual(k.compare(y, x, CmpOp::kLe), RefColumn::Ge(rx, ry),
                       ctx + " Ge");

  const std::vector<uint64_t> ks = propgen::GenBoundaryConstants(rng, pairs_x);
  for (const uint64_t c : ks) {
    const std::string kctx = ctx + " k=" + std::to_string(c);
    ExpectPositionsEqual(k.range(x, RangeOp::kEq, c), rx.RangeEq(c),
                         kctx + " RangeEq");
    ExpectPositionsEqual(k.range(x, RangeOp::kNe, c), rx.RangeNe(c),
                         kctx + " RangeNe");
    ExpectPositionsEqual(k.range(x, RangeOp::kLt, c), rx.RangeLt(c),
                         kctx + " RangeLt");
    ExpectPositionsEqual(k.range(x, RangeOp::kLe, c), rx.RangeLe(c),
                         kctx + " RangeLe");
    ExpectPositionsEqual(k.range(x, RangeOp::kGt, c), rx.RangeGt(c),
                         kctx + " RangeGt");
    ExpectPositionsEqual(k.range(x, RangeOp::kGe, c), rx.RangeGe(c),
                         kctx + " RangeGe");
  }
  for (size_t i = 0; i + 1 < ks.size(); i += 2) {
    const uint64_t lo = std::min(ks[i], ks[i + 1]);
    const uint64_t hi = std::max(ks[i], ks[i + 1]);
    ExpectPositionsEqual(k.between(x, lo, hi), rx.RangeBetween(lo, hi),
                         ctx + " RangeBetween [" + std::to_string(lo) + "," +
                             std::to_string(hi) + "]");
  }
}

// Per-day expose masks: ExposedOnOrBeforeEachDay(lo, hi)[d - lo] must equal
// ExposedOnOrBefore(d) for every day. The offsets fill a sparse chunk (<512
// positions, the probe path), an array chunk and a bitmap chunk (the word
// path), a range straddling the chunk 3/4 boundary and constant-offset
// ranges that run-optimize into run slices. Windows start before, at and
// after min_expose_date, include lo == hi, and reach past the top offset.
// Each day is also checked against the leg's own kLe range search on the
// offset BSI, so the pairwise leg pins the one-pass masks to Algorithm 1's
// scan as well.
void RunExposeDaysIteration(uint64_t seed, const CompareKernels& k,
                            const std::string& label) {
  Rng rng(seed);
  const std::string ctx = Ctx(seed, "expose days[" + label + "]");
  const uint64_t num_days = 1 + rng.NextBounded(12);
  std::map<uint32_t, uint64_t> offsets;
  const auto add = [&](uint32_t pos) {
    offsets[pos] = 1 + rng.NextBounded(num_days);
  };
  const auto scatter = [&](uint32_t chunk, int n) {
    for (int i = 0; i < n; ++i) {
      add((chunk << 16) + static_cast<uint32_t>(rng.NextBounded(1u << 16)));
    }
  };
  scatter(0, 1 + static_cast<int>(rng.NextBounded(500)));
  scatter(1, 600 + static_cast<int>(rng.NextBounded(3000)));
  scatter(2, 12000 + static_cast<int>(rng.NextBounded(20000)));
  const uint32_t straddle =
      (4u << 16) - 1 - static_cast<uint32_t>(rng.NextBounded(1500));
  for (uint32_t i = 0; i < 2000; ++i) add(straddle + i);
  for (int r = 0; r < 3; ++r) {
    const uint32_t start =
        (5u << 16) + static_cast<uint32_t>(rng.NextBounded(60000));
    const uint64_t v = 1 + rng.NextBounded(num_days);
    for (uint32_t i = 0; i < 800; ++i) offsets[start + i] = v;
  }
  ExposeBsi expose;
  expose.min_expose_date = 1000;
  expose.offset = Bsi::FromPairs({offsets.begin(), offsets.end()});
  if (rng.NextBernoulli(0.5)) expose.offset.RunOptimize();

  const Date min = expose.min_expose_date;
  const Date starts[] = {min - 1 - static_cast<Date>(rng.NextBounded(3)), min,
                         min + static_cast<Date>(rng.NextBounded(num_days))};
  for (const Date lo : starts) {
    for (const Date hi :
         {lo, lo + static_cast<Date>(rng.NextBounded(num_days + 20))}) {
      const std::vector<RoaringBitmap> each =
          expose.ExposedOnOrBeforeEachDay(lo, hi);
      ASSERT_EQ(each.size(), static_cast<size_t>(hi - lo) + 1) << ctx;
      for (Date d = lo; d <= hi; ++d) {
        EXPECT_EQ(each[d - lo].ToVector(),
                  expose.ExposedOnOrBefore(d).ToVector())
            << ctx << " window [" << lo << "," << hi << "] day " << d;
        const RoaringBitmap want =
            d < min ? RoaringBitmap()
                    : k.range(expose.offset, RangeOp::kLe,
                              static_cast<uint64_t>(d - min) + 1);
        EXPECT_EQ(each[d - lo].ToVector(), want.ToVector())
            << ctx << " window [" << lo << "," << hi << "] day " << d
            << " vs " << k.name << " RangeLe";
      }
    }
  }
}

// Forces each dispatch tier the host supports (portable always runs; AVX2 /
// AVX-512 only where detected -- CI hosts without them skip those legs) and
// runs both compare legs on it, so the word path, the pairwise folds, and
// every SIMD variant all face the same oracle.
TEST(DifferentialTest, CompareKernelsAcrossKernelAndSimdTiers) {
  const SimdTier saved_tier = ActiveSimdTier();
  const int max_tier = static_cast<int>(DetectedSimdTier());
  for (int t = 0; t <= max_tier; ++t) {
    const SimdTier tier = static_cast<SimdTier>(t);
    SetSimdTierForTesting(tier);
    for (uint64_t leg = 0; leg < std::size(kCompareLegs); ++leg) {
      const CompareKernels& kernels = kCompareLegs[leg];
      const std::string label =
          std::string(SimdTierName(tier)) + "/" + kernels.name;
      // Distinct bases per combination: each leg explores its own seeds on
      // top of the shared corpus replay.
      const uint64_t base =
          0xC04Bull ^ (static_cast<uint64_t>(t) << 8) ^ leg;
      for (const uint64_t seed : SeedSchedule(base, 12)) {
        RunCompareIteration(seed, kernels, label);
        RunExposeDaysIteration(seed, kernels, label);
        if (HasFatalFailure()) {
          SetSimdTierForTesting(saved_tier);
          return;
        }
      }
    }
  }
  SetSimdTierForTesting(saved_tier);
}

// ---------------------------------------------------------------------------
// Engines: scorecard / deep-dive / pre-experiment vs the scalar reference.
// ---------------------------------------------------------------------------

void RunEngineIteration(uint64_t seed) {
  Rng rng(seed);
  const FuzzDataset fd = propgen::GenDataset(rng);
  const Dataset& dataset = fd.dataset;
  const ExperimentBsiData bsi =
      BuildExperimentBsiData(dataset, fd.engagement_ordered);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = dataset.config.start_date;
  const Date hi = lo + dataset.config.num_days - 1;
  const std::string ctx = Ctx(seed, "engines");

  const uint64_t control = propgen::kFuzzControlStrategy;
  const uint64_t treatment = propgen::kFuzzTreatmentStrategy;

  // A seeded sub-range [a, b] of the cached window, drawn from its own
  // stream so the draws below stay those of the seed.
  Rng range_rng(seed ^ 0x5AB2A4CEull);
  const Date a = lo + static_cast<Date>(range_rng.NextBounded(hi - lo + 1));
  const Date b = a + static_cast<Date>(range_rng.NextBounded(hi - a + 1));

  // Scorecard kernels: exact.
  for (const uint64_t strategy : {control, treatment}) {
    const std::string sctx = ctx + " strategy=" + std::to_string(strategy);
    const BucketValues got = ComputeStrategyMetricBsi(
        bsi, strategy, propgen::kFuzzMetricA, lo, hi);
    ExpectBucketsBitEqual(
        got,
        RefComputeStrategyMetric(ref, strategy, propgen::kFuzzMetricA, lo,
                                 hi),
        sctx + " metric");
    const ExposeMaskCache cache =
        ExposeMaskCache::Build(bsi, strategy, lo, hi);
    ExpectBucketsBitEqual(ComputeStrategyMetricBsiCached(
                              bsi, cache, propgen::kFuzzMetricA, lo, hi),
                          got, sctx + " cached");
    // A cache over [lo, hi] serving a narrower range: the precompute batch's
    // shape, in both bucket modes.
    ExpectBucketsBitEqual(
        ComputeStrategyMetricBsiCached(bsi, cache, propgen::kFuzzMetricA, a,
                                       b),
        RefComputeStrategyMetric(ref, strategy, propgen::kFuzzMetricA, a, b),
        sctx + " cached [" + std::to_string(a) + "," + std::to_string(b) +
            "]");
    ExpectBucketsBitEqual(
        ComputeStrategyRatioMetricBsi(bsi, strategy, propgen::kFuzzMetricA,
                                      propgen::kFuzzMetricB, lo, hi),
        RefComputeStrategyRatioMetric(ref, strategy, propgen::kFuzzMetricA,
                                      propgen::kFuzzMetricB, lo, hi),
        sctx + " ratio");
    ExpectBucketsBitEqual(
        ComputeStrategyUniqueVisitorsBsi(bsi, strategy,
                                         propgen::kFuzzMetricA, lo, hi),
        RefComputeStrategyUniqueVisitors(ref, strategy,
                                         propgen::kFuzzMetricA, lo, hi),
        sctx + " uv");
  }

  // Deep dive: dimension-filtered kernels (exact) and breakdowns (stats to
  // tolerance). Session datasets carry no dimension logs; the filter then
  // rejects every unit, identically in both engines.
  {
    std::vector<DimensionPredicate> preds;
    preds.push_back({propgen::kFuzzDimension,
                     DimensionPredicate::Op::kLe,
                     1 + rng.NextBounded(4)});
    if (rng.NextBernoulli(0.5)) {
      preds.push_back({propgen::kFuzzDimension2,
                       DimensionPredicate::Op::kNe,
                       1 + rng.NextBounded(3)});
    }
    if (rng.NextBernoulli(0.5)) {
      // A lower bound on the same dimension as the kLe above: the deep-dive
      // engine fuses the pair into one RangeBetween scan (possibly an
      // inverted, empty interval), the oracle applies them one by one.
      preds.push_back({propgen::kFuzzDimension,
                       rng.NextBernoulli(0.5) ? DimensionPredicate::Op::kGe
                                              : DimensionPredicate::Op::kGt,
                       1 + rng.NextBounded(4)});
    }
    const Date dim_date = lo + static_cast<Date>(
                                   rng.NextBounded(dataset.config.num_days));
    ExpectBucketsBitEqual(
        ComputeStrategyMetricBsiFiltered(bsi, treatment,
                                         propgen::kFuzzMetricA, lo, hi,
                                         preds, dim_date),
        RefComputeStrategyMetricFiltered(ref, treatment,
                                         propgen::kFuzzMetricA, lo, hi,
                                         preds, dim_date),
        ctx + " filtered");

    const std::vector<uint64_t> dim_values = {1, 2, 3};
    const auto got_dim = ComputeDimensionBreakdown(
        bsi, control, treatment, propgen::kFuzzMetricA, lo, hi,
        propgen::kFuzzDimension, dim_values, dim_date);
    const auto want_dim = RefComputeDimensionBreakdown(
        ref, control, treatment, propgen::kFuzzMetricA, lo, hi,
        propgen::kFuzzDimension, dim_values, dim_date);
    ASSERT_EQ(got_dim.size(), want_dim.size()) << ctx;
    for (size_t i = 0; i < got_dim.size(); ++i) {
      EXPECT_EQ(got_dim[i].dimension_value, want_dim[i].dimension_value)
          << ctx;
      ExpectEntriesClose(got_dim[i].entry, want_dim[i].entry,
                         ctx + " dim breakdown " + std::to_string(i));
    }
  }
  {
    const auto got_daily = ComputeDailyBreakdown(
        bsi, control, treatment, propgen::kFuzzMetricA, lo, hi);
    const auto want_daily = RefComputeDailyBreakdown(
        ref, control, treatment, propgen::kFuzzMetricA, lo, hi);
    ASSERT_EQ(got_daily.size(), want_daily.size()) << ctx;
    for (size_t i = 0; i < got_daily.size(); ++i) {
      ExpectEntriesClose(got_daily[i], want_daily[i],
                         ctx + " daily " + std::to_string(i));
    }
  }

  // Full scorecard (stats to tolerance).
  {
    const std::vector<uint64_t> metric_ids = {propgen::kFuzzMetricA,
                                              propgen::kFuzzMetricB};
    const auto got = ComputeScorecard(bsi, control, {treatment}, metric_ids,
                                      lo, hi);
    const auto want = RefComputeScorecard(ref, control, {treatment},
                                          metric_ids, lo, hi);
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectEntriesClose(got[i], want[i],
                         ctx + " scorecard " + std::to_string(i));
    }

    const auto got_cov = ComputeMetricCovarianceMatrix(bsi, treatment,
                                                       metric_ids, lo, hi);
    const auto want_cov = RefComputeMetricCovarianceMatrix(
        ref, treatment, metric_ids, lo, hi);
    ASSERT_EQ(got_cov.size(), want_cov.size()) << ctx;
    for (size_t i = 0; i < got_cov.size(); ++i) {
      ASSERT_EQ(got_cov[i].size(), want_cov[i].size()) << ctx;
      for (size_t j = 0; j < got_cov[i].size(); ++j) {
        ExpectClose(got_cov[i][j], want_cov[i][j],
                    ctx + " cov[" + std::to_string(i) + "][" +
                        std::to_string(j) + "]");
      }
    }
  }

  // Pre-experiment + CUPED: the experiment "starts" mid-range, the lookback
  // covers the days before it, and the pre-agg tree must agree exactly with
  // both the linear fold and the oracle.
  {
    const Date expt_start = lo + dataset.config.num_days / 2;
    const int lookback = static_cast<int>(expt_start - lo);
    const BucketValues pre = ComputePreExperimentBsi(
        bsi, treatment, propgen::kFuzzMetricB, expt_start, lookback, hi);
    ExpectBucketsBitEqual(pre,
                          RefComputePreExperiment(ref, treatment,
                                                  propgen::kFuzzMetricB,
                                                  expt_start, lookback, hi),
                          ctx + " pre-experiment");
    const PreAggIndex index =
        BuildPreAggIndex(bsi, propgen::kFuzzMetricB, lo, hi);
    ExpectBucketsBitEqual(
        ComputePreExperimentWithTree(bsi, index, treatment, expt_start,
                                     lookback, hi),
        pre, ctx + " pre-agg tree");

    const BucketValues ty = ComputeStrategyMetricBsi(
        bsi, treatment, propgen::kFuzzMetricB, expt_start, hi);
    const BucketValues cy = ComputeStrategyMetricBsi(
        bsi, control, propgen::kFuzzMetricB, expt_start, hi);
    const BucketValues tx = pre;
    const BucketValues cx = ComputePreExperimentBsi(
        bsi, control, propgen::kFuzzMetricB, expt_start, lookback, hi);
    const CupedScorecardEntry got = CompareWithCuped(
        propgen::kFuzzMetricB, treatment, ty, tx, control, cy, cx);
    ExpectEntriesClose(got.raw,
                       RefCompareStrategies(propgen::kFuzzMetricB, treatment,
                                            ty, control, cy),
                       ctx + " cuped raw");
    const double theta = RefPooledCupedTheta({&ty, &cy}, {&tx, &cx});
    ExpectClose(got.theta, theta, ctx + " theta");
    const CupedResult t_adj = RefApplyCuped(ty, tx, theta);
    const CupedResult c_adj = RefApplyCuped(cy, cx, theta);
    ExpectEstimatesClose(got.treatment_adjusted, t_adj.adjusted,
                         ctx + " treatment_adjusted");
    ExpectEstimatesClose(got.control_adjusted, c_adj.adjusted,
                         ctx + " control_adjusted");
    ExpectClose(got.treatment_variance_reduction, t_adj.variance_reduction,
                ctx + " t var reduction");
    ExpectClose(got.control_variance_reduction, c_adj.variance_reduction,
                ctx + " c var reduction");
    ExpectTTestsClose(
        got.adjusted_ttest,
        RefWelchTTest(t_adj.adjusted.mean, t_adj.adjusted.var_of_mean,
                      t_adj.adjusted.df, c_adj.adjusted.mean,
                      c_adj.adjusted.var_of_mean, c_adj.adjusted.df),
        ctx + " adjusted ttest");
  }
}

TEST(DifferentialTest, EnginesMatchScalarOracle) {
  for (const uint64_t seed : SeedSchedule(/*base=*/0xE46133ull, 80)) {
    RunEngineIteration(seed);
    if (HasFatalFailure()) return;
  }
}

// The precompute batch's shape, which GenDataset (<= 300 users, <= 12
// buckets) never draws: the paper's 1,024 buckets over one segment wider
// than a 2^16 chunk, so the bucket scatter crosses a chunk boundary with
// bitmap-dense masks and slices.
TEST(DifferentialTest, WideSegmentAt1024BucketsMatchesScalarOracle) {
  DatasetConfig config;
  config.num_users = 70000;
  config.num_segments = 1;
  config.bucket_equals_segment = false;
  config.num_buckets = 1024;
  config.num_days = 3;
  config.seed = 0x1024B;
  ExperimentConfig experiment;
  experiment.strategy_ids = {propgen::kFuzzControlStrategy,
                             propgen::kFuzzTreatmentStrategy};
  experiment.arm_effects = {1.0, 1.1};
  MetricConfig metric;
  metric.metric_id = propgen::kFuzzMetricA;
  metric.value_range = 1000;
  metric.daily_participation = 0.6;
  const Dataset dataset = GenerateDataset(config, {experiment}, {metric}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  const Date lo = config.start_date;
  const Date hi = lo + config.num_days - 1;
  for (const uint64_t strategy :
       {propgen::kFuzzControlStrategy, propgen::kFuzzTreatmentStrategy}) {
    const ExposeBsi* expose = bsi.segments[0].FindExpose(strategy);
    ASSERT_NE(expose, nullptr);
    ASSERT_GT(expose->bucket.existence().Maximum(), 65535u);
    const std::string ctx = "strategy=" + std::to_string(strategy);
    const BucketValues want =
        RefComputeStrategyMetric(ref, strategy, propgen::kFuzzMetricA, lo, hi);
    ExpectBucketsBitEqual(ComputeStrategyMetricBsi(bsi, strategy,
                                                   propgen::kFuzzMetricA, lo,
                                                   hi),
                          want, ctx);
    ExpectBucketsBitEqual(
        ComputeStrategyMetricBsiCached(
            bsi, ExposeMaskCache::Build(bsi, strategy, lo, hi),
            propgen::kFuzzMetricA, lo, hi),
        want, ctx + " cached");
  }
}

// ---------------------------------------------------------------------------
// Ad-hoc EQL queries: RunQuery vs RefRunQuery, including error parity.
// ---------------------------------------------------------------------------

void RunQueryIteration(uint64_t seed) {
  Rng rng(seed);
  const FuzzDataset fd = propgen::GenDataset(rng);
  const ExperimentBsiData bsi =
      BuildExperimentBsiData(fd.dataset, fd.engagement_ordered);
  const RefExperimentData ref = BuildRefExperimentData(fd.dataset);

  for (int i = 0; i < 5; ++i) {
    const std::string text = propgen::GenQuery(rng, fd.dataset);
    const std::string ctx = Ctx(seed, "query [" + text + "]");
    const Result<QueryResult> got = RunQuery(bsi, text);
    const Result<QueryResult> want = RefRunQuery(ref, text);
    ASSERT_EQ(got.ok(), want.ok())
        << ctx << "\n  bsi status: " << got.status().ToString()
        << "\n  ref status: " << want.status().ToString();
    if (!got.ok()) {
      // Same validation rule must fire with the same message.
      EXPECT_EQ(got.status().message(), want.status().message()) << ctx;
      continue;
    }
    const QueryResult& g = got.value();
    const QueryResult& w = want.value();
    EXPECT_EQ(g.columns, w.columns) << ctx;
    EXPECT_EQ(g.row, w.row) << ctx;  // exact: same fold order
    EXPECT_EQ(g.per_bucket, w.per_bucket) << ctx;
  }
}

TEST(DifferentialTest, QueriesMatchScalarOracle) {
  for (const uint64_t seed : SeedSchedule(/*base=*/0x5ca1ab1eull, 120)) {
    RunQueryIteration(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace expbsi
