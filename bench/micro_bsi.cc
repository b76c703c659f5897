// Microbenchmarks for BSI arithmetic (§2.3, §4.1): cost of the slice-wise
// operations that the scorecard pipeline composes, as a function of value
// range (slice count) and density.

#include <benchmark/benchmark.h>

#include "bsi/bsi.h"
#include "bsi/bsi_group_by.h"
#include "common/rng.h"
#include "expdata/bsi_builder.h"

namespace expbsi {
namespace {

Bsi MakeBsi(uint64_t seed, uint32_t universe, double density,
            uint64_t max_value) {
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  for (uint32_t pos = 0; pos < universe; ++pos) {
    if (rng.NextBernoulli(density)) {
      pairs.emplace_back(pos, 1 + rng.NextBounded(max_value));
    }
  }
  return Bsi::FromPairs(std::move(pairs));
}

// Value range drives the slice count, which the paper's complexity analysis
// says addition scales with.
void BM_BsiAdd(benchmark::State& state) {
  const uint64_t max_value = static_cast<uint64_t>(state.range(0));
  Bsi x = MakeBsi(1, 1 << 20, 0.4, max_value);
  Bsi y = MakeBsi(2, 1 << 20, 0.4, max_value);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bsi::Add(x, y));
  }
}
BENCHMARK(BM_BsiAdd)->Arg(1)->Arg(50)->Arg(21600)->Arg(100000000);

void BM_BsiMultiplyByBinary(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 20, 0.4, 21600);
  RoaringBitmap mask = MakeBsi(2, 1 << 20, 0.5, 1).existence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bsi::MultiplyByBinary(x, mask));
  }
}
BENCHMARK(BM_BsiMultiplyByBinary);

void BM_BsiSumUnderMask(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 20, 0.4, 21600);
  RoaringBitmap mask = MakeBsi(2, 1 << 20, 0.5, 1).existence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.SumUnderMask(mask));
  }
}
BENCHMARK(BM_BsiSumUnderMask);

// The fleet's serving shape: one 2,500-position segment, 15 array slices
// (values up to 21600) and an ~830-value array exposure mask.
void BM_BsiSumUnderMaskServing(benchmark::State& state) {
  Bsi x = MakeBsi(1, 2500, 1.0, 21600);
  RoaringBitmap mask = MakeBsi(2, 2500, 1.0 / 3, 1).existence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.SumUnderMask(mask));
  }
}
BENCHMARK(BM_BsiSumUnderMaskServing);

// The precompute shape: one bucket's ~9-value mask over a 32,768-position
// segment whose slices are bitmaps.
void BM_BsiSumUnderMaskBucket(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 15, 0.9, 21600);
  RoaringBitmap mask = MakeBsi(2, 1 << 15, 9.0 / (1 << 15), 1).existence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.SumUnderMask(mask));
  }
}
BENCHMARK(BM_BsiSumUnderMaskBucket);

// A week of per-day exposure masks over the serving shape: ~830 exposed
// positions of a 2,500-position segment, first exposed on days 1..7.
ExposeBsi MakeWeekExpose() {
  ExposeBsi expose;
  expose.min_expose_date = 100;
  expose.offset = MakeBsi(3, 2500, 1.0 / 3, 7);
  return expose;
}

void BM_ExposedOnOrBeforeEachDay(benchmark::State& state) {
  const ExposeBsi expose = MakeWeekExpose();
  for (auto _ : state) {
    benchmark::DoNotOptimize(expose.ExposedOnOrBeforeEachDay(100, 106));
  }
}
BENCHMARK(BM_ExposedOnOrBeforeEachDay);

// The same seven masks from seven single-day range searches.
void BM_ExposedOnOrBeforePerDay(benchmark::State& state) {
  const ExposeBsi expose = MakeWeekExpose();
  for (auto _ : state) {
    for (Date d = 100; d <= 106; ++d) {
      benchmark::DoNotOptimize(expose.ExposedOnOrBefore(d));
    }
  }
}
BENCHMARK(BM_ExposedOnOrBeforePerDay);

void BM_BsiRangeLe(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 20, 0.4, 21600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.RangeLe(5000));
  }
}
BENCHMARK(BM_BsiRangeLe);

void BM_BsiCompareLt(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 19, 0.4, 21600);
  Bsi y = MakeBsi(2, 1 << 19, 0.4, 21600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bsi::Lt(x, y));
  }
}
BENCHMARK(BM_BsiCompareLt);

void BM_BsiEq(benchmark::State& state) {
  // Small value range so Eq has real hits (equal draws are likely).
  Bsi x = MakeBsi(1, 1 << 19, 0.4, 50);
  Bsi y = MakeBsi(2, 1 << 19, 0.4, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bsi::Eq(x, y));
  }
}
BENCHMARK(BM_BsiEq);

void BM_BsiNe(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 19, 0.4, 21600);
  Bsi y = MakeBsi(2, 1 << 19, 0.4, 21600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bsi::Ne(x, y));
  }
}
BENCHMARK(BM_BsiNe);

void BM_BsiRangeBetween(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 20, 0.4, 21600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.RangeBetween(5000, 15000));
  }
}
BENCHMARK(BM_BsiRangeBetween);

void BM_BsiMinMax(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 20, 0.4, 21600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.MinValue());
    benchmark::DoNotOptimize(x.MaxValue());
  }
}
BENCHMARK(BM_BsiMinMax);

void BM_BsiSum(benchmark::State& state) {
  Bsi x = MakeBsi(1, 1 << 20, 0.4, 21600);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.Sum());
  }
}
BENCHMARK(BM_BsiSum);

void BM_BsiGroupSumByBucket(benchmark::State& state) {
  const int buckets = static_cast<int>(state.range(0));
  Bsi value = MakeBsi(1, 1 << 18, 0.4, 1000);
  Rng rng(9);
  std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
  for (uint32_t pos = 0; pos < (1 << 18); ++pos) {
    bucket_pairs.emplace_back(pos, 1 + rng.NextBounded(buckets));
  }
  Bsi bucket = Bsi::FromPairs(std::move(bucket_pairs));
  RoaringBitmap universe;
  universe.AddRange(0, 1 << 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GroupSumByBucket(value, bucket, buckets, universe));
  }
}
BENCHMARK(BM_BsiGroupSumByBucket)->Arg(16)->Arg(1024);

// One (day, segment) call of the precompute batch (perfbench's
// precompute_1024b): a 32,768-position segment over 1,024 uniform buckets,
// a ~9,000-position day mask and 10-slice values.
struct PrecomputeShape {
  static constexpr int kBuckets = 1024;
  Bsi value;
  Bsi bucket;
  RoaringBitmap mask;

  PrecomputeShape() {
    constexpr uint32_t kPositions = 32768;
    value = MakeBsi(1, kPositions, 0.6, 1023);
    Rng rng(11);
    std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
    for (uint32_t pos = 0; pos < kPositions; ++pos) {
      bucket_pairs.emplace_back(pos, 1 + rng.NextBounded(kBuckets));
      if (rng.NextBernoulli(9000.0 / kPositions)) mask.Add(pos);
    }
    bucket = Bsi::FromPairs(std::move(bucket_pairs));
  }
};

void BM_BsiGroupSumPrecomputeShape(benchmark::State& state) {
  const PrecomputeShape s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GroupSumByBucket(s.value, s.bucket, PrecomputeShape::kBuckets, s.mask));
  }
}
BENCHMARK(BM_BsiGroupSumPrecomputeShape);

void BM_BsiGroupCountPrecomputeShape(benchmark::State& state) {
  const PrecomputeShape s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GroupCountByBucket(s.bucket, PrecomputeShape::kBuckets, s.mask));
  }
}
BENCHMARK(BM_BsiGroupCountPrecomputeShape);

void BM_BsiFromPairs(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  for (uint32_t pos = 0; pos < (1 << 20); ++pos) {
    if (rng.NextBernoulli(0.3)) {
      pairs.emplace_back(pos, 1 + rng.NextBounded(21600));
    }
  }
  for (auto _ : state) {
    auto copy = pairs;
    benchmark::DoNotOptimize(Bsi::FromPairs(std::move(copy)));
  }
}
BENCHMARK(BM_BsiFromPairs);

}  // namespace
}  // namespace expbsi

BENCHMARK_MAIN();
