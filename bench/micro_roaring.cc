// Microbenchmarks for the Roaring bitmap substrate (§2.1): the claim that
// operation speed tracks data density -- dense (compact-position) bitmaps
// run word-at-a-time, sparse ones element-at-a-time.

#include <set>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "roaring/container.h"
#include "roaring/roaring_bitmap.h"

namespace expbsi {
namespace {

RoaringBitmap MakeBitmap(uint64_t seed, uint32_t universe, double density) {
  Rng rng(seed);
  std::vector<uint32_t> values;
  values.reserve(static_cast<size_t>(universe * density));
  for (uint32_t v = 0; v < universe; ++v) {
    if (rng.NextBernoulli(density)) values.push_back(v);
  }
  return RoaringBitmap::FromSorted(values);
}

void BM_RoaringAnd(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  RoaringBitmap a = MakeBitmap(1, 1 << 22, density);
  RoaringBitmap b = MakeBitmap(2, 1 << 22, density);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::And(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.Cardinality()));
}
BENCHMARK(BM_RoaringAnd)->Arg(1)->Arg(50)->Arg(500);

void BM_RoaringOr(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  RoaringBitmap a = MakeBitmap(1, 1 << 22, density);
  RoaringBitmap b = MakeBitmap(2, 1 << 22, density);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::Or(a, b));
  }
}
BENCHMARK(BM_RoaringOr)->Arg(1)->Arg(50)->Arg(500);

void BM_RoaringXor(benchmark::State& state) {
  RoaringBitmap a = MakeBitmap(1, 1 << 22, 0.3);
  RoaringBitmap b = MakeBitmap(2, 1 << 22, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::Xor(a, b));
  }
}
BENCHMARK(BM_RoaringXor);

void BM_RoaringAndNot(benchmark::State& state) {
  RoaringBitmap a = MakeBitmap(1, 1 << 22, 0.3);
  RoaringBitmap b = MakeBitmap(2, 1 << 22, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::AndNot(a, b));
  }
}
BENCHMARK(BM_RoaringAndNot);

void BM_RoaringAndCardinality(benchmark::State& state) {
  RoaringBitmap a = MakeBitmap(1, 1 << 22, 0.3);
  RoaringBitmap b = MakeBitmap(2, 1 << 22, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::AndCardinality(a, b));
  }
}
BENCHMARK(BM_RoaringAndCardinality);

void BM_RoaringContains(benchmark::State& state) {
  RoaringBitmap a = MakeBitmap(1, 1 << 22, 0.1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        a.Contains(static_cast<uint32_t>(rng.NextBounded(1 << 22))));
  }
}
BENCHMARK(BM_RoaringContains);

void BM_RoaringFromSorted(benchmark::State& state) {
  Rng rng(4);
  std::vector<uint32_t> values;
  for (uint32_t v = 0; v < (1 << 20); ++v) {
    if (rng.NextBernoulli(0.2)) values.push_back(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::FromSorted(values));
  }
}
BENCHMARK(BM_RoaringFromSorted);

void BM_RoaringRunOptimizedAnd(benchmark::State& state) {
  // Dense prefix (engagement-ordered layout) in run form.
  RoaringBitmap a;
  a.AddRange(0, 1 << 20);
  RoaringBitmap b = MakeBitmap(5, 1 << 21, 0.4);
  a.RunOptimize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoaringBitmap::And(a, b));
  }
}
BENCHMARK(BM_RoaringRunOptimizedAnd);

// The ingest delta merge's container step: a 64-position delta ORed into
// one slice container of a day's BSI, Arg(0) an array receiver of ~1,400
// values (the backward in-place merge), Arg(1) a bitmap receiver (set and
// count only the delta's bits). Every iteration ORs into a fresh copy of
// the receiver so each one sees the same shapes; the copy is a memcpy of
// the receiver's payload and is part of the timing.
void BM_ContainerOrInPlaceSmallDelta(benchmark::State& state) {
  Rng rng(7);
  const int receiver_values = state.range(0) == 0 ? 1400 : 20000;
  std::set<uint16_t> receiver_set;
  while (static_cast<int>(receiver_set.size()) < receiver_values) {
    receiver_set.insert(static_cast<uint16_t>(rng.NextBounded(65536)));
  }
  std::set<uint16_t> delta_set;
  while (delta_set.size() < 64) {
    const auto v = static_cast<uint16_t>(rng.NextBounded(65536));
    if (receiver_set.count(v) == 0) delta_set.insert(v);
  }
  const std::vector<uint16_t> receiver_values_sorted(receiver_set.begin(),
                                                     receiver_set.end());
  const std::vector<uint16_t> delta_values(delta_set.begin(),
                                           delta_set.end());
  const Container receiver = Container::FromSorted(
      receiver_values_sorted.data(),
      static_cast<int>(receiver_values_sorted.size()));
  const Container delta = Container::FromSorted(
      delta_values.data(), static_cast<int>(delta_values.size()));
  for (auto _ : state) {
    Container c = receiver;
    c.OrInPlaceWith(delta);
    benchmark::DoNotOptimize(c.Cardinality());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ContainerOrInPlaceSmallDelta)->Arg(0)->Arg(1);

}  // namespace
}  // namespace expbsi

BENCHMARK_MAIN();
