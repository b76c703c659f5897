#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the perfbench program: run arguments, the result every
// workload fills in, sample statistics, process resource probes and the
// in-memory span recorder the traced runs use.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bsi/bsi.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout (WAL / snapshot files, traces).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `metrics` holds the end-to-end metrics
// (untraced runs) or the per-layer metrics (traced runs); `info` carries
// context lines (sample counts, flush policy, ...) printed before the
// result line.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Info(const std::string& key, double value);
  // Records a failed correctness gate: counts one failed op and marks the
  // run incorrect.
  void Fail(const std::string& what);
};

// --- sample statistics -----------------------------------------------------

// Nearest-rank quantile of `samples` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
// The run's tail latency: p99 when at least ten samples lie beyond it
// (n >= 1000); otherwise the largest sample, which is the highest order
// statistic the run has.
double Tail(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);
// Mean of the samples at or below the q-quantile: the mean without the
// tail beyond it.
double MeanBelow(std::vector<double> samples, double q);

// --- process probes --------------------------------------------------------

uint64_t NowNs();                // steady clock
double ProcessCpuSeconds();      // user + system, all threads
double PeakRssMb();              // ru_maxrss
uint64_t DirBytes(const std::string& dir);  // sum of regular file sizes
bool ResetDir(const std::string& dir);      // rm -rf + mkdir -p
void RemoveTree(const std::string& dir);
// fsyncs every regular file under `dir`, so no writeback of them is left
// to overlap what is timed next.
void SyncTree(const std::string& dir);

// --- spans -----------------------------------------------------------------

// In-memory span store of a traced run. Spans are recorded from the
// benchmark's own code around calls into the library; each has a name,
// start/end, its parent span and the id of the operation it belongs to.
// Thread-safe; the parent is the innermost open span of the same thread.
class SpanRecorder {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    uint64_t op = 0;
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  static SpanRecorder& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Spans the calling thread opens after this belong to operation `op`.
  static void BeginOp(uint64_t op);

  uint32_t Open(const char* name);
  void Close(uint32_t id);

  // Per name: summed self time (duration minus the part covered by child
  // spans) in ns and the number of spans.
  struct SelfTime {
    double total_ns = 0.0;
    uint64_t count = 0;
    double mean_us() const {
      return count == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(count);
    }
  };
  SelfTime Self(const std::string& name) const;
  // Summed duration and count of spans named `name`.
  SelfTime Total(const std::string& name) const;

  // Writes every span as JSON lines; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(SpanRecorder::Global().enabled() ? SpanRecorder::Global().Open(name)
                                             : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) SpanRecorder::Global().Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t id_;
};

// Runs `fn` inside a span named `name` and returns its wall time in ns
// (measured whether or not the recorder is enabled).
template <typename Fn>
uint64_t TimedSpan(const char* name, Fn&& fn) {
  ScopedSpan span(name);
  const uint64_t start = NowNs();
  fn();
  return NowNs() - start;
}

// --- workloads -------------------------------------------------------------

// Untraced runs: the workload's end-to-end metrics.
Outcome RunFleet(const Args& args);
Outcome RunPrecompute(const Args& args);
Outcome RunIngest(const Args& args);

// Traced replays: per-layer metrics of one workload's layers, each timed
// around the public library call from benchmark code. `home` is true when
// the replayed workload is the run's own, which adds the one-operation
// breakdown (obs.op_ms / obs.covered_ms / obs.uncovered_ms) and the
// roaring container shares of the slices it reads.
void ReplayFleet(const Args& args, bool home, Outcome* out);
void ReplayPrecompute(const Args& args, bool home, Outcome* out);
void ReplayIngest(const Args& args, bool home, Outcome* out);

// Container mix of a set of bitmaps, for the roaring.*_share metrics.
struct ContainerMix {
  uint64_t array = 0;
  uint64_t bitmap = 0;
  uint64_t run = 0;
  void AddSlices(const expbsi::Bsi& bsi);
  void Report(Outcome* out) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
