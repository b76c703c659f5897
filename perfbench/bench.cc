#include "bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace perfbench {

void Outcome::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  info.emplace_back(key, buf);
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Tail(const std::vector<double>& samples) {
  if (samples.size() >= 1000) return Quantile(samples, 0.99);
  if (samples.empty()) return 0.0;
  return *std::max_element(samples.begin(), samples.end());
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

double MeanBelow(std::vector<double> samples, double q) {
  const double cut = Quantile(samples, q);
  samples.erase(std::remove_if(samples.begin(), samples.end(),
                               [cut](double s) { return s > cut; }),
                samples.end());
  return Mean(samples);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

bool ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return std::filesystem::create_directories(dir, ec) && !ec;
}

void SyncTree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// --- spans -----------------------------------------------------------------

namespace {
thread_local std::vector<uint32_t> tls_stack;
thread_local uint64_t tls_op = 0;
}  // namespace

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::BeginOp(uint64_t op) { tls_op = op; }

uint32_t SpanRecorder::Open(const char* name) {
  Span span;
  span.parent = tls_stack.empty() ? 0 : tls_stack.back();
  span.op = tls_op;
  span.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  span.id = id;
  spans_.push_back(std::move(span));
  tls_stack.push_back(id);
  // Stamped last, so the bookkeeping above stays outside the span.
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanRecorder::Close(uint32_t id) {
  const uint64_t end = NowNs();
  if (!tls_stack.empty() && tls_stack.back() == id) tls_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

SpanRecorder::SelfTime SpanRecorder::Total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  SelfTime out;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_ns < s.start_ns) continue;
    out.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    ++out.count;
  }
  return out;
}

SpanRecorder::SelfTime SpanRecorder::Self(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one thread's span run one after another, so the covered
  // part of a parent is the sum of its children's durations.
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns >= s.start_ns) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  SelfTime out;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_ns < s.start_ns) continue;
    out.total_ns += static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
    ++out.count;
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"op\": %llu, \"name\": "
                 "\"%s\", \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.op),
                 s.name.c_str(), static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void ContainerMix::AddSlices(const expbsi::Bsi& bsi) {
  for (int i = 0; i < bsi.num_slices(); ++i) {
    const expbsi::RoaringBitmap& b = bsi.slice(i);
    const int bitmaps = b.NumBitmapContainers();
    const int runs = b.NumRunContainers();
    bitmap += static_cast<uint64_t>(bitmaps);
    run += static_cast<uint64_t>(runs);
    array += static_cast<uint64_t>(b.NumContainers() - bitmaps - runs);
  }
}

void ContainerMix::Report(Outcome* out) const {
  const double total = static_cast<double>(array + bitmap + run);
  const double denom = total > 0 ? total : 1.0;
  out->Add("roaring.array_share", static_cast<double>(array) / denom,
           "ratio");
  out->Add("roaring.bitmap_share", static_cast<double>(bitmap) / denom,
           "ratio");
  out->Add("roaring.run_share", static_cast<double>(run) / denom, "ratio");
  out->Info("roaring.containers", total);
}

}  // namespace perfbench
