#include "common/fault_injector.h"

#include "common/check.h"
#include "common/hash.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace expbsi {
namespace {

// Flight-recorder hook: one event per injected fault, recorded AFTER mu_ is
// released (the recorder is lock-free but the callback ordering must not
// extend the injector's critical section). `a` is the first FaultKind the
// decision carries, `b` the stable fault-site id.
void RecordInjectedFlightEvent(const std::string& site,
                               const FaultDecision& d) {
  if (!d.any()) return;
  FaultKind kind = FaultKind::kFail;
  if (d.fail) {
    kind = FaultKind::kFail;
  } else if (d.corrupt) {
    kind = FaultKind::kCorrupt;
  } else if (d.crash) {
    kind = FaultKind::kCrash;
  } else if (d.duplicate) {
    kind = FaultKind::kDuplicate;
  } else if (d.truncate) {
    kind = FaultKind::kTruncate;
  } else {
    kind = FaultKind::kDelay;
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kFaultInjected,
                                       static_cast<uint64_t>(kind),
                                       obs::FlightSiteId(site.c_str()));
}

// FNV-1a over the site name, mixed; stable across runs (std::hash is not
// guaranteed stable, and schedules must replay byte-for-byte).
uint64_t SiteHash(const std::string& site) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return Mix64(h);
}

// Uniform double in [0, 1) from one mixed draw.
double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

std::atomic<FaultInjector*> FaultInjector::installed_{nullptr};

FaultInjector::SiteConfig& FaultInjector::SiteFor(const std::string& site) {
  return sites_[site];
}

void FaultInjector::SetFailProbability(const std::string& site, double p) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteFor(site).fail_p = p;
}

void FaultInjector::SetCorruptProbability(const std::string& site, double p) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteFor(site).corrupt_p = p;
}

void FaultInjector::SetCrashProbability(const std::string& site, double p) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteFor(site).crash_p = p;
}

void FaultInjector::SetDelayProbability(const std::string& site, double p,
                                        double delay_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteConfig& cfg = SiteFor(site);
  cfg.delay_p = p;
  cfg.delay_seconds = delay_seconds;
}

void FaultInjector::SetDuplicateProbability(const std::string& site,
                                            double p) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteFor(site).duplicate_p = p;
}

void FaultInjector::SetTruncateProbability(const std::string& site,
                                           double p) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteFor(site).truncate_p = p;
}

void FaultInjector::ScheduleFault(const std::string& site, uint64_t op_index,
                                  FaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteFor(site).one_shots[op_index] = kind;
}

FaultDecision FaultInjector::Decide(const SiteConfig& cfg,
                                    const std::string& site,
                                    uint64_t op_index) {
  ++stats_.evaluations;
  FaultDecision d;
  // Independent per-(site, op) draws; one Mix64 chain per fault class so
  // adding a probability to one class never perturbs another's stream.
  const uint64_t base = Mix64(seed_ ^ SiteHash(site)) ^ op_index;
  if (cfg.fail_p > 0 && ToUnit(Mix64(base ^ 0x1)) < cfg.fail_p) d.fail = true;
  if (cfg.corrupt_p > 0 && ToUnit(Mix64(base ^ 0x2)) < cfg.corrupt_p) {
    d.corrupt = true;
  }
  if (cfg.crash_p > 0 && ToUnit(Mix64(base ^ 0x3)) < cfg.crash_p) {
    d.crash = true;
  }
  if (cfg.delay_p > 0 && ToUnit(Mix64(base ^ 0x4)) < cfg.delay_p) {
    d.delay_seconds = cfg.delay_seconds;
  }
  if (cfg.duplicate_p > 0 && ToUnit(Mix64(base ^ 0x5)) < cfg.duplicate_p) {
    d.duplicate = true;
  }
  if (cfg.truncate_p > 0 && ToUnit(Mix64(base ^ 0x6)) < cfg.truncate_p) {
    d.truncate = true;
  }
  const auto shot = cfg.one_shots.find(op_index);
  if (shot != cfg.one_shots.end()) {
    switch (shot->second) {
      case FaultKind::kFail:
        d.fail = true;
        break;
      case FaultKind::kCorrupt:
        d.corrupt = true;
        break;
      case FaultKind::kCrash:
        d.crash = true;
        break;
      case FaultKind::kDelay:
        d.delay_seconds =
            cfg.delay_seconds > 0 ? cfg.delay_seconds : 0.001;
        break;
      case FaultKind::kDuplicate:
        d.duplicate = true;
        break;
      case FaultKind::kTruncate:
        d.truncate = true;
        break;
    }
  }
  if (d.fail) ++stats_.fails;
  if (d.corrupt) ++stats_.corruptions;
  if (d.crash) ++stats_.crashes;
  if (d.delay_seconds > 0) ++stats_.delays;
  if (d.duplicate) ++stats_.duplicates;
  if (d.truncate) ++stats_.truncations;
  // Registry mirror: per-instance stats stay the source for the accessors
  // (chaos tests diff them per schedule); the process-wide counters make an
  // injected fault visible in the same scrape as the recovery it triggered.
  if (d.any()) {
    static obs::Counter& injected = obs::GetCounter("fault.injected");
    injected.Add();
    if (d.fail) {
      static obs::Counter& c = obs::GetCounter("fault.injected_fails");
      c.Add();
    }
    if (d.corrupt) {
      static obs::Counter& c = obs::GetCounter("fault.injected_corruptions");
      c.Add();
    }
    if (d.crash) {
      static obs::Counter& c = obs::GetCounter("fault.injected_crashes");
      c.Add();
    }
    if (d.delay_seconds > 0) {
      static obs::Counter& c = obs::GetCounter("fault.injected_delays");
      c.Add();
    }
    if (d.duplicate) {
      static obs::Counter& c = obs::GetCounter("fault.injected_duplicates");
      c.Add();
    }
    if (d.truncate) {
      static obs::Counter& c = obs::GetCounter("fault.injected_truncations");
      c.Add();
    }
  }
  return d;
}

FaultDecision FaultInjector::Evaluate(const std::string& site) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t op_index = counters_[site]++;
    const auto it = sites_.find(site);
    if (it == sites_.end()) {
      ++stats_.evaluations;
      return FaultDecision{};
    }
    d = Decide(it->second, site, op_index);
  }
  RecordInjectedFlightEvent(site, d);
  return d;
}

FaultDecision FaultInjector::EvaluateAt(const std::string& site,
                                        uint64_t op_index) {
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) {
      ++stats_.evaluations;
      return FaultDecision{};
    }
    d = Decide(it->second, site, op_index);
  }
  RecordInjectedFlightEvent(site, d);
  return d;
}

void FaultInjector::CorruptBlob(uint64_t token, std::string* bytes) const {
  CHECK(bytes != nullptr);
  if (bytes->empty()) return;
  const uint64_t base = Mix64(seed_ ^ Mix64(token ^ 0xC0BB));
  const int flips = 1 + static_cast<int>(base % 8);
  const uint64_t nbits = static_cast<uint64_t>(bytes->size()) * 8;
  for (int i = 0; i < flips; ++i) {
    const uint64_t bit = Mix64(base + 1 + static_cast<uint64_t>(i)) % nbits;
    (*bytes)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

WriteFault EvaluateWriteFault(const char* site, uint64_t corrupt_token,
                              std::string_view* bytes,
                              std::string* corrupted) {
  WriteFault fault;
  fault.write_bytes = bytes->size();
  FaultInjector* const fi = FaultInjector::Get();
  if (fi == nullptr || site == nullptr) return fault;
  const FaultDecision d = fi->Evaluate(site);
  if (d.fail) {
    fault.fail = true;
    return fault;
  }
  if (d.corrupt) {
    corrupted->assign(bytes->data(), bytes->size());
    fi->CorruptBlob(Mix64(fi->seed() ^ corrupt_token), corrupted);
    *bytes = *corrupted;
  }
  if (d.crash) {
    fault.crash = true;
    fault.write_bytes = static_cast<size_t>(
        Mix64(fi->seed() ^ (bytes->size() + 0x517cc1b727220a95ull)) %
        (bytes->size() + 1));
  }
  return fault;
}

}  // namespace expbsi
