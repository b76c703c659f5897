#ifndef EXPBSI_COMMON_FAULT_INJECTOR_H_
#define EXPBSI_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace expbsi {

// Deterministic fault injection for chaos testing (docs/TESTING.md "Chaos
// tests"). Production nodes fail, go slow and serve corrupt bytes routinely
// (§5.2-§5.3 run on thousands of machines); this subsystem lets tests replay
// those failures as a pure function of a seed so every found schedule is a
// permanent regression test.
//
// Globally OFF by default: the only cost on an uninstrumented run is one
// relaxed atomic load and a predicted-not-taken branch per fault site
// (FaultInjector::Get() returning nullptr).
//
// A *fault site* is a named point in the code (see fault_sites:: below).
// Every evaluation of a site consumes one *op index* (0-based, counted per
// site, or supplied explicitly by concurrent callers). The decision for an
// op is a pure function of (injector seed, site name, op index) plus any
// one-shot fault scheduled at exactly that (site, op index) -- so a schedule
// replays identically across runs, builds and sanitizers.

// What the fault site is told to do for one operation.
struct FaultDecision {
  bool fail = false;           // surface Status::Unavailable
  bool corrupt = false;        // bit-flip the blob about to be returned
  bool crash = false;          // kill the containing node / executor task
  double delay_seconds = 0.0;  // extra simulated latency
  // Network-flavored outcomes (net.* sites): send the frame twice / send a
  // deterministic prefix of it and then close the connection.
  bool duplicate = false;
  bool truncate = false;

  bool any() const {
    return fail || corrupt || crash || duplicate || truncate ||
           delay_seconds > 0;
  }
};

enum class FaultKind : uint8_t {
  kFail = 0,
  kCorrupt = 1,
  kCrash = 2,
  kDelay = 3,
  kDuplicate = 4,
  kTruncate = 5,
};

// Canonical fault-site names. Keep docs/TESTING.md in sync.
namespace fault_sites {
// BsiStore::Get -- a warehouse read; supports kFail.
inline constexpr char kWarehouseGet[] = "warehouse.get";
// TieredStore cold-tier load -- the simulated network fetch; supports
// kFail, kCorrupt (the returned copy is corrupted and NOT cached, so a
// retry re-reads the warehouse) and kDelay (sleeps).
inline constexpr char kTierFetch[] = "tier.fetch";
// The coordinator's in-process node link (AdhocCluster): evaluated once per
// (node, segment) step, in wave and node order; kCrash kills the node
// mid-query (its in-flight wave is discarded and its segments fail over to
// their next replica), kDelay sleeps before that segment runs.
inline constexpr char kNodeSegment[] = "adhoc.node_segment";
// PrecomputePipeline executor task attempt. Indexed explicitly as
// pair_index * kPipelineAttemptStride + attempt so schedules are
// independent of worker-thread interleaving. kFail/kCrash fail the attempt.
inline constexpr char kPipelineTask[] = "pipeline.task";
// Snapshot persistence (fileio::WriteFileAtomic callers). kSnapshotWrite is
// evaluated once per file written: kFail aborts the write cleanly, kCrash
// simulates a process kill mid-write (a deterministic prefix of the bytes is
// left in the .tmp file, which is never renamed in), kCorrupt flips bits in
// the written bytes so a *committed* file carries a block that fails its
// CRC. kSnapshotRename is evaluated once per commit rename: kFail/kCrash
// kill the process after the temp file is durable but before it is renamed
// into place.
inline constexpr char kSnapshotWrite[] = "snapshot.write";
inline constexpr char kSnapshotRename[] = "snapshot.rename";
// SnapshotReader, evaluated once per snapshot file read during recovery:
// kFail makes the file unreadable (as if the sector were gone), kCorrupt
// flips bits in the bytes read back (caught by the checksums).
inline constexpr char kSnapshotRead[] = "snapshot.read";
// Write-ahead log (src/wal). kWalAppend is evaluated once per record
// append: kFail rejects the append cleanly (nothing written, the sequence
// number is not consumed, the writer stays usable), kCrash simulates a
// process kill mid-append (a deterministic prefix of the record bytes lands
// in the segment and the writer goes dead), kCorrupt flips bits in the
// record bytes but "succeeds" -- the corruption is only caught by the CRCs
// at replay. kWalFsync is evaluated once per durability barrier AFTER the
// bytes are flushed: kFail/kCrash kill the writer but the record survives
// (replay recovers through it); kDelay sleeps inside the barrier. kWalRoll
// is evaluated once per segment-file creation (op 0 is the segment opened
// by WalWriter::Open, later ops are size-triggered rolls): kFail aborts the
// roll cleanly, kCrash leaves a torn segment header and kills the writer,
// kCorrupt flips header bits.
inline constexpr char kWalAppend[] = "wal.append";
inline constexpr char kWalFsync[] = "wal.fsync";
inline constexpr char kWalRoll[] = "wal.roll";
// Serving network (src/net, DESIGN.md §9). kNetSend is evaluated once per
// envelope about to be written to a socket, indexed explicitly as
// endpoint_id * kNetOpStride + per-endpoint send counter so schedules are
// independent of connection-thread interleaving: kFail drops the frame by
// closing the connection (the peer sees a clean EOF, not a timeout), kDelay
// sleeps before writing, kDuplicate writes the frame twice (the receiver
// must dedup by request_id), kTruncate writes a deterministic prefix and
// closes. kNetAccept is evaluated once per accepted connection (same
// indexing): kFail closes it immediately. kNetNodeCrash is evaluated once
// per query request a node admits, indexed endpoint_id * kNetOpStride +
// request counter: kCrash makes the node server drop the connection and
// stop serving, simulating a process kill mid-scatter.
inline constexpr char kNetSend[] = "net.send";
inline constexpr char kNetAccept[] = "net.accept";
inline constexpr char kNetNodeCrash[] = "net.node_crash";
// Replica repair (DESIGN.md §11), evaluated once per kSegmentFetch a peer
// serves, indexed endpoint_id * kNetOpStride + repair counter: kFail rejects
// the fetch with kError(kUnavailable) (the recovering node tries the next
// peer), kCrash kills the serving node mid-repair, kCorrupt flips bits in
// one pushed blob while keeping the claimed fingerprint -- the receiver's
// re-fingerprint must catch it -- and kDelay sleeps before replying.
inline constexpr char kNetRepair[] = "net.repair";
}  // namespace fault_sites

inline constexpr uint64_t kPipelineAttemptStride = 64;
// Per-endpoint op-index stride for the net.* sites; endpoint ids are small
// (node id, or kNetClientEndpointBase + node id for the coordinator side of
// the same node's link), so 2^20 ops per endpoint never collide.
inline constexpr uint64_t kNetOpStride = 1u << 20;
inline constexpr uint64_t kNetClientEndpointBase = 1000;
// Coordinator-side endpoints used for hedge RPCs. Hedged sends draw from
// their own endpoint range so enabling hedging does not perturb the op
// indices (and therefore the fault schedule) of the primary sends.
inline constexpr uint64_t kNetHedgeEndpointBase = 2000;

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  // ---- configuration: call before installing -----------------------------
  // Per-site probabilities, each drawn independently per op index.
  void SetFailProbability(const std::string& site, double p);
  void SetCorruptProbability(const std::string& site, double p);
  void SetCrashProbability(const std::string& site, double p);
  void SetDelayProbability(const std::string& site, double p,
                           double delay_seconds);
  void SetDuplicateProbability(const std::string& site, double p);
  void SetTruncateProbability(const std::string& site, double p);
  // One-shot fault at exactly the `op_index`-th evaluation of `site`.
  void ScheduleFault(const std::string& site, uint64_t op_index,
                     FaultKind kind);

  // ---- runtime (thread-safe) ---------------------------------------------
  // Decision for the next operation at `site`, consuming the site's counter.
  FaultDecision Evaluate(const std::string& site);
  // Decision for an explicitly indexed operation; concurrent callers pass a
  // stable index so schedules do not depend on thread interleaving. Does not
  // advance the site counter.
  FaultDecision EvaluateAt(const std::string& site, uint64_t op_index);

  // Deterministically flips 1..8 bits of `bytes` (no-op when empty), keyed
  // by the injector seed and `token` so the corruption itself reproduces.
  void CorruptBlob(uint64_t token, std::string* bytes) const;

  struct Stats {
    uint64_t evaluations = 0;
    uint64_t fails = 0;
    uint64_t corruptions = 0;
    uint64_t crashes = 0;
    uint64_t delays = 0;
    uint64_t duplicates = 0;
    uint64_t truncations = 0;
    uint64_t any() const {
      return fails + corruptions + crashes + delays + duplicates +
             truncations;
    }
  };
  Stats stats() const;
  uint64_t seed() const { return seed_; }

  // ---- global installation -----------------------------------------------
  // The installed injector, or nullptr (the default; fault logic skipped).
  static FaultInjector* Get() {
    return installed_.load(std::memory_order_acquire);
  }
  // Installs `injector` (not owned) process-wide; nullptr disables again.
  // Returns the previous injector.
  static FaultInjector* Install(FaultInjector* injector) {
    return installed_.exchange(injector, std::memory_order_acq_rel);
  }

 private:
  struct SiteConfig {
    double fail_p = 0.0;
    double corrupt_p = 0.0;
    double crash_p = 0.0;
    double delay_p = 0.0;
    double delay_seconds = 0.0;
    double duplicate_p = 0.0;
    double truncate_p = 0.0;
    std::map<uint64_t, FaultKind> one_shots;  // by op index
  };

  SiteConfig& SiteFor(const std::string& site);  // caller holds mu_
  FaultDecision Decide(const SiteConfig& cfg, const std::string& site,
                       uint64_t op_index);  // caller holds mu_

  static std::atomic<FaultInjector*> installed_;

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, SiteConfig> sites_;
  std::map<std::string, uint64_t> counters_;
  Stats stats_;
};

// RAII install/uninstall, restoring the previous injector on scope exit.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector* injector)
      : previous_(FaultInjector::Install(injector)) {}
  ~ScopedFaultInjection() { FaultInjector::Install(previous_); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultInjector* previous_;
};

// The torn-write rule every persisted write shares (snapshot files through
// fileio::WriteFileAtomic, WAL segment headers, WAL records). What one write
// of `*bytes` is told to do.
struct WriteFault {
  bool fail = false;   // reject cleanly: nothing reaches the file
  bool crash = false;  // simulated kill mid-write: write `write_bytes`, die
  // Bytes of `*bytes` that reach the file: all of them unless `crash`.
  size_t write_bytes = 0;
};

// Evaluates `site` once for a write of `*bytes` when an injector is
// installed and `site` is non-null (otherwise: no fault, write everything).
// kFail sets `fail`. kCorrupt copies the bytes into `*corrupted`, flips bits
// keyed by the injector seed and `corrupt_token`, and points `*bytes` at the
// copy; the write then "succeeds". kCrash sets `crash` and keeps a
// deterministic prefix of Mix64(seed ^ (size + C)) % (size + 1) bytes, so a
// seed replays the same torn tail in every build.
WriteFault EvaluateWriteFault(const char* site, uint64_t corrupt_token,
                              std::string_view* bytes, std::string* corrupted);

}  // namespace expbsi

#endif  // EXPBSI_COMMON_FAULT_INJECTOR_H_
