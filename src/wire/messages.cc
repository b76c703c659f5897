#include "wire/messages.h"

#include <tuple>

#include "common/byte_io.h"
#include "obs/flight_recorder.h"
#include "wire/envelope.h"

namespace expbsi {
namespace wire {

namespace {

// Shared helpers. Every vector is [count u32][elements]; ReadArray rejects
// any count whose payload cannot fit in the remaining bytes, so resize() is
// always bounded by the frame the transport already capped.

template <typename T>
bool ReadVec(ByteReader* r, std::vector<T>* out) {
  uint32_t n = 0;
  return r->ReadU32(&n) && r->ReadArray(n, out);
}

template <typename T>
void PutVec(std::string* out, const std::vector<T>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  PutArray(out, v.data(), v.size());
}

// Bools are a single byte that must be exactly 0 or 1: any other value
// would re-encode differently and break the canonical round trip.
bool ReadBool(ByteReader* r, bool* out) {
  uint8_t b = 0;
  if (!r->ReadU8(&b) || b > 1) return false;
  *out = (b == 1);
  return true;
}

}  // namespace

void EncodeQueryRequest(const WireQueryRequest& req, std::string* out) {
  PutVec(out, req.strategy_ids);
  PutVec(out, req.metric_ids);
  PutU32(out, req.date_lo);
  PutU32(out, req.date_hi);
  PutVec(out, req.segments);
  PutU8(out, req.allow_degraded ? 1 : 0);
  PutU8(out, req.want_trace ? 1 : 0);
}

Result<WireQueryRequest> DecodeQueryRequest(std::string_view payload) {
  ByteReader r(payload);
  WireQueryRequest req;
  if (!ReadVec(&r, &req.strategy_ids) ||
      !ReadVec(&r, &req.metric_ids) || !r.ReadU32(&req.date_lo) ||
      !r.ReadU32(&req.date_hi) || !ReadVec(&r, &req.segments) ||
      !ReadBool(&r, &req.allow_degraded) || !ReadBool(&r, &req.want_trace) ||
      !r.empty()) {
    return Status::Corruption("wire request: malformed payload");
  }
  return req;
}

void EncodeQueryResponse(const WireQueryResponse& resp, std::string* out) {
  PutU32(out, static_cast<uint32_t>(resp.segments.size()));
  for (const WireSegmentResult& seg : resp.segments) {
    PutU32(out, seg.segment);
    PutU8(out, seg.lost);
    PutVec(out, seg.sums);
    PutVec(out, seg.counts);
  }
  PutU32(out, resp.retries);
  PutU32(out, resp.faults_survived);
  PutU64(out, resp.bytes_from_cold);
  PutU64(out, resp.hot_hits);
  PutF64(out, resp.cpu_seconds);
  PutU32(out, static_cast<uint32_t>(resp.spans.size()));
  for (const WireSpan& s : resp.spans) {
    PutU32(out, s.id);
    PutU32(out, s.parent_id);
    PutString(out, s.name);
    PutU64(out, s.start_ns);
    PutU64(out, s.duration_ns);
    PutU32(out, static_cast<uint32_t>(s.attrs.size()));
    for (const auto& [key, value] : s.attrs) {
      PutString(out, key);
      PutU64(out, value);
    }
  }
}

Result<WireQueryResponse> DecodeQueryResponse(std::string_view payload) {
  ByteReader r(payload);
  WireQueryResponse resp;
  const Status malformed =
      Status::Corruption("wire response: malformed payload");
  uint32_t num_segments = 0;
  // A segment result is at least 4+1+4+4 bytes (id, lost, two empty vecs).
  if (!r.ReadCount(&num_segments, 13)) return malformed;
  resp.segments.resize(num_segments);
  for (WireSegmentResult& seg : resp.segments) {
    if (!r.ReadU32(&seg.segment) || !r.ReadU8(&seg.lost) || seg.lost > 1 ||
        !ReadVec(&r, &seg.sums) || !ReadVec(&r, &seg.counts)) {
      return malformed;
    }
  }
  if (!r.ReadU32(&resp.retries) || !r.ReadU32(&resp.faults_survived) ||
      !r.ReadU64(&resp.bytes_from_cold) || !r.ReadU64(&resp.hot_hits) ||
      !r.ReadF64(&resp.cpu_seconds)) {
    return malformed;
  }
  uint32_t num_spans = 0;
  // A span is at least 4+4+4+8+8+4 bytes (ids, empty name, times, attrs).
  if (!r.ReadCount(&num_spans, 32)) return malformed;
  resp.spans.resize(num_spans);
  for (WireSpan& s : resp.spans) {
    if (!r.ReadU32(&s.id) || !r.ReadU32(&s.parent_id) ||
        !r.ReadString(&s.name, kMaxWireStringBytes) ||
        !r.ReadU64(&s.start_ns) || !r.ReadU64(&s.duration_ns)) {
      return malformed;
    }
    uint32_t num_attrs = 0;
    if (!r.ReadCount(&num_attrs, 12)) return malformed;  // key + u64
    s.attrs.resize(num_attrs);
    for (auto& [key, value] : s.attrs) {
      if (!r.ReadString(&key, kMaxWireStringBytes) || !r.ReadU64(&value)) {
        return malformed;
      }
    }
  }
  if (!r.empty()) return malformed;
  return resp;
}

void EncodeSegmentFetch(const WireSegmentFetch& fetch, std::string* out) {
  PutU32(out, fetch.segment);
}

Result<WireSegmentFetch> DecodeSegmentFetch(std::string_view payload) {
  ByteReader r(payload);
  WireSegmentFetch fetch;
  // Segment ids are u16 in the store key; a wider id never names real data.
  if (!r.ReadU32(&fetch.segment) || fetch.segment > UINT16_MAX ||
      !r.empty()) {
    return Status::Corruption("wire segment fetch: malformed payload");
  }
  return fetch;
}

void EncodeSegmentPush(const WireSegmentPush& push, std::string* out) {
  PutU32(out, push.segment);
  PutU32(out, static_cast<uint32_t>(push.blobs.size()));
  for (const WireRepairBlob& b : push.blobs) {
    PutU8(out, b.kind);
    PutU64(out, b.id);
    PutU32(out, b.date);
    PutU64(out, b.fingerprint);
    PutString(out, b.bytes);
  }
}

Result<WireSegmentPush> DecodeSegmentPush(std::string_view payload) {
  ByteReader r(payload);
  WireSegmentPush push;
  const Status malformed =
      Status::Corruption("wire segment push: malformed payload");
  if (!r.ReadU32(&push.segment) || push.segment > UINT16_MAX) {
    return malformed;
  }
  uint32_t num_blobs = 0;
  // A blob is at least 1+8+4+8+4 bytes (kind, id, date, fingerprint, empty
  // bytes), so the count is bounded before the resize.
  if (!r.ReadCount(&num_blobs, 25)) return malformed;
  push.blobs.resize(num_blobs);
  for (uint32_t i = 0; i < num_blobs; ++i) {
    WireRepairBlob& b = push.blobs[i];
    if (!r.ReadU8(&b.kind) || b.kind > 3 || !r.ReadU64(&b.id) ||
        !r.ReadU32(&b.date) || !r.ReadU64(&b.fingerprint) ||
        !r.ReadString(&b.bytes, kMaxRepairBlobBytes)) {
      return malformed;
    }
    // Blobs must be strictly (kind, id, date)-ascending: one canonical
    // encoding per segment and no duplicate-key smuggling.
    if (i > 0) {
      const WireRepairBlob& prev = push.blobs[i - 1];
      auto key = [](const WireRepairBlob& x) {
        return std::make_tuple(x.kind, x.id, x.date);
      };
      if (!(key(prev) < key(b))) return malformed;
    }
  }
  if (!r.empty()) return malformed;
  return push;
}

void EncodeStatsFetch(const WireStatsFetch& fetch, std::string* out) {
  PutU64(out, fetch.since_seq);
  PutU8(out, fetch.want_metrics ? 1 : 0);
  PutU8(out, fetch.want_events ? 1 : 0);
}

Result<WireStatsFetch> DecodeStatsFetch(std::string_view payload) {
  ByteReader r(payload);
  WireStatsFetch fetch;
  if (!r.ReadU64(&fetch.since_seq) || !ReadBool(&r, &fetch.want_metrics) ||
      !ReadBool(&r, &fetch.want_events) || !r.empty()) {
    return Status::Corruption("wire stats fetch: malformed payload");
  }
  return fetch;
}

void EncodeStatsReply(const WireStatsReply& reply, std::string* out) {
  PutU32(out, reply.node_id);
  PutF64(out, reply.uptime_seconds);
  PutString(out, reply.build_info);
  PutU64(out, reply.queries_served);
  PutU64(out, reply.backpressure_rejections);
  PutU32(out, static_cast<uint32_t>(reply.counters.size()));
  for (const auto& [name, v] : reply.counters) {
    PutString(out, name);
    PutU64(out, v);
  }
  PutU32(out, static_cast<uint32_t>(reply.gauges.size()));
  for (const auto& [name, v] : reply.gauges) {
    PutString(out, name);
    PutF64(out, v);
  }
  PutU32(out, static_cast<uint32_t>(reply.histograms.size()));
  for (const WireHistogram& h : reply.histograms) {
    PutString(out, h.name);
    PutU64(out, h.count);
    PutU64(out, h.sum);
    PutU32(out, static_cast<uint32_t>(h.buckets.size()));
    for (const auto& [le, n] : h.buckets) {
      PutU64(out, le);
      PutU64(out, n);
    }
  }
  PutU32(out, static_cast<uint32_t>(reply.events.size()));
  for (const WireFlightEvent& e : reply.events) {
    PutU64(out, e.seq);
    PutU64(out, e.t_ns);
    PutU64(out, e.trace_id);
    PutU8(out, e.kind);
    PutU64(out, e.a);
    PutU64(out, e.b);
  }
  PutU64(out, reply.next_seq);
}

Result<WireStatsReply> DecodeStatsReply(std::string_view payload) {
  ByteReader r(payload);
  WireStatsReply reply;
  const Status malformed =
      Status::Corruption("wire stats reply: malformed payload");
  if (!r.ReadU32(&reply.node_id) || !r.ReadF64(&reply.uptime_seconds) ||
      !r.ReadString(&reply.build_info, kMaxWireStringBytes) ||
      !r.ReadU64(&reply.queries_served) ||
      !r.ReadU64(&reply.backpressure_rejections)) {
    return malformed;
  }
  // Metric names inside each section must be strictly ascending: one
  // canonical encoding per snapshot and no duplicate-name smuggling.
  uint32_t num_counters = 0;
  if (!r.ReadCount(&num_counters, 12)) return malformed;  // name + u64
  reply.counters.resize(num_counters);
  for (uint32_t i = 0; i < num_counters; ++i) {
    auto& [name, v] = reply.counters[i];
    if (!r.ReadString(&name, kMaxWireStringBytes) || !r.ReadU64(&v)) {
      return malformed;
    }
    if (i > 0 && !(reply.counters[i - 1].first < name)) return malformed;
  }
  uint32_t num_gauges = 0;
  if (!r.ReadCount(&num_gauges, 12)) return malformed;  // name + f64
  reply.gauges.resize(num_gauges);
  for (uint32_t i = 0; i < num_gauges; ++i) {
    auto& [name, v] = reply.gauges[i];
    if (!r.ReadString(&name, kMaxWireStringBytes) || !r.ReadF64(&v)) {
      return malformed;
    }
    if (i > 0 && !(reply.gauges[i - 1].first < name)) return malformed;
  }
  uint32_t num_histograms = 0;
  // A histogram is at least 4+8+8+4 bytes (empty name, count, sum, empty
  // bucket vector).
  if (!r.ReadCount(&num_histograms, 24)) return malformed;
  reply.histograms.resize(num_histograms);
  for (uint32_t i = 0; i < num_histograms; ++i) {
    WireHistogram& h = reply.histograms[i];
    if (!r.ReadString(&h.name, kMaxWireStringBytes) || !r.ReadU64(&h.count) ||
        !r.ReadU64(&h.sum)) {
      return malformed;
    }
    if (i > 0 && !(reply.histograms[i - 1].name < h.name)) return malformed;
    uint32_t num_buckets = 0;
    if (!r.ReadCount(&num_buckets, 16)) return malformed;  // le + n
    h.buckets.resize(num_buckets);
    uint64_t total = 0;
    for (uint32_t j = 0; j < num_buckets; ++j) {
      auto& [le, n] = h.buckets[j];
      if (!r.ReadU64(&le) || !r.ReadU64(&n)) return malformed;
      // Only non-empty buckets are shipped, in strictly ascending le order,
      // and they must account for the claimed count exactly.
      if (n == 0) return malformed;
      if (j > 0 && !(h.buckets[j - 1].first < le)) return malformed;
      // total <= count is a loop invariant, so this rejects any overshoot
      // without u64 overflow.
      if (n > h.count - total) return malformed;
      total += n;
    }
    if (total != h.count) return malformed;
  }
  uint32_t num_events = 0;
  // An event is 8+8+8+1+8+8 = 41 bytes.
  if (!r.ReadCount(&num_events, 41)) return malformed;
  reply.events.resize(num_events);
  for (uint32_t i = 0; i < num_events; ++i) {
    WireFlightEvent& e = reply.events[i];
    if (!r.ReadU64(&e.seq) || !r.ReadU64(&e.t_ns) ||
        !r.ReadU64(&e.trace_id) || !r.ReadU8(&e.kind) ||
        e.kind > obs::kMaxFlightEventKind || !r.ReadU64(&e.a) ||
        !r.ReadU64(&e.b)) {
      return malformed;
    }
    if (i > 0 && !(reply.events[i - 1].seq < e.seq)) return malformed;
  }
  if (!r.ReadU64(&reply.next_seq) || !r.empty()) return malformed;
  // Every shipped event precedes the advertised cursor.
  if (!reply.events.empty() && reply.events.back().seq >= reply.next_seq) {
    return malformed;
  }
  return reply;
}

}  // namespace wire
}  // namespace expbsi
