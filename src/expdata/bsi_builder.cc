#include "expdata/bsi_builder.h"

#include <algorithm>
#include <limits>

#include "bsi/bsi_compare.h"
#include "common/byte_io.h"
#include "common/check.h"
#include "expdata/segmenter.h"

namespace expbsi {
namespace {

void PutBsi(std::string* out, const Bsi& bsi) {
  std::string block = bsi.SerializeToString();
  PutU32(out, static_cast<uint32_t>(block.size()));
  out->append(block);
}

Result<Bsi> ReadBsi(ByteReader* r) {
  uint32_t len = 0;
  std::string_view block;
  if (!r->ReadU32(&len) || !r->ReadBytes(len, &block)) {
    return Status::Corruption("bsi block truncated");
  }
  return Bsi::Deserialize(block);
}

}  // namespace

RoaringBitmap ExposeBsi::ExposedOnOrBefore(Date date) const {
  if (date < min_expose_date) return RoaringBitmap();
  return offset.RangeLe(static_cast<uint64_t>(date - min_expose_date) + 1);
}

std::vector<RoaringBitmap> ExposeBsi::ExposedOnOrBeforeEachDay(
    Date lo, Date hi) const {
  CHECK_LE(lo, hi);
  if (hi < min_expose_date) {
    return std::vector<RoaringBitmap>(static_cast<size_t>(hi - lo) + 1);
  }
  // Days before min_expose_date expose nobody; day d >= min_expose_date is
  // the range search offset <= d - min_expose_date + 1.
  const Date first = std::max(lo, min_expose_date);
  std::vector<RoaringBitmap> masks = bsi_compare::RangeLeEach(
      offset, static_cast<uint64_t>(first - min_expose_date) + 1,
      static_cast<uint64_t>(hi - min_expose_date) + 1);
  masks.insert(masks.begin(), first - lo, RoaringBitmap());
  return masks;
}

RoaringBitmap ExposeBsi::ExposedBetween(Date from, Date to) const {
  if (to < min_expose_date || from > to) return RoaringBitmap();
  const uint64_t lo =
      from <= min_expose_date
          ? 1
          : static_cast<uint64_t>(from - min_expose_date) + 1;
  const uint64_t hi = static_cast<uint64_t>(to - min_expose_date) + 1;
  return offset.RangeBetween(lo, hi);
}

size_t ExposeBsi::SizeInBytes() const {
  return offset.SizeInBytes() + bucket.SizeInBytes();
}

void ExposeBsi::Serialize(std::string* out) const {
  PutU64(out, strategy_id);
  PutU32(out, min_expose_date);
  PutBsi(out, offset);
  PutBsi(out, bucket);
}

Result<ExposeBsi> ExposeBsi::Deserialize(std::string_view bytes) {
  ExposeBsi out;
  ByteReader r(bytes);
  if (!r.ReadU64(&out.strategy_id) || !r.ReadU32(&out.min_expose_date)) {
    return Status::Corruption("expose bsi: truncated header");
  }
  Result<Bsi> offset = ReadBsi(&r);
  if (!offset.ok()) return offset.status();
  out.offset = std::move(offset).value();
  Result<Bsi> bucket = ReadBsi(&r);
  if (!bucket.ok()) return bucket.status();
  out.bucket = std::move(bucket).value();
  if (!r.empty()) return Status::Corruption("expose bsi: trailing bytes");
  return out;
}

void MetricBsi::Serialize(std::string* out) const {
  PutU32(out, date);
  PutU64(out, metric_id);
  PutBsi(out, value);
}

Result<MetricBsi> MetricBsi::Deserialize(std::string_view bytes) {
  MetricBsi out;
  ByteReader r(bytes);
  if (!r.ReadU32(&out.date) || !r.ReadU64(&out.metric_id)) {
    return Status::Corruption("metric bsi: truncated header");
  }
  Result<Bsi> value = ReadBsi(&r);
  if (!value.ok()) return value.status();
  out.value = std::move(value).value();
  if (!r.empty()) return Status::Corruption("metric bsi: trailing bytes");
  return out;
}

void DimensionBsi::Serialize(std::string* out) const {
  PutU32(out, date);
  PutU32(out, dimension_id);
  PutBsi(out, value);
}

Result<DimensionBsi> DimensionBsi::Deserialize(std::string_view bytes) {
  DimensionBsi out;
  ByteReader r(bytes);
  if (!r.ReadU32(&out.date) || !r.ReadU32(&out.dimension_id)) {
    return Status::Corruption("dimension bsi: truncated header");
  }
  Result<Bsi> value = ReadBsi(&r);
  if (!value.ok()) return value.status();
  out.value = std::move(value).value();
  if (!r.empty()) return Status::Corruption("dimension bsi: trailing bytes");
  return out;
}

ExposeBsi BuildExposeBsi(const std::vector<ExposeRow>& rows,
                         PositionEncoder& encoder, int num_buckets) {
  ExposeBsi out;
  if (rows.empty()) return out;
  out.strategy_id = rows.front().strategy_id;
  Date min_date = std::numeric_limits<Date>::max();
  for (const ExposeRow& row : rows) {
    DCHECK_EQ(row.strategy_id, out.strategy_id);
    min_date = std::min(min_date, row.first_expose_date);
  }
  out.min_expose_date = min_date;
  std::vector<std::pair<uint32_t, uint64_t>> offset_pairs;
  std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
  offset_pairs.reserve(rows.size());
  if (num_buckets > 0) bucket_pairs.reserve(rows.size());
  for (const ExposeRow& row : rows) {
    const uint32_t pos = encoder.Encode(row.analysis_unit_id);
    offset_pairs.emplace_back(
        pos, static_cast<uint64_t>(row.first_expose_date - min_date) + 1);
    if (num_buckets > 0) {
      bucket_pairs.emplace_back(
          pos, static_cast<uint64_t>(
                   BucketOf(row.randomization_unit_id, num_buckets)) +
                   1);
    }
  }
  out.offset = Bsi::FromPairs(std::move(offset_pairs));
  if (num_buckets > 0) out.bucket = Bsi::FromPairs(std::move(bucket_pairs));
  return out;
}

MetricBsi BuildMetricBsi(const std::vector<MetricRow>& rows,
                         PositionEncoder& encoder) {
  MetricBsi out;
  if (rows.empty()) return out;
  out.date = rows.front().date;
  out.metric_id = rows.front().metric_id;
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  pairs.reserve(rows.size());
  for (const MetricRow& row : rows) {
    DCHECK_EQ(row.date, out.date);
    DCHECK_EQ(row.metric_id, out.metric_id);
    pairs.emplace_back(encoder.Encode(row.analysis_unit_id), row.value);
  }
  out.value = Bsi::FromPairs(std::move(pairs));
  return out;
}

DimensionBsi BuildDimensionBsi(const std::vector<DimensionRow>& rows,
                               PositionEncoder& encoder) {
  DimensionBsi out;
  if (rows.empty()) return out;
  out.date = rows.front().date;
  out.dimension_id = rows.front().dimension_id;
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  pairs.reserve(rows.size());
  for (const DimensionRow& row : rows) {
    DCHECK_EQ(row.date, out.date);
    DCHECK_EQ(row.dimension_id, out.dimension_id);
    pairs.emplace_back(encoder.Encode(row.analysis_unit_id), row.value);
  }
  out.value = Bsi::FromPairs(std::move(pairs));
  return out;
}

}  // namespace expbsi
