#include "roaring/roaring_bitmap.h"

#include <algorithm>
#include <cstddef>

#include "common/byte_io.h"

namespace expbsi {
namespace {

inline uint16_t HighBits(uint32_t v) { return static_cast<uint16_t>(v >> 16); }
inline uint16_t LowBits(uint32_t v) { return static_cast<uint16_t>(v & 0xFFFF); }

}  // namespace

const Container* RoaringBitmap::FindContainer(uint16_t key) const {
  const int i = FindKey(key);
  return i < 0 ? nullptr : &entries_[i].container;
}

int RoaringBitmap::FindKey(uint16_t key) const {
  int lo = 0, hi = static_cast<int>(entries_.size()) - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (entries_[mid].key == key) return mid;
    if (entries_[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

Container* RoaringBitmap::GetOrCreate(uint16_t key) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, uint16_t k) { return e.key < k; });
  if (it != entries_.end() && it->key == key) return &it->container;
  it = entries_.insert(it, Entry{key, Container()});
  return &it->container;
}

RoaringBitmap RoaringBitmap::FromSorted(const std::vector<uint32_t>& values) {
  RoaringBitmap bm;
  size_t i = 0;
  std::vector<uint16_t> lows;
  while (i < values.size()) {
    const uint16_t key = HighBits(values[i]);
    lows.clear();
    while (i < values.size() && HighBits(values[i]) == key) {
      DCHECK(lows.empty() || lows.back() < LowBits(values[i]));
      lows.push_back(LowBits(values[i]));
      ++i;
    }
    bm.entries_.push_back(
        Entry{key, Container::FromSorted(lows.data(),
                                         static_cast<int>(lows.size()))});
  }
  return bm;
}

RoaringBitmap RoaringBitmap::FromUnsorted(std::vector<uint32_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return FromSorted(values);
}

void RoaringBitmap::Add(uint32_t value) {
  GetOrCreate(HighBits(value))->Add(LowBits(value));
}

void RoaringBitmap::Remove(uint32_t value) {
  const int idx = FindKey(HighBits(value));
  if (idx < 0) return;
  entries_[idx].container.Remove(LowBits(value));
  if (entries_[idx].container.IsEmpty()) {
    entries_.erase(entries_.begin() + idx);
  }
}

bool RoaringBitmap::Contains(uint32_t value) const {
  const int idx = FindKey(HighBits(value));
  return idx >= 0 && entries_[idx].container.Contains(LowBits(value));
}

void RoaringBitmap::AddRange(uint64_t begin, uint64_t end) {
  CHECK_LE(end, uint64_t{1} << 32);
  if (begin >= end) return;
  uint64_t cur = begin;
  while (cur < end) {
    const uint16_t key = HighBits(static_cast<uint32_t>(cur));
    const uint64_t chunk_end =
        std::min<uint64_t>(end, (static_cast<uint64_t>(key) + 1) << 16);
    GetOrCreate(key)->AddRange(static_cast<uint32_t>(cur & 0xFFFF),
                               static_cast<uint32_t>(((chunk_end - 1) & 0xFFFF) + 1));
    cur = chunk_end;
  }
}

uint64_t RoaringBitmap::Cardinality() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) total += e.container.Cardinality();
  return total;
}

uint32_t RoaringBitmap::Minimum() const {
  CHECK(!IsEmpty());
  const Entry& e = entries_.front();
  return (static_cast<uint32_t>(e.key) << 16) | e.container.Minimum();
}

uint32_t RoaringBitmap::Maximum() const {
  CHECK(!IsEmpty());
  const Entry& e = entries_.back();
  return (static_cast<uint32_t>(e.key) << 16) | e.container.Maximum();
}

RoaringBitmap RoaringBitmap::And(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    const uint16_t ka = a.entries_[i].key, kb = b.entries_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      Container c = Container::And(a.entries_[i].container,
                                   b.entries_[j].container);
      if (!c.IsEmpty()) out.entries_.push_back(Entry{ka, std::move(c)});
      ++i;
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::Or(const RoaringBitmap& a,
                                const RoaringBitmap& b) {
  RoaringBitmap out;
  out.entries_.reserve(std::max(a.entries_.size(), b.entries_.size()));
  size_t i = 0, j = 0;
  while (i < a.entries_.size() || j < b.entries_.size()) {
    if (j >= b.entries_.size() ||
        (i < a.entries_.size() && a.entries_[i].key < b.entries_[j].key)) {
      out.entries_.push_back(a.entries_[i]);
      ++i;
    } else if (i >= a.entries_.size() ||
               b.entries_[j].key < a.entries_[i].key) {
      out.entries_.push_back(b.entries_[j]);
      ++j;
    } else {
      out.entries_.push_back(Entry{
          a.entries_[i].key,
          Container::Or(a.entries_[i].container, b.entries_[j].container)});
      ++i;
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::Xor(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.entries_.size() || j < b.entries_.size()) {
    if (j >= b.entries_.size() ||
        (i < a.entries_.size() && a.entries_[i].key < b.entries_[j].key)) {
      out.entries_.push_back(a.entries_[i]);
      ++i;
    } else if (i >= a.entries_.size() ||
               b.entries_[j].key < a.entries_[i].key) {
      out.entries_.push_back(b.entries_[j]);
      ++j;
    } else {
      Container c = Container::Xor(a.entries_[i].container,
                                   b.entries_[j].container);
      if (!c.IsEmpty()) {
        out.entries_.push_back(Entry{a.entries_[i].key, std::move(c)});
      }
      ++i;
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::AndNot(const RoaringBitmap& a,
                                    const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.entries_.size()) {
    if (j >= b.entries_.size() || a.entries_[i].key < b.entries_[j].key) {
      out.entries_.push_back(a.entries_[i]);
      ++i;
    } else if (b.entries_[j].key < a.entries_[i].key) {
      ++j;
    } else {
      Container c = Container::AndNot(a.entries_[i].container,
                                      b.entries_[j].container);
      if (!c.IsEmpty()) {
        out.entries_.push_back(Entry{a.entries_[i].key, std::move(c)});
      }
      ++i;
      ++j;
    }
  }
  return out;
}

void RoaringBitmap::AndInPlace(const RoaringBitmap& other) {
  // The result's keys are a subset of this bitmap's keys, so the entry
  // vector is compacted in place: no reallocation, and containers intersect
  // destructively where their representation allows.
  size_t w = 0, j = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    while (j < other.entries_.size() &&
           other.entries_[j].key < entries_[i].key) {
      ++j;
    }
    if (j >= other.entries_.size()) break;
    if (other.entries_[j].key != entries_[i].key) continue;
    entries_[i].container.AndInPlaceWith(other.entries_[j].container);
    if (!entries_[i].container.IsEmpty()) {
      if (w != i) entries_[w] = std::move(entries_[i]);
      ++w;
    }
  }
  entries_.resize(w);
}

void RoaringBitmap::OrInPlace(const RoaringBitmap& other) {
  if (other.IsEmpty()) return;
  if (IsEmpty()) {
    *this = other;
    return;
  }
  // Fast path: every key of `other` already exists here -- pure in-place
  // container updates, no entry-vector churn. This is the common case for
  // slice accumulation over one population.
  {
    size_t i = 0, j = 0;
    bool subset = true;
    while (j < other.entries_.size()) {
      if (i >= entries_.size() || entries_[i].key > other.entries_[j].key) {
        subset = false;
        break;
      }
      if (entries_[i].key == other.entries_[j].key) ++j;
      ++i;
    }
    if (subset) {
      i = 0;
      for (j = 0; j < other.entries_.size(); ++j) {
        while (entries_[i].key != other.entries_[j].key) ++i;
        entries_[i].container.OrInPlaceWith(other.entries_[j].container);
      }
      return;
    }
  }
  // General path: merge into a fresh entry vector, MOVING this bitmap's
  // containers instead of copying their payloads.
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].key < other.entries_[j].key)) {
      merged.push_back(std::move(entries_[i]));
      ++i;
    } else if (i >= entries_.size() ||
               other.entries_[j].key < entries_[i].key) {
      merged.push_back(other.entries_[j]);
      ++j;
    } else {
      entries_[i].container.OrInPlaceWith(other.entries_[j].container);
      merged.push_back(std::move(entries_[i]));
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void RoaringBitmap::XorInPlace(const RoaringBitmap& other) {
  if (other.IsEmpty()) return;
  if (IsEmpty()) {
    *this = other;
    return;
  }
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].key < other.entries_[j].key)) {
      merged.push_back(std::move(entries_[i]));
      ++i;
    } else if (i >= entries_.size() ||
               other.entries_[j].key < entries_[i].key) {
      merged.push_back(other.entries_[j]);
      ++j;
    } else {
      entries_[i].container.XorInPlaceWith(other.entries_[j].container);
      if (!entries_[i].container.IsEmpty()) {
        merged.push_back(std::move(entries_[i]));
      }
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void RoaringBitmap::AndNotInPlace(const RoaringBitmap& other) {
  // Result keys are a subset of this bitmap's keys: compact in place.
  size_t w = 0, j = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    while (j < other.entries_.size() &&
           other.entries_[j].key < entries_[i].key) {
      ++j;
    }
    if (j < other.entries_.size() &&
        other.entries_[j].key == entries_[i].key) {
      entries_[i].container.AndNotInPlaceWith(other.entries_[j].container);
      if (entries_[i].container.IsEmpty()) continue;
    }
    if (w != i) entries_[w] = std::move(entries_[i]);
    ++w;
  }
  entries_.resize(w);
}

uint64_t RoaringBitmap::AndCardinality(const RoaringBitmap& a,
                                       const RoaringBitmap& b) {
  uint64_t total = 0;
  size_t i = 0, j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    const uint16_t ka = a.entries_[i].key, kb = b.entries_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      total += Container::AndCardinality(a.entries_[i].container,
                                         b.entries_[j].container);
      ++i;
      ++j;
    }
  }
  return total;
}

bool RoaringBitmap::Intersects(const RoaringBitmap& a,
                               const RoaringBitmap& b) {
  size_t i = 0, j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    const uint16_t ka = a.entries_[i].key, kb = b.entries_[j].key;
    if (ka < kb) {
      ++i;
    } else if (ka > kb) {
      ++j;
    } else {
      if (Container::Intersects(a.entries_[i].container,
                                b.entries_[j].container)) {
        return true;
      }
      ++i;
      ++j;
    }
  }
  return false;
}

uint64_t RoaringBitmap::Rank(uint32_t value) const {
  const uint16_t key = HighBits(value);
  uint64_t rank = 0;
  for (const Entry& e : entries_) {
    if (e.key < key) {
      rank += e.container.Cardinality();
    } else if (e.key == key) {
      rank += e.container.Rank(LowBits(value));
      break;
    } else {
      break;
    }
  }
  return rank;
}

uint32_t RoaringBitmap::Select(uint64_t i) const {
  uint64_t remaining = i;
  for (const Entry& e : entries_) {
    const uint64_t card = e.container.Cardinality();
    if (remaining < card) {
      return (static_cast<uint32_t>(e.key) << 16) |
             e.container.Select(static_cast<int>(remaining));
    }
    remaining -= card;
  }
  CHECK(false);  // i >= Cardinality()
  return 0;
}

bool RoaringBitmap::Equals(const RoaringBitmap& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key != other.entries_[i].key) return false;
    if (!entries_[i].container.Equals(other.entries_[i].container)) {
      return false;
    }
  }
  return true;
}

void RoaringBitmap::RunOptimize() {
  for (Entry& e : entries_) e.container.RunOptimize();
}

size_t RoaringBitmap::SizeInBytes() const {
  size_t total = entries_.size() * (sizeof(uint16_t) + sizeof(uint32_t));
  for (const Entry& e : entries_) total += e.container.SizeInBytes();
  return total;
}

void RoaringBitmap::Serialize(std::string* out) const {
  PutU32(out, static_cast<uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    PutU16(out, e.key);
    e.container.Serialize(out);
  }
}

std::string RoaringBitmap::SerializeToString() const {
  std::string out;
  Serialize(&out);
  return out;
}

Result<RoaringBitmap> RoaringBitmap::Deserialize(std::string_view bytes) {
  ByteReader r(bytes);
  uint32_t n = 0;
  if (!r.ReadU32(&n)) return Status::Corruption("roaring: truncated header");
  if (n > 65536) return Status::Corruption("roaring: too many containers");
  // A container needs at least 7 bytes (key + type + count), so a count
  // the remaining payload cannot hold is hostile; reject it before it
  // sizes an allocation.
  constexpr size_t kMinContainerBytes = 2 + 1 + 4;
  if (r.remaining() / kMinContainerBytes < n) {
    return Status::Corruption("roaring: container count exceeds payload");
  }
  RoaringBitmap bm;
  bm.entries_.reserve(n);
  uint32_t prev_key = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint16_t key = 0;
    if (!r.ReadU16(&key)) return Status::Corruption("roaring: truncated key");
    if (i > 0 && key <= prev_key) {
      return Status::Corruption("roaring: keys out of order");
    }
    prev_key = key;
    Result<Container> c = Container::Deserialize(&r);
    if (!c.ok()) return c.status();
    bm.entries_.push_back(Entry{key, std::move(c).value()});
  }
  // Exactly n containers and nothing else: trailing bytes mean the blob was
  // extended or the count shrunk -- either way, not what was serialized.
  if (!r.empty()) return Status::Corruption("roaring: trailing bytes");
  return bm;
}

std::vector<uint32_t> RoaringBitmap::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Cardinality());
  ForEach([&out](uint32_t v) { out.push_back(v); });
  return out;
}

RoaringBitmap::Iterator::Iterator(const RoaringBitmap& bm) : bm_(&bm) {
  Seek(0, 0);
}

void RoaringBitmap::Iterator::Seek(uint16_t key, uint32_t low) {
  has_value_ = false;
  // Find the first entry with key >= requested key.
  size_t entry = 0;
  while (entry < bm_->entries_.size() && bm_->entries_[entry].key < key) {
    ++entry;
  }
  uint32_t low_cursor = low;
  for (; entry < bm_->entries_.size(); ++entry) {
    if (bm_->entries_[entry].key != key) low_cursor = 0;
    const int next = bm_->entries_[entry].container.NextValue(low_cursor);
    if (next >= 0) {
      entry_ = entry;
      value_ = (static_cast<uint32_t>(bm_->entries_[entry].key) << 16) |
               static_cast<uint32_t>(next);
      has_value_ = true;
      return;
    }
    low_cursor = 0;
  }
}

void RoaringBitmap::Iterator::Next() {
  CHECK(has_value_);
  if (value_ == 0xFFFFFFFFu) {  // global maximum: nothing follows
    has_value_ = false;
    return;
  }
  const uint32_t next = value_ + 1;
  Seek(static_cast<uint16_t>(next >> 16), next & 0xFFFF);
}

void RoaringBitmap::Iterator::SkipTo(uint32_t target) {
  if (has_value_ && value_ >= target) return;
  Seek(static_cast<uint16_t>(target >> 16), target & 0xFFFF);
}

int RoaringBitmap::NumRunContainers() const {
  int n = 0;
  for (const Entry& e : entries_) {
    n += e.container.type() == ContainerType::kRun ? 1 : 0;
  }
  return n;
}

int RoaringBitmap::NumBitmapContainers() const {
  int n = 0;
  for (const Entry& e : entries_) {
    n += e.container.type() == ContainerType::kBitmap ? 1 : 0;
  }
  return n;
}

void RoaringBitmap::AppendContainer(uint16_t key, Container container) {
  if (container.IsEmpty()) return;
  CHECK(entries_.empty() || entries_.back().key < key);
  entries_.push_back({key, std::move(container)});
}

}  // namespace expbsi
