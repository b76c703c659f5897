#include "roaring/container.h"

#include <algorithm>
#include <cstddef>

#include "common/byte_io.h"

namespace expbsi {
namespace {

// First index in [lo, v.size()) with v[idx] >= key, found by exponential
// search from lo: probes lo+1, lo+2, lo+4, ... then binary-searches the
// bracketing block. O(log d) for a match d positions ahead, which beats the
// linear merge when one operand is much smaller than the other.
size_t GallopTo(const std::vector<uint16_t>& v, size_t lo, uint16_t key) {
  if (lo >= v.size() || v[lo] >= key) return lo;
  size_t step = 1;
  while (lo + step < v.size() && v[lo + step] < key) step <<= 1;
  const size_t begin = lo + (step >> 1) + 1;  // v[lo + step/2] < key
  const size_t end = std::min(v.size(), lo + step + 1);
  return static_cast<size_t>(
      std::lower_bound(v.begin() + begin, v.begin() + end, key) - v.begin());
}

// Galloping intersection for skewed cardinalities: walk the small operand,
// gallop through the large one.
std::vector<uint16_t> ArrayAndGalloping(const std::vector<uint16_t>& small,
                                        const std::vector<uint16_t>& large) {
  std::vector<uint16_t> out;
  out.reserve(small.size());
  size_t j = 0;
  for (const uint16_t v : small) {
    j = GallopTo(large, j, v);
    if (j == large.size()) break;
    if (large[j] == v) {
      out.push_back(v);
      ++j;
    }
  }
  return out;
}

int ArrayAndCardinalityGalloping(const std::vector<uint16_t>& small,
                                 const std::vector<uint16_t>& large) {
  int card = 0;
  size_t j = 0;
  for (const uint16_t v : small) {
    j = GallopTo(large, j, v);
    if (j == large.size()) break;
    if (large[j] == v) {
      ++card;
      ++j;
    }
  }
  return card;
}

bool UseGallop(size_t small_size, size_t large_size) {
  return small_size * static_cast<size_t>(Container::kGallopRatio) <
         large_size;
}

// Sorted-array intersection (two-pointer), galloping on skewed sizes.
std::vector<uint16_t> ArrayAnd(const std::vector<uint16_t>& a,
                               const std::vector<uint16_t>& b) {
  if (UseGallop(a.size(), b.size())) return ArrayAndGalloping(a, b);
  if (UseGallop(b.size(), a.size())) return ArrayAndGalloping(b, a);
  std::vector<uint16_t> out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

std::vector<uint16_t> ArrayOr(const std::vector<uint16_t>& a,
                              const std::vector<uint16_t>& b) {
  std::vector<uint16_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<uint16_t> ArrayXor(const std::vector<uint16_t>& a,
                               const std::vector<uint16_t>& b) {
  std::vector<uint16_t> out;
  out.reserve(a.size() + b.size());
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(out));
  return out;
}

std::vector<uint16_t> ArrayAndNot(const std::vector<uint16_t>& a,
                                  const std::vector<uint16_t>& b) {
  std::vector<uint16_t> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

inline bool BitmapTest(const std::vector<uint64_t>& words, uint16_t v) {
  return (words[v >> 6] >> (v & 63)) & 1;
}

inline void BitmapSet(std::vector<uint64_t>& words, uint16_t v) {
  words[v >> 6] |= uint64_t{1} << (v & 63);
}

inline void BitmapClear(std::vector<uint64_t>& words, uint16_t v) {
  words[v >> 6] &= ~(uint64_t{1} << (v & 63));
}

int BitmapCount(const std::vector<uint64_t>& words) {
  int count = 0;
  for (uint64_t w : words) count += PopCount64(w);
  return count;
}

// Sets bits [begin, end) in a 65536-bit word buffer.
void BitmapSetRange(uint64_t* words, uint32_t begin, uint32_t end) {
  if (begin >= end) return;
  const uint32_t first_word = begin >> 6;
  const uint32_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first_word == last_word) {
    words[first_word] |= first_mask & last_mask;
    return;
  }
  words[first_word] |= first_mask;
  for (uint32_t w = first_word + 1; w < last_word; ++w) words[w] = ~uint64_t{0};
  words[last_word] |= last_mask;
}

void BitmapSetRange(std::vector<uint64_t>& words, uint32_t begin,
                    uint32_t end) {
  BitmapSetRange(words.data(), begin, end);
}

void BitmapClearRange(std::vector<uint64_t>& words, uint32_t begin,
                      uint32_t end) {
  if (begin >= end) return;
  const uint32_t first_word = begin >> 6;
  const uint32_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const uint64_t last_mask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first_word == last_word) {
    words[first_word] &= ~(first_mask & last_mask);
    return;
  }
  words[first_word] &= ~first_mask;
  for (uint32_t w = first_word + 1; w < last_word; ++w) words[w] = 0;
  words[last_word] &= ~last_mask;
}

}  // namespace

Container Container::MakeBitmap() {
  Container c;
  c.type_ = ContainerType::kBitmap;
  c.words_.assign(kWordsPerBitmap, 0);
  return c;
}

Container Container::FromSorted(const uint16_t* values, int n) {
  Container c;
  if (n <= kArrayMaxCardinality) {
    c.array_.assign(values, values + n);
    c.cardinality_ = n;
    return c;
  }
  c = MakeBitmap();
  for (int i = 0; i < n; ++i) BitmapSet(c.words_, values[i]);
  c.cardinality_ = n;
  return c;
}

void Container::Add(uint16_t value) {
  switch (type_) {
    case ContainerType::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(), value);
      if (it != array_.end() && *it == value) return;
      if (cardinality_ >= kArrayMaxCardinality) {
        ConvertToBitmap();
        Add(value);
        return;
      }
      array_.insert(it, value);
      ++cardinality_;
      return;
    }
    case ContainerType::kBitmap: {
      if (!BitmapTest(words_, value)) {
        BitmapSet(words_, value);
        ++cardinality_;
      }
      return;
    }
    case ContainerType::kRun: {
      if (ContainsRun(value)) return;
      ConvertRunToBest();
      Add(value);
      return;
    }
  }
}

void Container::Remove(uint16_t value) {
  switch (type_) {
    case ContainerType::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(), value);
      if (it != array_.end() && *it == value) {
        array_.erase(it);
        --cardinality_;
      }
      return;
    }
    case ContainerType::kBitmap: {
      if (BitmapTest(words_, value)) {
        BitmapClear(words_, value);
        --cardinality_;
        if (cardinality_ <= kArrayMaxCardinality) NormalizeBitmap();
      }
      return;
    }
    case ContainerType::kRun: {
      if (!ContainsRun(value)) return;
      ConvertRunToBest();
      Remove(value);
      return;
    }
  }
}

bool Container::Contains(uint16_t value) const {
  switch (type_) {
    case ContainerType::kArray:
      return std::binary_search(array_.begin(), array_.end(), value);
    case ContainerType::kBitmap:
      return BitmapTest(words_, value);
    case ContainerType::kRun:
      return ContainsRun(value);
  }
  return false;
}

bool Container::ContainsRun(uint16_t value) const {
  // Runs are sorted by start; find the last run with start <= value.
  int lo = 0, hi = static_cast<int>(array_.size() / 2) - 1, found = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (array_[2 * mid] <= value) {
      found = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  if (found < 0) return false;
  const uint32_t start = array_[2 * found];
  const uint32_t len = array_[2 * found + 1];
  return value <= start + len;
}

void Container::AddRange(uint32_t begin, uint32_t end) {
  CHECK_LE(end, 65536u);
  if (begin >= end) return;
  if (IsEmpty()) {
    // Fresh range: the run representation is exact and minimal.
    type_ = ContainerType::kRun;
    array_ = {static_cast<uint16_t>(begin),
              static_cast<uint16_t>(end - 1 - begin)};
    words_.clear();
    cardinality_ = static_cast<int32_t>(end - begin);
    return;
  }
  if (type_ != ContainerType::kBitmap) ConvertToBitmap();
  BitmapSetRange(words_, begin, end);
  cardinality_ = BitmapCount(words_);
  if (cardinality_ <= kArrayMaxCardinality) NormalizeBitmap();
}

void Container::ConvertToBitmap() {
  if (type_ == ContainerType::kBitmap) return;
  std::vector<uint64_t> words(kWordsPerBitmap, 0);
  if (type_ == ContainerType::kArray) {
    for (uint16_t v : array_) BitmapSet(words, v);
  } else {  // kRun
    for (size_t r = 0; r + 1 < array_.size(); r += 2) {
      const uint32_t start = array_[r];
      const uint32_t len = array_[r + 1];
      BitmapSetRange(words, start, start + len + 1);
    }
  }
  words_ = std::move(words);
  array_.clear();
  array_.shrink_to_fit();
  type_ = ContainerType::kBitmap;
}

void Container::ConvertRunToBest() {
  CHECK(type_ == ContainerType::kRun);
  if (cardinality_ <= kArrayMaxCardinality) {
    std::vector<uint16_t> values;
    values.reserve(cardinality_);
    for (size_t r = 0; r + 1 < array_.size(); r += 2) {
      const uint32_t start = array_[r];
      const uint32_t len = array_[r + 1];
      for (uint32_t v = start; v <= start + len; ++v) {
        values.push_back(static_cast<uint16_t>(v));
      }
    }
    array_ = std::move(values);
    type_ = ContainerType::kArray;
  } else {
    ConvertToBitmap();
  }
}

void Container::NormalizeBitmap() {
  CHECK(type_ == ContainerType::kBitmap);
  if (cardinality_ > kArrayMaxCardinality) return;
  std::vector<uint16_t> values;
  values.reserve(cardinality_);
  ForEach([&values](uint16_t v) { values.push_back(v); });
  array_ = std::move(values);
  words_.clear();
  words_.shrink_to_fit();
  type_ = ContainerType::kArray;
}

std::vector<uint16_t> Container::ToArray() const {
  std::vector<uint16_t> out;
  out.reserve(cardinality_);
  ForEach([&out](uint16_t v) { out.push_back(v); });
  return out;
}

Container Container::And(const Container& a, const Container& b) {
  // Run operands: intersect natively when both are runs; otherwise filter
  // the other operand by the run's Contains (cheap: runs are few).
  if (a.type_ == ContainerType::kRun || b.type_ == ContainerType::kRun) {
    if (a.type_ == ContainerType::kRun && b.type_ == ContainerType::kRun) {
      Container out;
      out.type_ = ContainerType::kRun;
      size_t i = 0, j = 0;
      int card = 0;
      while (i + 1 < a.array_.size() && j + 1 < b.array_.size()) {
        const uint32_t sa = a.array_[i], ea = sa + a.array_[i + 1];
        const uint32_t sb = b.array_[j], eb = sb + b.array_[j + 1];
        const uint32_t s = std::max(sa, sb), e = std::min(ea, eb);
        if (s <= e) {
          out.array_.push_back(static_cast<uint16_t>(s));
          out.array_.push_back(static_cast<uint16_t>(e - s));
          card += static_cast<int>(e - s + 1);
        }
        if (ea < eb) {
          i += 2;
        } else {
          j += 2;
        }
      }
      out.cardinality_ = card;
      if (card == 0) {
        out = Container();
      } else if (out.array_.size() * sizeof(uint16_t) >=
                 std::min<size_t>(static_cast<size_t>(card) * 2,
                                  kWordsPerBitmap * 8)) {
        // The run form is not the smallest representation; convert.
        out.ConvertRunToBest();
      }
      return out;
    }
    const Container& run = a.type_ == ContainerType::kRun ? a : b;
    const Container& other = a.type_ == ContainerType::kRun ? b : a;
    if (other.type_ == ContainerType::kArray) {
      Container out;
      for (uint16_t v : other.array_) {
        if (run.ContainsRun(v)) out.array_.push_back(v);
      }
      out.cardinality_ = static_cast<int32_t>(out.array_.size());
      return out;
    }
    // run x bitmap: copy the bitmap restricted to the run ranges.
    Container out = MakeBitmap();
    int card = 0;
    for (size_t r = 0; r + 1 < run.array_.size(); r += 2) {
      const uint32_t start = run.array_[r];
      const uint32_t end = start + run.array_[r + 1] + 1;
      BitmapSetRange(out.words_, start, end);
    }
    for (int w = 0; w < kWordsPerBitmap; ++w) {
      out.words_[w] &= other.words_[w];
      card += PopCount64(out.words_[w]);
    }
    out.cardinality_ = card;
    out.NormalizeBitmap();
    return out;
  }

  if (a.type_ == ContainerType::kArray && b.type_ == ContainerType::kArray) {
    Container out;
    out.array_ = ArrayAnd(a.array_, b.array_);
    out.cardinality_ = static_cast<int32_t>(out.array_.size());
    return out;
  }
  if (a.type_ == ContainerType::kArray || b.type_ == ContainerType::kArray) {
    const Container& arr = a.type_ == ContainerType::kArray ? a : b;
    const Container& bmp = a.type_ == ContainerType::kArray ? b : a;
    Container out;
    out.array_.reserve(arr.array_.size());
    for (uint16_t v : arr.array_) {
      if (BitmapTest(bmp.words_, v)) out.array_.push_back(v);
    }
    out.cardinality_ = static_cast<int32_t>(out.array_.size());
    return out;
  }
  // bitmap x bitmap
  Container out = MakeBitmap();
  int card = 0;
  for (int w = 0; w < kWordsPerBitmap; ++w) {
    out.words_[w] = a.words_[w] & b.words_[w];
    card += PopCount64(out.words_[w]);
  }
  out.cardinality_ = card;
  out.NormalizeBitmap();
  return out;
}

Container Container::Or(const Container& a, const Container& b) {
  if (a.IsEmpty()) return b;
  if (b.IsEmpty()) return a;
  if (a.type_ == ContainerType::kRun || b.type_ == ContainerType::kRun) {
    if (a.type_ == ContainerType::kRun && b.type_ == ContainerType::kRun) {
      // Merge interval lists.
      Container out;
      out.type_ = ContainerType::kRun;
      size_t i = 0, j = 0;
      int64_t card = 0;
      int64_t cur_start = -1, cur_end = -1;
      auto emit = [&out, &card](int64_t s, int64_t e) {
        out.array_.push_back(static_cast<uint16_t>(s));
        out.array_.push_back(static_cast<uint16_t>(e - s));
        card += e - s + 1;
      };
      while (i + 1 < a.array_.size() || j + 1 < b.array_.size()) {
        int64_t s, e;
        const bool take_a =
            j + 1 >= b.array_.size() ||
            (i + 1 < a.array_.size() && a.array_[i] <= b.array_[j]);
        if (take_a) {
          s = a.array_[i];
          e = s + a.array_[i + 1];
          i += 2;
        } else {
          s = b.array_[j];
          e = s + b.array_[j + 1];
          j += 2;
        }
        if (cur_start < 0) {
          cur_start = s;
          cur_end = e;
        } else if (s <= cur_end + 1) {
          cur_end = std::max(cur_end, e);
        } else {
          emit(cur_start, cur_end);
          cur_start = s;
          cur_end = e;
        }
      }
      if (cur_start >= 0) emit(cur_start, cur_end);
      out.cardinality_ = static_cast<int32_t>(card);
      return out;
    }
    const Container& run = a.type_ == ContainerType::kRun ? a : b;
    const Container& other = a.type_ == ContainerType::kRun ? b : a;
    // Set the run ranges into a bitmap copy of the other operand.
    Container out = other;
    out.ConvertToBitmap();
    for (size_t r = 0; r + 1 < run.array_.size(); r += 2) {
      const uint32_t start = run.array_[r];
      const uint32_t end = start + run.array_[r + 1] + 1;
      BitmapSetRange(out.words_, start, end);
    }
    out.cardinality_ = BitmapCount(out.words_);
    out.NormalizeBitmap();
    return out;
  }

  if (a.type_ == ContainerType::kArray && b.type_ == ContainerType::kArray) {
    if (a.cardinality_ + b.cardinality_ <= kArrayMaxCardinality) {
      Container out;
      out.array_ = ArrayOr(a.array_, b.array_);
      out.cardinality_ = static_cast<int32_t>(out.array_.size());
      return out;
    }
    Container out = MakeBitmap();
    for (uint16_t v : a.array_) BitmapSet(out.words_, v);
    for (uint16_t v : b.array_) BitmapSet(out.words_, v);
    out.cardinality_ = BitmapCount(out.words_);
    out.NormalizeBitmap();
    return out;
  }
  if (a.type_ == ContainerType::kArray || b.type_ == ContainerType::kArray) {
    const Container& arr = a.type_ == ContainerType::kArray ? a : b;
    const Container& bmp = a.type_ == ContainerType::kArray ? b : a;
    Container out = bmp;
    for (uint16_t v : arr.array_) {
      if (!BitmapTest(out.words_, v)) {
        BitmapSet(out.words_, v);
        ++out.cardinality_;
      }
    }
    return out;
  }
  Container out = MakeBitmap();
  int card = 0;
  for (int w = 0; w < kWordsPerBitmap; ++w) {
    out.words_[w] = a.words_[w] | b.words_[w];
    card += PopCount64(out.words_[w]);
  }
  out.cardinality_ = card;
  return out;
}

Container Container::Xor(const Container& a, const Container& b) {
  if (a.IsEmpty()) return b;
  if (b.IsEmpty()) return a;
  if (a.type_ == ContainerType::kRun || b.type_ == ContainerType::kRun) {
    // Runs are rare on the XOR path; convert and recurse.
    Container ca = a, cb = b;
    if (ca.type_ == ContainerType::kRun) ca.ConvertRunToBest();
    if (cb.type_ == ContainerType::kRun) cb.ConvertRunToBest();
    return Xor(ca, cb);
  }
  if (a.type_ == ContainerType::kArray && b.type_ == ContainerType::kArray) {
    if (a.cardinality_ + b.cardinality_ <= kArrayMaxCardinality) {
      Container out;
      out.array_ = ArrayXor(a.array_, b.array_);
      out.cardinality_ = static_cast<int32_t>(out.array_.size());
      return out;
    }
    Container out = MakeBitmap();
    for (uint16_t v : a.array_) BitmapSet(out.words_, v);
    for (uint16_t v : b.array_) {
      if (BitmapTest(out.words_, v)) {
        BitmapClear(out.words_, v);
      } else {
        BitmapSet(out.words_, v);
      }
    }
    out.cardinality_ = BitmapCount(out.words_);
    out.NormalizeBitmap();
    return out;
  }
  if (a.type_ == ContainerType::kArray || b.type_ == ContainerType::kArray) {
    const Container& arr = a.type_ == ContainerType::kArray ? a : b;
    const Container& bmp = a.type_ == ContainerType::kArray ? b : a;
    Container out = bmp;
    for (uint16_t v : arr.array_) {
      if (BitmapTest(out.words_, v)) {
        BitmapClear(out.words_, v);
        --out.cardinality_;
      } else {
        BitmapSet(out.words_, v);
        ++out.cardinality_;
      }
    }
    if (out.cardinality_ <= kArrayMaxCardinality) out.NormalizeBitmap();
    return out;
  }
  Container out = MakeBitmap();
  int card = 0;
  for (int w = 0; w < kWordsPerBitmap; ++w) {
    out.words_[w] = a.words_[w] ^ b.words_[w];
    card += PopCount64(out.words_[w]);
  }
  out.cardinality_ = card;
  out.NormalizeBitmap();
  return out;
}

Container Container::AndNot(const Container& a, const Container& b) {
  if (a.IsEmpty() || b.IsEmpty()) return a;
  if (a.type_ == ContainerType::kRun) {
    Container ca = a;
    ca.ConvertRunToBest();
    return AndNot(ca, b);
  }
  if (a.type_ == ContainerType::kArray) {
    Container out;
    switch (b.type_) {
      case ContainerType::kArray:
        out.array_ = ArrayAndNot(a.array_, b.array_);
        break;
      case ContainerType::kBitmap:
        out.array_.reserve(a.array_.size());
        for (uint16_t v : a.array_) {
          if (!BitmapTest(b.words_, v)) out.array_.push_back(v);
        }
        break;
      case ContainerType::kRun:
        out.array_.reserve(a.array_.size());
        for (uint16_t v : a.array_) {
          if (!b.ContainsRun(v)) out.array_.push_back(v);
        }
        break;
    }
    out.cardinality_ = static_cast<int32_t>(out.array_.size());
    return out;
  }
  // a is bitmap.
  Container out = a;
  switch (b.type_) {
    case ContainerType::kArray:
      for (uint16_t v : b.array_) {
        if (BitmapTest(out.words_, v)) {
          BitmapClear(out.words_, v);
          --out.cardinality_;
        }
      }
      break;
    case ContainerType::kBitmap: {
      int card = 0;
      for (int w = 0; w < kWordsPerBitmap; ++w) {
        out.words_[w] &= ~b.words_[w];
        card += PopCount64(out.words_[w]);
      }
      out.cardinality_ = card;
      break;
    }
    case ContainerType::kRun:
      for (size_t r = 0; r + 1 < b.array_.size(); r += 2) {
        const uint32_t start = b.array_[r];
        const uint32_t end = start + b.array_[r + 1] + 1;
        BitmapClearRange(out.words_, start, end);
      }
      out.cardinality_ = BitmapCount(out.words_);
      break;
  }
  if (out.cardinality_ <= kArrayMaxCardinality) out.NormalizeBitmap();
  return out;
}

int Container::AndCardinality(const Container& a, const Container& b) {
  if (a.IsEmpty() || b.IsEmpty()) return 0;
  if (a.type_ == ContainerType::kBitmap &&
      b.type_ == ContainerType::kBitmap) {
    int card = 0;
    for (int w = 0; w < kWordsPerBitmap; ++w) {
      card += PopCount64(a.words_[w] & b.words_[w]);
    }
    return card;
  }
  if (a.type_ == ContainerType::kArray ||
      b.type_ == ContainerType::kArray) {
    const Container& arr = a.type_ == ContainerType::kArray ? a : b;
    const Container& other = a.type_ == ContainerType::kArray ? b : a;
    if (other.type_ == ContainerType::kArray) {
      if (UseGallop(arr.array_.size(), other.array_.size())) {
        return ArrayAndCardinalityGalloping(arr.array_, other.array_);
      }
      if (UseGallop(other.array_.size(), arr.array_.size())) {
        return ArrayAndCardinalityGalloping(other.array_, arr.array_);
      }
      size_t i = 0, j = 0;
      int card = 0;
      while (i < arr.array_.size() && j < other.array_.size()) {
        if (arr.array_[i] < other.array_[j]) {
          ++i;
        } else if (arr.array_[i] > other.array_[j]) {
          ++j;
        } else {
          ++card;
          ++i;
          ++j;
        }
      }
      return card;
    }
    int card = 0;
    for (uint16_t v : arr.array_) card += other.Contains(v) ? 1 : 0;
    return card;
  }
  // At least one run operand and no array operand: materialize.
  return And(a, b).Cardinality();
}

bool Container::Intersects(const Container& a, const Container& b) {
  if (a.IsEmpty() || b.IsEmpty()) return false;
  if (a.type_ == ContainerType::kBitmap &&
      b.type_ == ContainerType::kBitmap) {
    for (int w = 0; w < kWordsPerBitmap; ++w) {
      if ((a.words_[w] & b.words_[w]) != 0) return true;
    }
    return false;
  }
  if (a.type_ == ContainerType::kArray ||
      b.type_ == ContainerType::kArray) {
    const Container& arr = a.type_ == ContainerType::kArray ? a : b;
    const Container& other = a.type_ == ContainerType::kArray ? b : a;
    if (other.type_ == ContainerType::kArray) {
      // Gallop through the larger operand, early-exiting on first overlap.
      const bool a_small = arr.array_.size() <= other.array_.size();
      const std::vector<uint16_t>& small =
          a_small ? arr.array_ : other.array_;
      const std::vector<uint16_t>& large =
          a_small ? other.array_ : arr.array_;
      size_t j = 0;
      for (const uint16_t v : small) {
        j = GallopTo(large, j, v);
        if (j == large.size()) return false;
        if (large[j] == v) return true;
      }
      return false;
    }
    for (uint16_t v : arr.array_) {
      if (other.Contains(v)) return true;
    }
    return false;
  }
  return AndCardinality(a, b) > 0;
}

void Container::UnionInto(uint64_t* words) const {
  switch (type_) {
    case ContainerType::kArray:
      for (const uint16_t v : array_) {
        words[v >> 6] |= uint64_t{1} << (v & 63);
      }
      break;
    case ContainerType::kBitmap:
      for (int w = 0; w < kWordsPerBitmap; ++w) words[w] |= words_[w];
      break;
    case ContainerType::kRun:
      for (size_t r = 0; r + 1 < array_.size(); r += 2) {
        const uint32_t start = array_[r];
        BitmapSetRange(words, start, start + array_[r + 1] + 1);
      }
      break;
  }
}

const uint64_t* Container::WordsInto(uint64_t* scratch) const {
  if (type_ == ContainerType::kBitmap) return words_.data();
  std::fill_n(scratch, kWordsPerBitmap, uint64_t{0});
  UnionInto(scratch);
  return scratch;
}

Container Container::FromWords(const uint64_t* words) {
  return FromWordsRange(words, 0, kWordsPerBitmap);
}

Container Container::FromWordsRange(const uint64_t* words, int w_lo,
                                    int w_hi) {
  int card = 0;
  for (int w = w_lo; w < w_hi; ++w) card += PopCount64(words[w]);
  Container c;
  if (card == 0) return c;
  if (card <= kArrayMaxCardinality) {
    c.array_.reserve(card);
    for (int w = w_lo; w < w_hi; ++w) {
      uint64_t word = words[w];
      while (word != 0) {
        c.array_.push_back(
            static_cast<uint16_t>((w << 6) + CountTrailingZeros64(word)));
        word &= word - 1;
      }
    }
    c.cardinality_ = card;
    return c;
  }
  c.type_ = ContainerType::kBitmap;
  c.words_.assign(words, words + kWordsPerBitmap);
  c.cardinality_ = card;
  return c;
}

void Container::OrInPlaceWith(const Container& other) {
  if (other.IsEmpty()) return;
  if (IsEmpty()) {
    *this = other;
    return;
  }
  if (type_ == ContainerType::kBitmap) {
    // OR never shrinks a bitmap below the threshold, so no normalization.
    other.UnionInto(words_.data());
    cardinality_ = BitmapCount(words_);
    return;
  }
  if (type_ == ContainerType::kArray &&
      other.type_ == ContainerType::kArray &&
      cardinality_ + other.cardinality_ <= kArrayMaxCardinality) {
    // Merge through a reusable scratch vector, then copy back into the
    // receiver's existing capacity: steady-state, no heap traffic.
    static thread_local std::vector<uint16_t> scratch;
    scratch.clear();
    scratch.reserve(kArrayMaxCardinality);
    std::set_union(array_.begin(), array_.end(), other.array_.begin(),
                   other.array_.end(), std::back_inserter(scratch));
    array_.assign(scratch.begin(), scratch.end());
    cardinality_ = static_cast<int32_t>(array_.size());
    return;
  }
  *this = Or(*this, other);
}

void Container::AndInPlaceWith(const Container& other) {
  if (IsEmpty()) return;
  if (other.IsEmpty()) {
    *this = Container();
    return;
  }
  if (type_ == ContainerType::kBitmap &&
      other.type_ == ContainerType::kBitmap) {
    int card = 0;
    for (int w = 0; w < kWordsPerBitmap; ++w) {
      words_[w] &= other.words_[w];
      card += PopCount64(words_[w]);
    }
    cardinality_ = card;
    if (card == 0) {
      *this = Container();
    } else {
      NormalizeBitmap();
    }
    return;
  }
  *this = And(*this, other);
}

void Container::XorInPlaceWith(const Container& other) {
  if (other.IsEmpty()) return;
  if (IsEmpty()) {
    *this = other;
    return;
  }
  if (type_ == ContainerType::kBitmap &&
      other.type_ == ContainerType::kBitmap) {
    int card = 0;
    for (int w = 0; w < kWordsPerBitmap; ++w) {
      words_[w] ^= other.words_[w];
      card += PopCount64(words_[w]);
    }
    cardinality_ = card;
    if (card == 0) {
      *this = Container();
    } else {
      NormalizeBitmap();
    }
    return;
  }
  *this = Xor(*this, other);
}

void Container::AndNotInPlaceWith(const Container& other) {
  if (IsEmpty() || other.IsEmpty()) return;
  if (type_ == ContainerType::kBitmap) {
    switch (other.type_) {
      case ContainerType::kArray:
        for (const uint16_t v : other.array_) {
          if (BitmapTest(words_, v)) {
            BitmapClear(words_, v);
            --cardinality_;
          }
        }
        break;
      case ContainerType::kBitmap: {
        int card = 0;
        for (int w = 0; w < kWordsPerBitmap; ++w) {
          words_[w] &= ~other.words_[w];
          card += PopCount64(words_[w]);
        }
        cardinality_ = card;
        break;
      }
      case ContainerType::kRun:
        for (size_t r = 0; r + 1 < other.array_.size(); r += 2) {
          const uint32_t start = other.array_[r];
          BitmapClearRange(words_, start, start + other.array_[r + 1] + 1);
        }
        cardinality_ = BitmapCount(words_);
        break;
    }
    if (cardinality_ == 0) {
      *this = Container();
    } else {
      NormalizeBitmap();
    }
    return;
  }
  *this = AndNot(*this, other);
}

int Container::NextValue(uint32_t from) const {
  if (from > 65535) return -1;
  switch (type_) {
    case ContainerType::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(),
                                 static_cast<uint16_t>(from));
      return it == array_.end() ? -1 : *it;
    }
    case ContainerType::kBitmap: {
      uint32_t word_idx = from >> 6;
      uint64_t word = words_[word_idx] & (~uint64_t{0} << (from & 63));
      while (true) {
        if (word != 0) {
          return static_cast<int>((word_idx << 6) +
                                  CountTrailingZeros64(word));
        }
        if (++word_idx >= static_cast<uint32_t>(kWordsPerBitmap)) return -1;
        word = words_[word_idx];
      }
    }
    case ContainerType::kRun: {
      for (size_t r = 0; r + 1 < array_.size(); r += 2) {
        const uint32_t start = array_[r];
        const uint32_t end = start + array_[r + 1];
        if (from <= end) {
          return static_cast<int>(std::max(from, start));
        }
      }
      return -1;
    }
  }
  return -1;
}

int Container::Rank(uint16_t value) const {
  switch (type_) {
    case ContainerType::kArray:
      return static_cast<int>(std::upper_bound(array_.begin(), array_.end(),
                                               value) -
                              array_.begin());
    case ContainerType::kBitmap: {
      const int full_words = value >> 6;
      int rank = 0;
      for (int w = 0; w < full_words; ++w) rank += PopCount64(words_[w]);
      const int bit = value & 63;
      const uint64_t mask =
          bit == 63 ? ~uint64_t{0} : ((uint64_t{1} << (bit + 1)) - 1);
      rank += PopCount64(words_[full_words] & mask);
      return rank;
    }
    case ContainerType::kRun: {
      int rank = 0;
      for (size_t r = 0; r + 1 < array_.size(); r += 2) {
        const uint32_t start = array_[r];
        const uint32_t len = array_[r + 1];
        if (value < start) break;
        if (value >= start + len) {
          rank += static_cast<int>(len + 1);
        } else {
          rank += static_cast<int>(value - start + 1);
          break;
        }
      }
      return rank;
    }
  }
  return 0;
}

uint16_t Container::Select(int i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, cardinality_);
  switch (type_) {
    case ContainerType::kArray:
      return array_[i];
    case ContainerType::kBitmap: {
      int remaining = i;
      for (int w = 0; w < kWordsPerBitmap; ++w) {
        const int count = PopCount64(words_[w]);
        if (remaining < count) {
          uint64_t word = words_[w];
          for (int k = 0; k < remaining; ++k) word &= word - 1;
          return static_cast<uint16_t>((w << 6) + CountTrailingZeros64(word));
        }
        remaining -= count;
      }
      CHECK(false);  // unreachable given i < cardinality_
      return 0;
    }
    case ContainerType::kRun: {
      int remaining = i;
      for (size_t r = 0; r + 1 < array_.size(); r += 2) {
        const int run_card = static_cast<int>(array_[r + 1]) + 1;
        if (remaining < run_card) {
          return static_cast<uint16_t>(array_[r] + remaining);
        }
        remaining -= run_card;
      }
      CHECK(false);
      return 0;
    }
  }
  return 0;
}

uint16_t Container::Minimum() const {
  CHECK(!IsEmpty());
  return Select(0);
}

uint16_t Container::Maximum() const {
  CHECK(!IsEmpty());
  return Select(cardinality_ - 1);
}

bool Container::Equals(const Container& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (type_ == other.type_) {
    if (type_ == ContainerType::kBitmap) return words_ == other.words_;
    return array_ == other.array_;
  }
  // Different representations can hold the same set.
  return ToArray() == other.ToArray();
}

void Container::RunOptimize() {
  if (IsEmpty()) return;
  // Count runs in the current representation.
  int num_runs = 0;
  int64_t prev = -2;
  std::vector<uint16_t> run_pairs;
  int64_t run_start = -1;
  auto flush = [&run_pairs, &num_runs, &run_start](int64_t last) {
    if (run_start >= 0) {
      run_pairs.push_back(static_cast<uint16_t>(run_start));
      run_pairs.push_back(static_cast<uint16_t>(last - run_start));
      ++num_runs;
    }
  };
  ForEach([&](uint16_t v) {
    if (static_cast<int64_t>(v) != prev + 1) {
      flush(prev);
      run_start = v;
    }
    prev = v;
  });
  flush(prev);

  const size_t run_bytes = run_pairs.size() * sizeof(uint16_t);
  const size_t array_bytes = static_cast<size_t>(cardinality_) * 2;
  const size_t bitmap_bytes = kWordsPerBitmap * 8;
  const size_t current_best = std::min(
      bitmap_bytes, cardinality_ <= kArrayMaxCardinality ? array_bytes
                                                         : bitmap_bytes);
  if (run_bytes < current_best) {
    type_ = ContainerType::kRun;
    array_ = std::move(run_pairs);
    words_.clear();
    words_.shrink_to_fit();
  }
}

size_t Container::SizeInBytes() const {
  switch (type_) {
    case ContainerType::kArray:
    case ContainerType::kRun:
      return array_.size() * sizeof(uint16_t);
    case ContainerType::kBitmap:
      return words_.size() * sizeof(uint64_t);
  }
  return 0;
}

void Container::Serialize(std::string* out) const {
  PutU8(out, static_cast<uint8_t>(type_));
  switch (type_) {
    case ContainerType::kArray:
      PutU32(out, static_cast<uint32_t>(array_.size()));
      PutArray(out, array_.data(), array_.size());
      break;
    case ContainerType::kBitmap:
      PutU32(out, static_cast<uint32_t>(cardinality_));
      PutArray(out, words_.data(), words_.size());
      break;
    case ContainerType::kRun:
      PutU32(out, static_cast<uint32_t>(array_.size() / 2));
      PutArray(out, array_.data(), array_.size());
      break;
  }
}

Result<Container> Container::Deserialize(ByteReader* reader) {
  uint8_t type_byte = 0;
  if (!reader->ReadU8(&type_byte)) {
    return Status::Corruption("container: truncated type");
  }
  if (type_byte > 2) return Status::Corruption("container: bad type byte");
  uint32_t n = 0;
  if (!reader->ReadU32(&n)) {
    return Status::Corruption("container: truncated count");
  }
  Container c;
  switch (static_cast<ContainerType>(type_byte)) {
    case ContainerType::kArray: {
      if (n > 65536) return Status::Corruption("container: array too large");
      if (!reader->ReadArray(n, &c.array_)) {
        return Status::Corruption("container: truncated array");
      }
      // The sorted-unique invariant is what every binary search and
      // galloping intersect relies on; accepting an unsorted array would be
      // a silently wrong decode, not a crash.
      for (size_t i = 1; i < c.array_.size(); ++i) {
        if (c.array_[i] <= c.array_[i - 1]) {
          return Status::Corruption("container: array not sorted");
        }
      }
      c.cardinality_ = static_cast<int32_t>(n);
      break;
    }
    case ContainerType::kBitmap: {
      if (!reader->ReadArray(kWordsPerBitmap, &c.words_)) {
        return Status::Corruption("container: truncated bitmap");
      }
      if (n > 65536) return Status::Corruption("container: bad cardinality");
      c.type_ = ContainerType::kBitmap;
      c.cardinality_ = static_cast<int32_t>(n);
      // Unconditional: a wrong stored cardinality silently skews every
      // count downstream, and the popcount pass is one linear sweep of the
      // 8KB bitmap that branch-predicts perfectly -- cheap next to the
      // copy above.
      if (BitmapCount(c.words_) != c.cardinality_) {
        return Status::Corruption("container: bitmap cardinality mismatch");
      }
      break;
    }
    case ContainerType::kRun: {
      if (n > 32768) return Status::Corruption("container: too many runs");
      if (!reader->ReadArray(size_t{n} * 2, &c.array_)) {
        return Status::Corruption("container: truncated runs");
      }
      c.type_ = ContainerType::kRun;
      int64_t card = 0;
      int64_t prev_end = -1;  // runs must be ordered and non-overlapping
      for (size_t r = 0; r + 1 < c.array_.size(); r += 2) {
        const int64_t start = c.array_[r];
        const int64_t len = c.array_[r + 1];
        if (start <= prev_end) {
          return Status::Corruption("container: runs out of order");
        }
        if (start + len > 65535) {
          return Status::Corruption("container: run exceeds chunk");
        }
        prev_end = start + len;
        card += len + 1;
      }
      if (card > 65536) return Status::Corruption("container: bad run card");
      c.cardinality_ = static_cast<int32_t>(card);
      break;
    }
  }
  return c;
}

}  // namespace expbsi
