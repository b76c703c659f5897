#ifndef EXPBSI_ROARING_CONTAINER_H_
#define EXPBSI_ROARING_CONTAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/status.h"

namespace expbsi {

class ByteReader;  // common/byte_io.h

// Physical layout of one Roaring container (the low-16-bit set of all values
// that share a 16-bit key). Mirrors Chambi et al. (2016):
//
//   kArray  -- sorted uint16 values; used while cardinality <= 4096.
//   kBitmap -- 1024 x 64-bit words (8 KiB); used for dense containers.
//   kRun    -- sorted (start, length-1) uint16 pairs; produced by
//              RunOptimize() / AddRange() when runs are cheaper.
enum class ContainerType : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };

// One Roaring container. Value type: copyable and movable; an empty
// container is a valid (empty-array) container.
//
// All mutating operations keep `cardinality()` exact and normalize the
// representation between array and bitmap around the 4096 threshold. Run
// containers are only created explicitly (RunOptimize / AddRange / run-run
// ops) and are converted back by mutation when that is simpler.
class Container {
 public:
  static constexpr int kArrayMaxCardinality = 4096;
  static constexpr int kWordsPerBitmap = 1024;  // 65536 bits

  // Array-array intersections switch from the linear two-pointer merge to
  // galloping (exponential search) when one operand is at least this many
  // times larger than the other. Below the ratio the merge's sequential
  // access wins; above it, skipping whole blocks of the large operand does.
  static constexpr int kGallopRatio = 32;

  Container() = default;

  Container(const Container&) = default;
  Container& operator=(const Container&) = default;
  Container(Container&&) = default;
  Container& operator=(Container&&) = default;

  // Builds directly from sorted, distinct values (fast bulk path).
  static Container FromSorted(const uint16_t* values, int n);

  ContainerType type() const { return type_; }
  int Cardinality() const { return cardinality_; }
  bool IsEmpty() const { return cardinality_ == 0; }

  void Add(uint16_t value);
  void Remove(uint16_t value);
  bool Contains(uint16_t value) const;

  // Adds every value in [begin, end); end <= 65536.
  void AddRange(uint32_t begin, uint32_t end);

  // Set-algebra operations. Results are normalized to their best
  // representation (array below the threshold, bitmap above; run results
  // are kept when produced from run inputs and still compact).
  static Container And(const Container& a, const Container& b);
  static Container Or(const Container& a, const Container& b);
  static Container Xor(const Container& a, const Container& b);
  static Container AndNot(const Container& a, const Container& b);

  // |a AND b| without materializing the intersection where possible.
  static int AndCardinality(const Container& a, const Container& b);

  // True if a and b intersect (early-exit version of AndCardinality > 0).
  static bool Intersects(const Container& a, const Container& b);

  void OrInPlace(const Container& other) { *this = Or(*this, other); }

  // Destructive in-place variants: mutate the receiver without reallocating
  // its payload where the representation allows (bitmap words are updated in
  // place; small array-array unions reuse the existing array capacity). They
  // fall back to the allocating static ops otherwise, so they are always
  // semantically identical to `*this = Op(*this, other)`.
  void OrInPlaceWith(const Container& other);
  void AndInPlaceWith(const Container& other);
  void XorInPlaceWith(const Container& other);
  void AndNotInPlaceWith(const Container& other);

  // ORs this container's bits into a caller-owned 65536-bit word buffer
  // (kWordsPerBitmap words). The multi-way-union primitive: N containers of
  // one key are folded into the buffer and converted back exactly once.
  void UnionInto(uint64_t* words) const;

  // Builds a container from a 65536-bit word buffer, normalized to array
  // form when the cardinality is at or below kArrayMaxCardinality.
  static Container FromWords(const uint64_t* words);

  // FromWords restricted to the word window [w_lo, w_hi): only those words
  // are scanned, and every word outside the window must be zero (the
  // returned container still represents the full buffer). Lets kernels that
  // track which words they dirtied skip the empty tail of a scratch buffer.
  static Container FromWordsRange(const uint64_t* words, int w_lo, int w_hi);

  // Raw 1024-word payload when type() == kBitmap, nullptr otherwise. Lets
  // word-at-a-time kernels read dense containers without a copy.
  const uint64_t* BitmapWords() const {
    return type_ == ContainerType::kBitmap ? words_.data() : nullptr;
  }

  // Read-only word view for any representation: dense containers lend their
  // bitmap payload directly; array/run containers overwrite `scratch`
  // (kWordsPerBitmap words, caller-owned) with their bits and return it.
  // The word-level compare/range kernels use this to treat every container
  // uniformly inside a chunk.
  const uint64_t* WordsInto(uint64_t* scratch) const;

  // Number of values <= `value`.
  int Rank(uint16_t value) const;

  // i-th smallest value, 0-based; requires i < Cardinality().
  uint16_t Select(int i) const;

  // Smallest / largest stored value; container must be non-empty.
  uint16_t Minimum() const;
  uint16_t Maximum() const;

  bool Equals(const Container& other) const;

  // Switches to the run representation when it is the smallest of the three.
  void RunOptimize();

  // Bytes of payload this container occupies in memory (and, to within a
  // few header bytes, when serialized).
  size_t SizeInBytes() const;

  // Appends [type:u8][count:u32][payload] to `out`.
  void Serialize(std::string* out) const;

  // Parses a container produced by Serialize, advancing `reader` past it.
  static Result<Container> Deserialize(ByteReader* reader);

  // Invokes fn(uint16_t) for every value in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    switch (type_) {
      case ContainerType::kArray:
        for (uint16_t v : array_) fn(v);
        break;
      case ContainerType::kBitmap:
        for (int w = 0; w < kWordsPerBitmap; ++w) {
          uint64_t word = words_[w];
          while (word != 0) {
            const int bit = CountTrailingZeros64(word);
            fn(static_cast<uint16_t>((w << 6) + bit));
            word &= word - 1;
          }
        }
        break;
      case ContainerType::kRun:
        for (size_t r = 0; r + 1 < array_.size(); r += 2) {
          const uint32_t start = array_[r];
          const uint32_t len = array_[r + 1];
          for (uint32_t v = start; v <= start + len; ++v) {
            fn(static_cast<uint16_t>(v));
          }
        }
        break;
    }
  }

  // Copies all values, ascending, into a plain array container form.
  std::vector<uint16_t> ToArray() const;

  // Smallest stored value >= from, or -1 if none. Powers streaming
  // iteration without materializing the container.
  int NextValue(uint32_t from) const;

 private:
  friend class ContainerTestPeer;

  // Representation switches.
  void ConvertToBitmap();
  // Converts a run container to array (card <= threshold) or bitmap.
  void ConvertRunToBest();
  // After bitmap mutation: recount and downgrade to array if small.
  void NormalizeBitmap();

  static Container MakeBitmap();

  bool ContainsRun(uint16_t value) const;

  ContainerType type_ = ContainerType::kArray;
  int32_t cardinality_ = 0;
  // kArray: sorted values. kRun: flattened (start, length-1) pairs.
  std::vector<uint16_t> array_;
  // kBitmap: exactly kWordsPerBitmap words.
  std::vector<uint64_t> words_;
};

}  // namespace expbsi

#endif  // EXPBSI_ROARING_CONTAINER_H_
