#ifndef EXPBSI_COMMON_BYTE_IO_H_
#define EXPBSI_COMMON_BYTE_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace expbsi {

// The one byte codec of the codebase. Every integer in every persisted or
// transmitted format -- roaring containers, BSI blobs, store files,
// snapshots, WAL segments and the wire protocol (DESIGN.md §6, §9.1) -- is
// little-endian and passes through these helpers, so a blob pushed over
// the wire in replica repair is byte-for-byte the blob a snapshot stores.
//
// Values are copied with memcpy, which compiles to one load or store; the
// assert makes that copy the little-endian encoding. Every value has
// exactly one byte representation, so "decode then re-encode" is bit
// identity -- the contract the golden corpus and the decode fuzzer assert.
static_assert(std::endian::native == std::endian::little,
              "common/byte_io.h copies host-order bytes as little-endian");

namespace byte_io_internal {

template <typename T>
inline void Put(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
inline T Load(const char* p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace byte_io_internal

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* out, uint16_t v) {
  byte_io_internal::Put(out, v);
}
inline void PutU32(std::string* out, uint32_t v) {
  byte_io_internal::Put(out, v);
}
inline void PutU64(std::string* out, uint64_t v) {
  byte_io_internal::Put(out, v);
}
// Doubles travel as their IEEE-754 bit pattern, so a scorecard value
// computed on a node is BIT-identical after the round trip (the
// cross-process differential sweep compares with ==, not a tolerance).
inline void PutF64(std::string* out, double v) {
  byte_io_internal::Put(out, v);
}

// Appends `n` fixed-width elements in one copy (container payloads).
template <typename T>
inline void PutArray(std::string* out, const T* data, size_t n) {
  static_assert(std::is_arithmetic_v<T>);
  out->append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

// Length-prefixed string: [len u32][bytes].
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

// Fixed-offset loads for callers that have already bounds-checked the
// buffer (CRC-framed headers, whole-word hashing).
inline uint8_t ReadU8(const char* p) { return static_cast<uint8_t>(p[0]); }
inline uint16_t ReadU16(const char* p) {
  return byte_io_internal::Load<uint16_t>(p);
}
inline uint32_t ReadU32(const char* p) {
  return byte_io_internal::Load<uint32_t>(p);
}
inline uint64_t ReadU64(const char* p) {
  return byte_io_internal::Load<uint64_t>(p);
}

// Bounds-checked cursor over untrusted bytes. Every Read* returns false
// once the remaining bytes run out, and no length or count read from the
// buffer sizes an allocation before it is checked against `remaining()`.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool empty() const { return p_ == end_; }

  bool ReadU8(uint8_t* v) { return Read(v); }
  bool ReadU16(uint16_t* v) { return Read(v); }
  bool ReadU32(uint32_t* v) { return Read(v); }
  bool ReadU64(uint64_t* v) { return Read(v); }
  bool ReadF64(double* v) { return Read(v); }

  // The next `n` bytes as a view into the buffer (nested blocks, payloads
  // whose checksum is verified before they are parsed).
  bool ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = std::string_view(p_, n);
    p_ += n;
    return true;
  }
  // `n` fixed-width elements into `out`, resized only after the bytes are
  // known to be there.
  template <typename T>
  bool ReadArray(size_t n, std::vector<T>* out) {
    static_assert(std::is_arithmetic_v<T>);
    if (n > remaining() / sizeof(T)) return false;
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), p_, n * sizeof(T));
    p_ += n * sizeof(T);
    return true;
  }
  // Length-prefixed string: [len u32][bytes]. `max_len` caps the length
  // BEFORE the allocation; the remaining-bytes check rejects a length that
  // overruns the payload.
  bool ReadString(std::string* out, uint32_t max_len) {
    uint32_t len = 0;
    std::string_view bytes;
    if (!ReadU32(&len) || len > max_len || !ReadBytes(len, &bytes)) {
      return false;
    }
    out->assign(bytes);
    return true;
  }
  // Count prefix for an array of `elem_bytes`-sized elements: rejects any
  // count whose payload could not fit in the remaining bytes, so the
  // caller's reserve/resize is always bounded by the buffer size.
  bool ReadCount(uint32_t* count, size_t elem_bytes) {
    if (!ReadU32(count)) return false;
    return elem_bytes == 0 ||
           static_cast<uint64_t>(*count) * elem_bytes <= remaining();
  }

 private:
  template <typename T>
  bool Read(T* v) {
    if (remaining() < sizeof(T)) return false;
    *v = byte_io_internal::Load<T>(p_);
    p_ += sizeof(T);
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace expbsi

#endif  // EXPBSI_COMMON_BYTE_IO_H_
