#include "storage/block_compressor.h"

#include <cstdint>
#include <vector>

#include "common/byte_io.h"
#include "common/check.h"

namespace expbsi {
namespace {

constexpr int kMinMatch = 4;
constexpr int kHashBits = 16;
constexpr int kMaxOffset = 65535;
// The last bytes of a block are always emitted as literals so the
// decompressor's wild copies stay in bounds.
constexpr size_t kTailLiterals = 12;

inline uint32_t HashWindow(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Writes a length using LZ4's 255-chain extension scheme.
void PutExtendedLength(std::string* out, size_t len) {
  while (len >= 255) {
    out->push_back(static_cast<char>(255));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

void EmitSequence(std::string* out, const char* literals, size_t num_literals,
                  size_t match_len, size_t offset) {
  const size_t lit_token = num_literals < 15 ? num_literals : 15;
  const size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  const size_t match_token = match_code < 15 ? match_code : 15;
  out->push_back(static_cast<char>((lit_token << 4) | match_token));
  if (lit_token == 15) PutExtendedLength(out, num_literals - 15);
  out->append(literals, num_literals);
  if (match_len == 0) return;  // final literal-only sequence
  PutU16(out, static_cast<uint16_t>(offset));
  if (match_token == 15) PutExtendedLength(out, match_code - 15);
}

}  // namespace

std::string Lz4LikeCompress(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 16);
  const char* base = input.data();
  const size_t n = input.size();
  if (n <= kTailLiterals + kMinMatch) {
    EmitSequence(&out, base, n, 0, 0);
    return out;
  }
  std::vector<uint32_t> table(1u << kHashBits, 0);  // position + 1
  const size_t match_limit = n - kTailLiterals;
  size_t anchor = 0;  // start of pending literals
  size_t pos = 0;
  while (pos < match_limit) {
    const uint32_t h = HashWindow(ReadU32(base + pos));
    const uint32_t candidate_plus_one = table[h];
    table[h] = static_cast<uint32_t>(pos) + 1;
    if (candidate_plus_one != 0) {
      const size_t candidate = candidate_plus_one - 1;
      const size_t offset = pos - candidate;
      if (offset <= kMaxOffset && offset > 0 &&
          ReadU32(base + candidate) == ReadU32(base + pos)) {
        // Extend the match forward.
        size_t match_len = kMinMatch;
        while (pos + match_len < match_limit &&
               base[candidate + match_len] == base[pos + match_len]) {
          ++match_len;
        }
        EmitSequence(&out, base + anchor, pos - anchor, match_len, offset);
        pos += match_len;
        anchor = pos;
        continue;
      }
    }
    ++pos;
  }
  EmitSequence(&out, base + anchor, n - anchor, 0, 0);
  return out;
}

Result<std::string> Lz4LikeDecompress(std::string_view compressed,
                                      size_t original_size) {
  // A match token can expand at most ~255x per length byte; a claimed
  // original size beyond that bound (e.g. from a corrupted frame header)
  // cannot be genuine, and trusting it would let hostile input drive
  // allocation.
  if (original_size > compressed.size() * 255 + 64) {
    return Status::Corruption("lz4: implausible original size");
  }
  std::string out;
  out.reserve(original_size);
  size_t pos = 0;
  const size_t n = compressed.size();
  auto read_extended = [&](size_t* len) {
    while (pos < n) {
      const uint8_t b = static_cast<uint8_t>(compressed[pos++]);
      *len += b;
      if (b != 255) return true;
    }
    return false;
  };
  while (pos < n) {
    const uint8_t token = static_cast<uint8_t>(compressed[pos++]);
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !read_extended(&lit_len)) {
      return Status::Corruption("lz4: truncated literal length");
    }
    if (n - pos < lit_len) return Status::Corruption("lz4: truncated literals");
    if (out.size() + lit_len > original_size) {
      return Status::Corruption("lz4: output exceeds declared size");
    }
    out.append(compressed.data() + pos, lit_len);
    pos += lit_len;
    if (pos >= n) break;  // final sequence has no match part
    if (n - pos < 2) return Status::Corruption("lz4: truncated offset");
    const size_t offset = ReadU16(compressed.data() + pos);
    pos += 2;
    size_t match_len = (token & 0xF);
    if (match_len == 15 && !read_extended(&match_len)) {
      return Status::Corruption("lz4: truncated match length");
    }
    match_len += kMinMatch;
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("lz4: bad offset");
    }
    if (out.size() + match_len > original_size) {
      return Status::Corruption("lz4: output exceeds declared size");
    }
    // Byte-by-byte copy: offsets < match_len intentionally replicate.
    size_t src = out.size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out.push_back(out[src + i]);
    }
  }
  if (out.size() != original_size) {
    return Status::Corruption("lz4: size mismatch after decompression");
  }
  return out;
}

std::string CompressBlock(std::string_view input) {
  std::string out;
  PutU64(&out, input.size());
  out += Lz4LikeCompress(input);
  return out;
}

Result<std::string> DecompressBlock(std::string_view block) {
  ByteReader r(block);
  uint64_t size = 0;
  if (!r.ReadU64(&size)) {
    return Status::Corruption("block: truncated size header");
  }
  return Lz4LikeDecompress(block.substr(sizeof(size)),
                           static_cast<size_t>(size));
}

}  // namespace expbsi
