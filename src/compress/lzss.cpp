#include "compress/lzss.hpp"

#include <algorithm>
#include <array>

#include "support/assert.hpp"
#include "support/bitstream.hpp"

namespace apcc::compress {

namespace {

constexpr std::size_t kHashSize = 1 << 13;
constexpr int kMaxChainProbes = 64;

std::size_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                          (std::uint32_t{p[2]} << 16);
  return (v * 2654435761u) >> 19 & (kHashSize - 1);
}

}  // namespace

LzssCodec::LzssCodec() {
  costs_ = CodecCosts{.decompress_cycles_per_byte = 2.5,
                      .compress_cycles_per_byte = 20.0,
                      .decompress_fixed_cycles = 48,
                      .compress_fixed_cycles = 256};
}

Bytes LzssCodec::compress(ByteView input) const {
  BitWriter writer;
  const std::size_t n = input.size();
  // Hash-chain matcher: head[h] is the most recent position with hash h,
  // prev[pos & mask] chains to the previous one. The 48 KiB of tables
  // are kept per thread: an image build compresses thousands of blocks
  // of a few words each, and filling fresh tables per block cost more
  // than encoding it. head must be all -1 when a call starts, so on
  // every exit the guard puts back -1 in each slot this call's inserts
  // could have written. prev needs no reset: a chain starts at a
  // position this call inserted, and inserting a position writes its
  // prev slot first, so no earlier call's value is ever read.
  thread_local std::vector<std::int32_t> head(kHashSize, -1);
  thread_local std::vector<std::int32_t> prev(kWindowSize);
  struct Restore {
    ByteView input;
    ~Restore() {
      for (std::size_t at = 0; at + kMinMatch <= input.size(); ++at) {
        head[hash3(input.data() + at)] = -1;
      }
    }
  } const restore{input};

  std::size_t pos = 0;
  auto insert = [&](std::size_t at) {
    if (at + kMinMatch > n) return;
    const std::size_t h = hash3(input.data() + at);
    prev[at & (kWindowSize - 1)] = head[h];
    head[h] = static_cast<std::int32_t>(at);
  };

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    if (pos + kMinMatch <= n) {
      std::int32_t candidate = head[hash3(input.data() + pos)];
      int probes = kMaxChainProbes;
      while (candidate >= 0 && probes-- > 0) {
        const auto cand = static_cast<std::size_t>(candidate);
        if (pos - cand > kWindowSize) break;
        const std::size_t limit = std::min(kMaxMatch, n - pos);
        std::size_t len = 0;
        while (len < limit && input[cand + len] == input[pos + len]) {
          ++len;
        }
        if (len > best_len) {
          best_len = len;
          best_offset = pos - cand;
          if (len == kMaxMatch) break;
        }
        candidate = prev[cand & (kWindowSize - 1)];
      }
    }
    if (best_len >= kMinMatch) {
      writer.write_bit(false);
      writer.write_bits(static_cast<std::uint32_t>(best_offset - 1), 12);
      writer.write_bits(static_cast<std::uint32_t>(best_len - kMinMatch), 4);
      for (std::size_t i = 0; i < best_len; ++i) {
        insert(pos + i);
      }
      pos += best_len;
    } else {
      writer.write_bit(true);
      writer.write_byte(input[pos]);
      insert(pos);
      ++pos;
    }
  }
  return writer.take();
}

Bytes LzssCodec::decompress(ByteView input, std::size_t original_size) const {
  Bytes out;
  out.reserve(original_size);
  BitReader reader(input);
  while (out.size() < original_size) {
    if (reader.read_bit()) {
      out.push_back(reader.read_byte());
    } else {
      const std::size_t offset = reader.read_bits(12) + 1;
      const std::size_t length = reader.read_bits(4) + kMinMatch;
      APCC_CHECK(offset <= out.size(), "lzss match before stream start");
      APCC_CHECK(out.size() + length <= original_size + kMaxMatch,
                 "lzss output overrun");
      const std::size_t start = out.size() - offset;
      for (std::size_t i = 0; i < length; ++i) {
        out.push_back(out[start + i]);  // may overlap; byte-serial is correct
      }
    }
  }
  APCC_CHECK(out.size() == original_size, "lzss size mismatch");
  return out;
}

}  // namespace apcc::compress
