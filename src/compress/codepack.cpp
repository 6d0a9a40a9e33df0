#include "compress/codepack.hpp"

#include <algorithm>
#include <map>

#include "support/assert.hpp"
#include "support/bitstream.hpp"

namespace apcc::compress {

CodePackCodec::CodePackCodec(const BlockBytes& training_blocks) {
  costs_ = CodecCosts{.decompress_cycles_per_byte = 1.2,
                      .compress_cycles_per_byte = 4.0,
                      .decompress_fixed_cycles = 32,
                      .compress_fixed_cycles = 64};

  std::map<std::uint16_t, std::uint64_t> freqs;
  for (const ByteView block : training_blocks) {
    for (std::size_t i = 0; i + 1 < block.size(); i += 2) {
      const auto half = static_cast<std::uint16_t>(
          block[i] | (std::uint16_t{block[i + 1]} << 8));
      ++freqs[half];
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint16_t>> ranked;
  ranked.reserve(freqs.size());
  for (const auto& [half, count] : freqs) {
    ranked.emplace_back(count, half);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // deterministic tie-break
  });
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const std::uint16_t half = ranked[i].second;
    if (i < kDictASize) {
      lookup_[half] = {0, static_cast<std::uint16_t>(dict_a_.size())};
      dict_a_.push_back(half);
    } else if (i < kDictASize + kDictBSize) {
      lookup_[half] = {1, static_cast<std::uint16_t>(dict_b_.size())};
      dict_b_.push_back(half);
    } else {
      break;
    }
  }
}

Bytes CodePackCodec::compress(ByteView input) const {
  BitWriter writer;
  std::size_t i = 0;
  for (; i + 1 < input.size(); i += 2) {
    const auto half = static_cast<std::uint16_t>(
        input[i] | (std::uint16_t{input[i + 1]} << 8));
    const auto it = lookup_.find(half);
    if (it == lookup_.end()) {
      writer.write_bit(true);
      writer.write_bits(half, 16);
    } else if (it->second.first == 0) {
      writer.write_bits(0b00, 2);
      writer.write_bits(it->second.second, 4);
    } else {
      writer.write_bits(0b01, 2);
      writer.write_bits(it->second.second, 8);
    }
  }
  if (i < input.size()) {  // odd trailing byte
    writer.write_byte(input[i]);
  }
  return writer.take();
}

Bytes CodePackCodec::decompress(ByteView input,
                                std::size_t original_size) const {
  Bytes out;
  out.reserve(original_size);
  BitReader reader(input);
  while (out.size() + 1 < original_size) {
    std::uint16_t half = 0;
    if (reader.read_bit()) {
      half = static_cast<std::uint16_t>(reader.read_bits(16));
    } else if (reader.read_bit()) {
      const std::uint32_t index = reader.read_bits(8);
      APCC_CHECK(index < dict_b_.size(), "codepack: bad dict-B index");
      half = dict_b_[index];
    } else {
      const std::uint32_t index = reader.read_bits(4);
      APCC_CHECK(index < dict_a_.size(), "codepack: bad dict-A index");
      half = dict_a_[index];
    }
    out.push_back(static_cast<std::uint8_t>(half & 0xff));
    out.push_back(static_cast<std::uint8_t>(half >> 8));
  }
  if (out.size() < original_size) {  // odd trailing byte
    out.push_back(reader.read_byte());
  }
  APCC_CHECK(out.size() == original_size, "codepack size mismatch");
  return out;
}

}  // namespace apcc::compress
