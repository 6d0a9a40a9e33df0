#include "compress/fieldsplit.hpp"

#include "support/assert.hpp"
#include "support/bitstream.hpp"

namespace apcc::compress {

FieldSplitCodec::FieldSplitCodec(const BlockBytes& training_blocks) {
  costs_ = CodecCosts{.decompress_cycles_per_byte = 6.5,
                      .compress_cycles_per_byte = 11.0,
                      .decompress_fixed_cycles = 96,
                      .compress_fixed_cycles = 128};
  for (const ByteView block : training_blocks) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      ++freqs_[i % kLanes][block[i]];
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    // Add-one smoothing keeps every byte encodable (cf. SharedHuffman).
    std::array<std::uint64_t, kAlphabetSize> smoothed{};
    for (std::size_t s = 0; s < kAlphabetSize; ++s) {
      smoothed[s] = freqs_[l][s] * 16 + 1;
    }
    lanes_[l] =
        std::make_unique<CanonicalCode>(build_code_lengths(smoothed));
  }
}

std::size_t FieldSplitCodec::lane_length(std::size_t original_size,
                                         std::size_t lane) {
  // Number of indices i < original_size with i % kLanes == lane.
  return (original_size + kLanes - 1 - lane) / kLanes;
}

Bytes FieldSplitCodec::compress(ByteView input) const {
  if (input.empty()) return {};
  BitWriter writer;
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t i = l; i < input.size(); i += kLanes) {
      lanes_[l]->encode(writer, input[i]);
    }
  }
  return writer.take();
}

Bytes FieldSplitCodec::decompress(ByteView input,
                                  std::size_t original_size) const {
  if (original_size == 0) return {};
  Bytes out(original_size, 0);
  BitReader reader(input);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::size_t count = lane_length(original_size, l);
    for (std::size_t j = 0; j < count; ++j) {
      out[l + j * kLanes] = lanes_[l]->decode(reader);
    }
  }
  return out;
}

double FieldSplitCodec::lane_expected_bits(std::size_t lane) const {
  APCC_CHECK(lane < kLanes, "lane index out of range");
  return lanes_[lane]->expected_bits(freqs_[lane]);
}

}  // namespace apcc::compress
