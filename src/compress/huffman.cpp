#include "compress/huffman.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "support/assert.hpp"
#include "support/bitstream.hpp"

namespace apcc::compress {

namespace {

/// Tree node for the initial (unlimited-depth) Huffman construction.
struct Node {
  std::uint64_t weight = 0;
  int left = -1;    // child indices; -1 marks a leaf
  int right = -1;
  int symbol = -1;  // valid for leaves
};

void collect_depths(const std::vector<Node>& nodes, int index, unsigned depth,
                    CodeLengths& lengths) {
  const Node& n = nodes[static_cast<std::size_t>(index)];
  if (n.symbol >= 0) {
    lengths[static_cast<std::size_t>(n.symbol)] =
        static_cast<std::uint8_t>(std::max(1u, depth));
    return;
  }
  collect_depths(nodes, n.left, depth + 1, lengths);
  collect_depths(nodes, n.right, depth + 1, lengths);
}

/// Scaled Kraft sum: sum over coded symbols of 2^(L - len), where a valid
/// prefix code requires the sum to be <= 2^L.
std::uint64_t kraft_sum(const CodeLengths& lengths) {
  std::uint64_t sum = 0;
  for (const std::uint8_t len : lengths) {
    if (len > 0) {
      sum += std::uint64_t{1} << (kMaxCodeLength - len);
    }
  }
  return sum;
}

}  // namespace

CodeLengths build_code_lengths(
    const std::array<std::uint64_t, kAlphabetSize>& freqs) {
  CodeLengths lengths{};
  std::vector<int> symbols;
  for (std::size_t s = 0; s < kAlphabetSize; ++s) {
    if (freqs[s] > 0) symbols.push_back(static_cast<int>(s));
  }
  if (symbols.empty()) return lengths;
  if (symbols.size() == 1) {
    lengths[static_cast<std::size_t>(symbols[0])] = 1;
    return lengths;
  }

  // Standard greedy tree construction.
  std::vector<Node> nodes;
  nodes.reserve(symbols.size() * 2);
  using Entry = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const int s : symbols) {
    nodes.push_back(Node{freqs[static_cast<std::size_t>(s)], -1, -1, s});
    heap.emplace(nodes.back().weight, static_cast<int>(nodes.size()) - 1);
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{wa + wb, a, b, -1});
    heap.emplace(wa + wb, static_cast<int>(nodes.size()) - 1);
  }
  collect_depths(nodes, heap.top().second, 0, lengths);

  // Length-limit: clamp overlong codes, then restore the Kraft inequality
  // by lengthening the deepest still-shortenable codes (zlib's approach).
  for (auto& len : lengths) {
    if (len > kMaxCodeLength) len = kMaxCodeLength;
  }
  const std::uint64_t budget = std::uint64_t{1} << kMaxCodeLength;
  std::uint64_t sum = kraft_sum(lengths);
  while (sum > budget) {
    // Lengthen the coded symbol with the largest length < kMaxCodeLength;
    // among ties prefer the lowest frequency (least cost).
    int best = -1;
    for (std::size_t s = 0; s < kAlphabetSize; ++s) {
      if (lengths[s] == 0 || lengths[s] >= kMaxCodeLength) continue;
      if (best < 0 || lengths[s] > lengths[static_cast<std::size_t>(best)] ||
          (lengths[s] == lengths[static_cast<std::size_t>(best)] &&
           freqs[s] < freqs[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(s);
      }
    }
    APCC_ASSERT(best >= 0, "length limiting failed to converge");
    sum -= std::uint64_t{1} << (kMaxCodeLength - lengths[static_cast<std::size_t>(best)]);
    ++lengths[static_cast<std::size_t>(best)];
    sum += std::uint64_t{1} << (kMaxCodeLength - lengths[static_cast<std::size_t>(best)]);
  }
  return lengths;
}

CanonicalCode::CanonicalCode(const CodeLengths& lengths,
                             bool build_decode_tables)
    : lengths_(lengths) {
  // Histogram code lengths and verify Kraft.
  std::array<std::uint16_t, kMaxCodeLength + 1> bl_count{};
  for (std::size_t s = 0; s < kAlphabetSize; ++s) {
    const std::uint8_t len = lengths_[s];
    APCC_CHECK(len <= kMaxCodeLength, "code length exceeds limit");
    if (len > 0) {
      ++bl_count[len];
      ++symbol_count_;
    }
  }
  count_ = bl_count;
  if (symbol_count_ == 0) return;
  APCC_CHECK(kraft_sum(lengths_) <= (std::uint64_t{1} << kMaxCodeLength),
             "code lengths violate the Kraft inequality");

  // Canonical first codes per length.
  std::array<std::uint16_t, kMaxCodeLength + 1> next_code{};
  std::uint32_t code = 0;
  for (unsigned bits = 1; bits <= kMaxCodeLength; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = static_cast<std::uint16_t>(code);
    first_code_[bits] = static_cast<std::uint16_t>(code);
  }

  // Sort symbols by (length, symbol value) and assign codes.
  std::uint16_t index = 0;
  for (unsigned bits = 1; bits <= kMaxCodeLength; ++bits) {
    first_index_[bits] = index;
    for (std::size_t s = 0; s < kAlphabetSize; ++s) {
      if (lengths_[s] == bits) {
        sorted_symbols_[index++] = static_cast<std::uint8_t>(s);
        codes_[s] = next_code[bits]++;
      }
    }
  }

  if (build_decode_tables) {
    this->build_decode_tables();
    tables_built_ = true;
  }
}

void CanonicalCode::build_decode_tables() {
  // Pass 1: for every kPrimaryBits-wide prefix shared by codes longer
  // than the primary table resolves, record the deepest code under it --
  // that fixes the subtable's index width.
  std::array<std::uint8_t, (std::size_t{1} << kPrimaryBits)> prefix_len{};
  for (std::size_t s = 0; s < kAlphabetSize; ++s) {
    const unsigned len = lengths_[s];
    if (len <= kPrimaryBits) continue;
    const std::uint32_t prefix = codes_[s] >> (len - kPrimaryBits);
    prefix_len[prefix] =
        std::max<std::uint8_t>(prefix_len[prefix],
                               static_cast<std::uint8_t>(len));
  }
  for (std::size_t p = 0; p < prefix_len.size(); ++p) {
    if (prefix_len[p] == 0) continue;
    const auto sub_bits =
        static_cast<std::uint8_t>(prefix_len[p] - kPrimaryBits);
    primary_[p] = PrimaryEntry{static_cast<std::uint16_t>(sub_.size()),
                               kSubtableTag, sub_bits};
    sub_.resize(sub_.size() + (std::size_t{1} << sub_bits));
  }

  // Pass 2: replicate each code across every table slot it prefixes.
  for (std::size_t s = 0; s < kAlphabetSize; ++s) {
    const unsigned len = lengths_[s];
    if (len == 0) continue;
    const std::uint32_t code = codes_[s];
    if (len <= kPrimaryBits) {
      const std::uint32_t start = code << (kPrimaryBits - len);
      const std::uint32_t span = 1u << (kPrimaryBits - len);
      const PrimaryEntry entry{static_cast<std::uint16_t>(s),
                               static_cast<std::uint8_t>(len), 0};
      std::fill_n(primary_.begin() + start, span, entry);
    } else {
      const PrimaryEntry& head = primary_[code >> (len - kPrimaryBits)];
      const std::uint32_t low = code & ((1u << (len - kPrimaryBits)) - 1u);
      const unsigned spare = head.sub_bits - (len - kPrimaryBits);
      const SubEntry entry{static_cast<std::uint8_t>(s),
                           static_cast<std::uint8_t>(len)};
      std::fill_n(sub_.begin() + head.payload + (low << spare),
                  std::size_t{1} << spare, entry);
    }
  }
}

void CanonicalCode::encode(BitWriter& writer, std::uint8_t symbol) const {
  const std::uint8_t len = lengths_[symbol];
  APCC_CHECK(len > 0, "symbol has no code (not in training data)");
  writer.write_bits(codes_[symbol], len);
}

void CanonicalCode::encode_all(BitWriter& writer, ByteView input) const {
  // Local accumulator of pending code bits, right-aligned. Before an
  // append it holds < 32 bits and a code adds <= kMaxCodeLength == 15,
  // so it never overflows 64; the oldest 32 bits flush in one
  // write_bits call, preserving the per-symbol MSB-first bit order.
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (const std::uint8_t symbol : input) {
    const unsigned len = lengths_[symbol];
    APCC_CHECK(len > 0, "symbol has no code (not in training data)");
    acc = (acc << len) | codes_[symbol];
    acc_bits += len;
    if (acc_bits >= 32) {
      writer.write_bits(static_cast<std::uint32_t>(acc >> (acc_bits - 32)),
                        32);
      acc_bits -= 32;
      acc &= (std::uint64_t{1} << acc_bits) - 1;
    }
  }
  if (acc_bits > 0) {
    writer.write_bits(static_cast<std::uint32_t>(acc), acc_bits);
  }
}

std::uint8_t CanonicalCode::decode_reference(BitReader& reader) const {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code << 1) | (reader.read_bit() ? 1u : 0u);
    if (count_[len] != 0 && code >= first_code_[len] &&
        code < static_cast<std::uint32_t>(first_code_[len] + count_[len])) {
      return sorted_symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  throw CheckError("huffman: invalid code prefix (corrupt stream)");
}

double CanonicalCode::expected_bits(
    const std::array<std::uint64_t, kAlphabetSize>& freqs) const {
  std::uint64_t total = 0;
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < kAlphabetSize; ++s) {
    if (freqs[s] == 0) continue;
    total += freqs[s];
    bits += freqs[s] * (lengths_[s] > 0 ? lengths_[s] : 8);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(bits) / static_cast<double>(total);
}

HuffmanCodec::HuffmanCodec() {
  costs_ = CodecCosts{.decompress_cycles_per_byte = 6.0,
                      .compress_cycles_per_byte = 12.0,
                      .decompress_fixed_cycles = 128,
                      .compress_fixed_cycles = 256};
}

Bytes HuffmanCodec::compress(ByteView input) const {
  if (input.empty()) return {};
  std::array<std::uint64_t, kAlphabetSize> freqs{};
  for (const std::uint8_t b : input) ++freqs[b];
  const CodeLengths lengths = build_code_lengths(freqs);
  const CanonicalCode code(lengths, /*build_decode_tables=*/false);

  BitWriter writer;
  // Header: 256 x 4-bit code lengths (fits because kMaxCodeLength == 15).
  for (const std::uint8_t len : lengths) {
    writer.write_bits(len, 4);
  }
  code.encode_all(writer, input);
  return writer.take();
}

Bytes HuffmanCodec::decompress(ByteView input,
                               std::size_t original_size) const {
  if (original_size == 0) return {};
  BitReader reader(input);
  CodeLengths lengths{};
  for (auto& len : lengths) {
    len = static_cast<std::uint8_t>(reader.read_bits(4));
  }
  // The lookup table is rebuilt per stream (the header is per stream);
  // only amortize that on payloads with enough symbols to win. Short
  // blocks decode through the reference path.
  constexpr std::size_t kTableWorthwhileSymbols = 192;
  const CanonicalCode code(lengths,
                           original_size >= kTableWorthwhileSymbols);
  Bytes out;
  out.reserve(original_size);
  for (std::size_t i = 0; i < original_size; ++i) {
    out.push_back(code.decode(reader));
  }
  return out;
}

SharedHuffmanCodec::SharedHuffmanCodec(const BlockBytes& training_blocks)
    : code_([&] {
        // A byte's count does not depend on its block, so the arena is
        // read straight through.
        std::array<std::uint64_t, kAlphabetSize> freqs{};
        for (const std::uint8_t b : training_blocks.arena()) ++freqs[b];
        // Add-one smoothing: every byte value stays encodable even if it
        // never appeared in training (e.g. patched or synthetic blocks).
        std::array<std::uint64_t, kAlphabetSize> smoothed{};
        for (std::size_t s = 0; s < kAlphabetSize; ++s) {
          smoothed[s] = freqs[s] * 16 + 1;
        }
        return CanonicalCode(build_code_lengths(smoothed));
      }()) {
  costs_ = CodecCosts{.decompress_cycles_per_byte = 6.0,
                      .compress_cycles_per_byte = 10.0,
                      .decompress_fixed_cycles = 64,
                      .compress_fixed_cycles = 96};
}

Bytes SharedHuffmanCodec::compress(ByteView input) const {
  if (input.empty()) return {};
  BitWriter writer;
  code_.encode_all(writer, input);
  return writer.take();
}

Bytes SharedHuffmanCodec::decompress(ByteView input,
                                     std::size_t original_size) const {
  if (original_size == 0) return {};
  BitReader reader(input);
  Bytes out;
  out.reserve(original_size);
  for (std::size_t i = 0; i < original_size; ++i) {
    out.push_back(code_.decode(reader));
  }
  return out;
}

}  // namespace apcc::compress
