// LZSS encoder differential: the encoder keeps its hash-chain tables
// per thread between calls and resets only the slots a call wrote, so
// every call must emit exactly the bytes a matcher on fresh tables
// emits. The reference below is that fresh-table encoder, kept here as
// the oracle. Inputs run short-long-short on one thread, so a call that
// left a stale slot behind would change a later call's output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/lzss.hpp"
#include "support/bitstream.hpp"
#include "support/rng.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace apcc::compress {
namespace {

/// Greedy LZSS with fresh 8K-entry head / 4K-entry prev tables per call.
Bytes reference_compress(ByteView input) {
  constexpr std::size_t kHashSize = 1 << 13;
  constexpr int kMaxChainProbes = 64;
  constexpr std::size_t kWindow = LzssCodec::kWindowSize;
  constexpr std::size_t kMin = LzssCodec::kMinMatch;
  constexpr std::size_t kMax = LzssCodec::kMaxMatch;
  const auto hash3 = [](const std::uint8_t* p) {
    const std::uint32_t v = std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                            (std::uint32_t{p[2]} << 16);
    return (v * 2654435761u) >> 19 & (kHashSize - 1);
  };
  BitWriter writer;
  const std::size_t n = input.size();
  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(kWindow, -1);
  const auto insert = [&](std::size_t at) {
    if (at + kMin > n) return;
    const std::size_t h = hash3(input.data() + at);
    prev[at & (kWindow - 1)] = head[h];
    head[h] = static_cast<std::int32_t>(at);
  };
  std::size_t pos = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    if (pos + kMin <= n) {
      std::int32_t candidate = head[hash3(input.data() + pos)];
      int probes = kMaxChainProbes;
      while (candidate >= 0 && probes-- > 0) {
        const auto cand = static_cast<std::size_t>(candidate);
        if (pos - cand > kWindow) break;
        const std::size_t limit = std::min(kMax, n - pos);
        std::size_t len = 0;
        while (len < limit && input[cand + len] == input[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_offset = pos - cand;
          if (len == kMax) break;
        }
        candidate = prev[cand & (kWindow - 1)];
      }
    }
    if (best_len >= kMin) {
      writer.write_bit(false);
      writer.write_bits(static_cast<std::uint32_t>(best_offset - 1), 12);
      writer.write_bits(static_cast<std::uint32_t>(best_len - kMin), 4);
      for (std::size_t i = 0; i < best_len; ++i) insert(pos + i);
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

void expect_matches_reference(const LzssCodec& codec,
                              const std::vector<Bytes>& inputs,
                              const std::string& what) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bytes got = codec.compress(inputs[i]);
    ASSERT_EQ(got, reference_compress(inputs[i]))
        << what << " input " << i << " (" << inputs[i].size() << " bytes)";
    ASSERT_EQ(codec.decompress(got, inputs[i].size()), inputs[i]);
  }
}

TEST(LzssEncoder, MatchesFreshTablesOnEverySuiteKernel) {
  const LzssCodec codec;
  for (const auto kind : workloads::all_workload_kinds()) {
    const workloads::Workload w = workloads::make_workload(kind);
    expect_matches_reference(codec, w.block_bytes, w.name);
  }
}

TEST(LzssEncoder, MatchesFreshTablesOnChurnShapedPrograms) {
  // The served artifact-churn programs: thousands of blocks of a few
  // words each, compressed back to back on one thread.
  const LzssCodec codec;
  for (const std::uint64_t seed : {9001u, 9002u}) {
    workloads::RandomProgramOptions options;
    options.seed = seed;
    options.max_depth = 3;
    options.statements_per_body = 40;
    options.leaf_functions = 16;
    options.loop_iters_max = 6;
    const workloads::Workload w = workloads::make_random_workload(options);
    ASSERT_GT(w.block_bytes.size(), 1000u);
    expect_matches_reference(codec, w.block_bytes,
                             "seed " + std::to_string(seed));
  }
}

TEST(LzssEncoder, MatchesFreshTablesPastTheWindow) {
  // Inputs longer than the 4 KiB window wrap the prev table, and a
  // small alphabet fills hash chains past the probe limit; short inputs
  // between them must still start from clean tables.
  const LzssCodec codec;
  Rng rng(0x1255);
  std::vector<Bytes> inputs;
  for (const std::size_t size :
       {std::size_t{5000}, std::size_t{7}, std::size_t{3 * 4096 + 17},
        std::size_t{2}, std::size_t{4097}, std::size_t{64}}) {
    for (const std::uint64_t alphabet : {4u, 256u}) {
      Bytes bytes(size);
      for (auto& b : bytes) {
        b = static_cast<std::uint8_t>(rng.next_below(alphabet));
      }
      inputs.push_back(std::move(bytes));
    }
  }
  inputs.emplace_back(9000, 0xAB);  // one long run of matches
  inputs.emplace_back();            // empty
  expect_matches_reference(codec, inputs, "random");
}

}  // namespace
}  // namespace apcc::compress
