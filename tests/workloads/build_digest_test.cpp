// Byte pins for artifact-churn's 16 programs (perfbench's plan: seeds
// 9001-9016 of the churn shape): an FNV-1a digest of each one's source
// text, assembled words, block trace and edge list (from, to, kind and
// probability bits, in id order). A byte that moves in generation,
// assembly, CFG building, interpretation or profiling fails here, in
// tier-1, not only in perfbench's result digest.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "workloads/random_program.hpp"

namespace apcc::workloads {
namespace {

/// 64-bit FNV-1a over little-endian integers and bytes.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      const auto byte = static_cast<unsigned char>(v >> (8 * i));
      bytes(&byte, 1);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Digests {
  std::uint64_t seed;
  std::uint64_t source;
  std::uint64_t words;
  std::uint64_t trace;
  std::uint64_t edges;
};

// {seed, source, words, trace, edges}, measured before the one-pass
// assembler and the flat CFG builder replaced the two-pass assembler and
// the set-and-map builder, and unchanged by them.
constexpr std::array<Digests, 16> kPinned = {{
    {9001, 0x0427a9b9abcf3599ull, 0x62c1cfdb156f94d5ull, 0x37d2c7a5f503a45full,
     0x080e94ec775074d9ull},
    {9002, 0x66f5498cb2c87a3bull, 0x61b90c0f9f58bbc2ull, 0xec05fde8483cd31bull,
     0x4b8d0966c31e7e8cull},
    {9003, 0xd7a4cba111d90dbcull, 0x2f0e45cdab76a6bcull, 0x398a51cb07377e92ull,
     0x653c50238ecbbfa0ull},
    {9004, 0x674eb0e42ae91881ull, 0xd3559dbbcd8af4abull, 0x01ef44ef6ac6d82bull,
     0xb21a0485a4888507ull},
    {9005, 0x3aa0bd311d504906ull, 0x67e82eba17033f58ull, 0x4cac52311c54c7ebull,
     0x92eba7e02df5a078ull},
    {9006, 0xaa33f20bfc0c9d51ull, 0x88bc4f454b12a8f6ull, 0x07c6a63b3dab6485ull,
     0x035222359252a896ull},
    {9007, 0x2c1159c71fd2890aull, 0xa1b51c6b8327be1dull, 0xcffaf7a47bce5ee5ull,
     0xb811cabd52eded00ull},
    {9008, 0x16c79d1df0fa7cf2ull, 0x3ddffda97906f803ull, 0xbb8df079df7ca0daull,
     0x386e4d1710dbec06ull},
    {9009, 0x907f30c0e1768689ull, 0xb7404000908cd3c1ull, 0xc9f35983884df5b0ull,
     0x398054386e489775ull},
    {9010, 0xdcba416c09dc22fcull, 0xb4aa904fd5678607ull, 0x738cda2fc7e673b3ull,
     0x6571a955ada37b72ull},
    {9011, 0xe0e8e5172a8be3c4ull, 0x26b719051d1265b6ull, 0xd2160a73a1e9e2a5ull,
     0x498231276e9dbb2aull},
    {9012, 0x0b09f6642d240a51ull, 0x590f5a82313e8bd3ull, 0x0b8aa01d6b8cc9c1ull,
     0xfaf7cc90696c3bc3ull},
    {9013, 0xf561667c7fbfd19full, 0xa9da4157a82adc46ull, 0x8c05040610dcedd1ull,
     0xc349170e9aec0b2dull},
    {9014, 0x32dde39d10c0877cull, 0x0c0dd778ca73f05dull, 0x9e0556d4c2a80c2dull,
     0xaddc0a370d0cc98full},
    {9015, 0x5dd9473d1fbaa816ull, 0xc0ba5d139c2b1c39ull, 0xa64ca4247927bf0cull,
     0x30c7eba416c2de8bull},
    {9016, 0x23351aaed0fc6712ull, 0xdac8f8e131f1ca55ull, 0xcd7b1fecf7a31c82ull,
     0xd26d2045944238fcull},
}};

Digests digests_of(std::uint64_t seed) {
  RandomProgramOptions churn;
  churn.seed = seed;
  churn.max_depth = 3;
  churn.statements_per_body = 40;
  churn.leaf_functions = 16;
  churn.loop_iters_max = 6;
  Digests d{seed, 0, 0, 0, 0};
  Fnv1a source;
  const std::string text = random_program_source(churn);
  source.bytes(text.data(), text.size());
  d.source = source.value();

  const Workload w = make_random_workload(churn);
  Fnv1a words;
  for (const std::uint32_t word : w.program.words()) words.u64(word, 4);
  d.words = words.value();
  Fnv1a trace;
  for (const cfg::BlockId b : w.trace) trace.u64(b, 4);
  d.trace = trace.value();
  Fnv1a edges;
  for (cfg::EdgeId e = 0; e < w.cfg.edge_count(); ++e) {
    const cfg::Edge& edge = w.cfg.edge(e);
    edges.u64(edge.from, 4);
    edges.u64(edge.to, 4);
    edges.u64(static_cast<std::uint64_t>(w.cfg.edge_kind(e)), 1);
    edges.u64(std::bit_cast<std::uint64_t>(edge.probability), 8);
  }
  d.edges = edges.value();
  return d;
}

TEST(WorkloadDigest, ChurnProgramsBuildToTheirPinnedBytes) {
  for (const Digests& want : kPinned) {
    const Digests got = digests_of(want.seed);
    EXPECT_EQ(got.source, want.source) << "seed " << want.seed;
    EXPECT_EQ(got.words, want.words) << "seed " << want.seed;
    EXPECT_EQ(got.trace, want.trace) << "seed " << want.seed;
    EXPECT_EQ(got.edges, want.edges) << "seed " << want.seed;
    if (::testing::Test::HasFailure()) {
      // The row to paste into kPinned after a deliberate change.
      std::printf("    {%llu, 0x%016llxull, 0x%016llxull, 0x%016llxull,\n"
                  "     0x%016llxull},\n",
                  static_cast<unsigned long long>(got.seed),
                  static_cast<unsigned long long>(got.source),
                  static_cast<unsigned long long>(got.words),
                  static_cast<unsigned long long>(got.trace),
                  static_cast<unsigned long long>(got.edges));
    }
  }
}

}  // namespace
}  // namespace apcc::workloads
