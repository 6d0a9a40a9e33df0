// The pattern codec family: FPC and BDI stream-format pins (pattern
// classification at the sign-extension boundaries, mode selection,
// corrupt-stream rejection), the adaptive meta-codec's header dispatch
// and deterministic tie-break, fuzzed round-trips over the input
// classes the patterns target, and the serving differential: an
// adaptive sweep's serialized result must be byte-identical whatever
// the pool width or batch granularity.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compress/adaptive.hpp"
#include "compress/bdi.hpp"
#include "compress/codec.hpp"
#include "compress/fpc.hpp"
#include "core/system.hpp"
#include "serving/service.hpp"
#include "serving/wire.hpp"
#include "support/bitstream.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace apcc::compress {
namespace {

Bytes words_le(const std::vector<std::uint32_t>& words) {
  Bytes out;
  out.reserve(words.size() * 4);
  for (const std::uint32_t w : words) {
    out.push_back(static_cast<std::uint8_t>(w));
    out.push_back(static_cast<std::uint8_t>(w >> 8));
    out.push_back(static_cast<std::uint8_t>(w >> 16));
    out.push_back(static_cast<std::uint8_t>(w >> 24));
  }
  return out;
}

std::vector<Bytes> instruction_blocks() {
  static const std::vector<Bytes> blocks =
      workloads::make_workload(workloads::WorkloadKind::kAdpcmLike)
          .block_bytes;
  return blocks;
}

void expect_roundtrip(const Codec& c, const Bytes& input) {
  ASSERT_EQ(c.decompress(c.compress(input), input.size()), input)
      << c.name() << " on " << input.size() << " bytes";
}

// ------------------------------------------------------------- FPC

TEST(Fpc, ClassifiesWordsAtTheSignExtensionBoundaries) {
  // Each word sits exactly at a boundary of the 4/8/16-bit
  // sign-extended literal classes; the prefix counters pin which class
  // matched, and the round-trip pins that the payload bits suffice.
  const std::vector<std::pair<std::uint32_t, FpcCodec::Pattern>> cases = {
      {7u, FpcCodec::kSigned4},                   // max positive 4-bit
      {8u, FpcCodec::kSigned8},                   // first word past it
      {0xfffffff8u, FpcCodec::kSigned4},          // -8: min 4-bit
      {0xfffffff7u, FpcCodec::kSigned8},          // -9: first past it
      {127u, FpcCodec::kSigned8},                 // max positive 8-bit
      {128u, FpcCodec::kSigned16},                // first word past it
      {0xffffff80u, FpcCodec::kSigned8},          // -128: min 8-bit
      {0xffffff7fu, FpcCodec::kSigned16},         // -129: first past it
      {32767u, FpcCodec::kSigned16},              // max positive 16-bit
      {32768u, FpcCodec::kRaw},                   // 0x8000: not a literal,
                                                  // halves differ -> raw
      {0xffff8000u, FpcCodec::kSigned16},         // -32768: min 16-bit
      {0xffff7fffu, FpcCodec::kRaw},              // -32769: past all three
      {0xabcdabcdu, FpcCodec::kRepeatedHalf},     // equal halves
      {0x00010001u, FpcCodec::kRepeatedHalf},     // ...even tiny ones
      {0xdeadbeefu, FpcCodec::kRaw},              // incompressible
  };
  for (const auto& [word, expected] : cases) {
    FpcCodec codec;  // fresh instance: counters start at zero
    expect_roundtrip(codec, words_le({word}));
    const auto counts = codec.pattern_counts();
    for (std::size_t p = 0; p < FpcCodec::kNumPatterns; ++p) {
      EXPECT_EQ(counts[p], p == expected ? 1u : 0u)
          << "word 0x" << std::hex << word << " pattern "
          << FpcCodec::pattern_name(p);
    }
  }
}

TEST(Fpc, ZeroRunsCoalesceAndRoundTrip) {
  FpcCodec codec;
  for (std::size_t n = 1; n <= 20; ++n) {
    expect_roundtrip(codec, Bytes(n * 4, 0));
  }
  // A run prefix covers up to 8 words in 6 bits: 64 zero words pack
  // into 8 run tokens = 48 bits = 6 bytes.
  FpcCodec fresh;
  const Bytes compressed = fresh.compress(Bytes(256, 0));
  EXPECT_EQ(compressed.size(), 6u);
  EXPECT_EQ(fresh.pattern_counts()[FpcCodec::kZeroRun], 8u);
}

TEST(Fpc, TailBytesRoundTripAtEveryRemainder) {
  FpcCodec codec;
  apcc::Rng rng(7);
  for (const std::size_t size : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 63u, 65u}) {
    Bytes input(size);
    for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect_roundtrip(codec, input);
  }
}

TEST(Fpc, ReservedPrefixesAreCorruptStreams) {
  const FpcCodec codec;
  for (const std::uint32_t reserved : {6u, 7u}) {
    BitWriter writer;
    writer.write_bits(reserved, 3);
    writer.write_bits(0, 29);  // padding the decoder never reaches
    const Bytes stream = writer.take();
    EXPECT_THROW((void)codec.decompress(stream, 4), apcc::CheckError)
        << "prefix " << reserved;
  }
}

TEST(Fpc, OverrunningZeroRunIsACorruptStream) {
  // A run of 8 words against a 2-word original: the length check must
  // fire before the decoder writes past the original size.
  const FpcCodec codec;
  BitWriter writer;
  writer.write_bits(FpcCodec::kZeroRun, 3);
  writer.write_bits(7, 3);  // run - 1 = 7 -> 8 words
  EXPECT_THROW((void)codec.decompress(writer.take(), 8), apcc::CheckError);
}

TEST(Fpc, TruncatedStreamUnderflowsNotCrashes) {
  const FpcCodec codec;
  EXPECT_THROW((void)codec.decompress({}, 4), apcc::CheckError);
  const Bytes compressed = codec.compress(words_le({0xdeadbeefu, 0x12345678u}));
  Bytes truncated(compressed.begin(), compressed.begin() + 2);
  EXPECT_THROW((void)codec.decompress(truncated, 8), apcc::CheckError);
}

// ------------------------------------------------------------- BDI

TEST(Bdi, NarrowRangeChunksCompress) {
  // 8-byte values inside a 1-byte range of a large base: the b8-d1
  // mode stores base + mask + one byte per word.
  Bytes input;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t v = 0x4142434445464700ull + i;
    for (unsigned b = 0; b < 8; ++b) {
      input.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  const BdiCodec codec;
  expect_roundtrip(codec, input);
  // Two 32-byte chunks, each 1 header + 8 base + 1 mask + 4 deltas.
  EXPECT_EQ(codec.compress(input).size(), 28u);
}

TEST(Bdi, ZeroChunksAreOneHeaderByte) {
  const BdiCodec codec;
  expect_roundtrip(codec, Bytes(64, 0));
  EXPECT_EQ(codec.compress(Bytes(64, 0)).size(), 2u);  // two mode-0 chunks
}

TEST(Bdi, MixedImmediateAndBaseWordsShareAChunk) {
  // The "immediate" dual base: small constants delta off zero, large
  // pointers delta off the chunk base, in one chunk.
  Bytes input;
  const std::vector<std::uint64_t> words = {
      5, 0x7000000000001000ull, 0x7000000000001008ull, 127};
  for (const std::uint64_t v : words) {
    for (unsigned b = 0; b < 8; ++b) {
      input.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  }
  const BdiCodec codec;
  expect_roundtrip(codec, input);
  const Bytes compressed = codec.compress(input);
  EXPECT_LT(compressed.size(), input.size());
  EXPECT_EQ(compressed[0], 1u);  // b8-d1 wins
}

TEST(Bdi, ShortTailChunksRoundTrip) {
  const BdiCodec codec;
  apcc::Rng rng(11);
  for (const std::size_t size : {1u, 7u, 13u, 31u, 33u, 40u, 63u, 100u}) {
    Bytes input(size);
    for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect_roundtrip(codec, input);
  }
}

TEST(Bdi, IncompressibleChunksFallBackToRaw) {
  apcc::Rng rng(13);
  Bytes input(32);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(256));
  const BdiCodec codec;
  expect_roundtrip(codec, input);
  EXPECT_EQ(codec.compress(input).size(), 33u);  // header + verbatim
}

TEST(Bdi, CorruptStreamsThrowNotCrash) {
  const BdiCodec codec;
  // Missing chunk header.
  EXPECT_THROW((void)codec.decompress({}, 32), apcc::CheckError);
  // Raw chunk with no payload behind it.
  EXPECT_THROW((void)codec.decompress(Bytes{7}, 32), apcc::CheckError);
  // Mode byte outside the mode set.
  EXPECT_THROW((void)codec.decompress(Bytes{200}, 32), apcc::CheckError);
  EXPECT_THROW((void)codec.decompress(Bytes{8}, 32), apcc::CheckError);
  // A delta mode whose base width does not divide the (tail) chunk.
  EXPECT_THROW((void)codec.decompress(Bytes{1}, 20), apcc::CheckError);
  // Delta payload cut off after the header.
  EXPECT_THROW((void)codec.decompress(Bytes{1}, 32), apcc::CheckError);
}

// -------------------------------------------------------- adaptive

TEST(Adaptive, HeaderDispatchCoversEveryCandidateId) {
  // A stream hand-built as [candidate id][that codec's stream] must
  // decode through the adaptive header dispatch for every candidate.
  const auto training = instruction_blocks();
  const AdaptiveCodec adaptive(training);
  const Bytes input = training.front();
  for (const CodecKind kind : adaptive.candidate_kinds()) {
    const auto solo = make_codec(kind, training);
    Bytes stream;
    stream.push_back(static_cast<std::uint8_t>(kind));
    const Bytes payload = solo->compress(input);
    stream.insert(stream.end(), payload.begin(), payload.end());
    EXPECT_EQ(adaptive.decompress(stream, input.size()), input)
        << codec_kind_name(kind);
  }
}

TEST(Adaptive, PicksTheSmallestCandidateAndRecordsTheWin) {
  const auto training = instruction_blocks();
  const AdaptiveCodec adaptive(training);
  const Bytes input(256, 0);
  const Bytes out = adaptive.compress(input);
  // The winner is the first candidate (id order) achieving the
  // smallest encoding; the header byte is its CodecKind value.
  std::size_t best = SIZE_MAX;
  CodecKind best_kind = CodecKind::kNull;
  for (const CodecKind kind : adaptive.candidate_kinds()) {
    const std::size_t size = make_codec(kind, training)->compress(input).size();
    if (size < best) {
      best = size;
      best_kind = kind;
    }
  }
  EXPECT_EQ(out.size(), best + 1);
  EXPECT_EQ(out[0], static_cast<std::uint8_t>(best_kind));
  EXPECT_EQ(adaptive.decompress(out, input.size()), input);
  // On all-zero input the FPC zero-run tokens beat every other family.
  EXPECT_EQ(best_kind, CodecKind::kFpc);
  std::uint64_t wins = 0;
  for (const auto& s : adaptive.selection_stats()) {
    if (s.kind == best_kind) {
      EXPECT_EQ(s.wins, 1u);
      EXPECT_EQ(s.input_bytes, input.size());
      EXPECT_EQ(s.output_bytes, out.size());
    }
    wins += s.wins;
  }
  EXPECT_EQ(wins, 1u);
}

TEST(Adaptive, OutputIsIndependentOfCandidateListOrder) {
  // The tie-break is the numeric codec id, pinned by sorting at
  // construction -- two instances built from reversed lists must emit
  // identical bytes for every block.
  const auto training = instruction_blocks();
  std::vector<CodecKind> forward = AdaptiveCodec::default_candidates();
  std::vector<CodecKind> backward(forward.rbegin(), forward.rend());
  const AdaptiveCodec a(training, forward);
  const AdaptiveCodec b(training, backward);
  for (const auto& block : training) {
    EXPECT_EQ(a.compress(block), b.compress(block));
  }
}

TEST(Adaptive, CorruptHeadersAreRejected) {
  const auto training = instruction_blocks();
  const AdaptiveCodec adaptive(training);
  // Truncated before the codec id.
  EXPECT_THROW((void)adaptive.decompress({}, 16), apcc::CheckError);
  // Ids outside the candidate set: an arbitrary byte, and a real codec
  // that simply is not a candidate.
  EXPECT_THROW((void)adaptive.decompress(Bytes{0xee}, 16), apcc::CheckError);
  const Bytes not_a_candidate{
      static_cast<std::uint8_t>(CodecKind::kLzss), 0, 0};
  EXPECT_THROW((void)adaptive.decompress(not_a_candidate, 16),
               apcc::CheckError);
}

TEST(Adaptive, RejectsDegenerateCandidateSets) {
  const auto training = instruction_blocks();
  EXPECT_THROW(AdaptiveCodec(training, {}), apcc::CheckError);
  EXPECT_THROW(AdaptiveCodec(training, {CodecKind::kAdaptive}),
               apcc::CheckError);
  EXPECT_THROW(AdaptiveCodec(training, {CodecKind::kFpc, CodecKind::kFpc}),
               apcc::CheckError);
}

// ------------------------------------------------------------- fuzz

TEST(PatternFamily, RoundTripFuzzOverPatternedInputs) {
  // Inputs biased toward the shapes the patterns target: zero runs,
  // narrow literals, repeated halfwords, narrow-range 64-bit values,
  // and plain noise -- plus random lengths to cover the tail paths.
  const auto training = instruction_blocks();
  const FpcCodec fpc;
  const BdiCodec bdi;
  const AdaptiveCodec adaptive(training);
  apcc::Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = rng.next_below(600);
    Bytes input(size);
    const std::uint32_t style = rng.next_below(5);
    for (std::size_t i = 0; i < size; ++i) {
      switch (style) {
        case 0: input[i] = 0; break;
        case 1: input[i] = (i % 4) == 0
                               ? static_cast<std::uint8_t>(rng.next_below(16))
                               : 0;  // small positive word literals
          break;
        case 2: input[i] = static_cast<std::uint8_t>(i % 2 ? 0xab : 0xcd);
          break;  // repeated halfwords
        case 3: input[i] = (i % 8) < 2
                               ? static_cast<std::uint8_t>(rng.next_below(256))
                               : static_cast<std::uint8_t>(0x40 + (i % 8));
          break;  // narrow-range 64-bit values
        default: input[i] = static_cast<std::uint8_t>(rng.next_below(256));
      }
    }
    expect_roundtrip(fpc, input);
    expect_roundtrip(bdi, input);
    expect_roundtrip(adaptive, input);
  }
}

TEST(PatternFamily, CompressesRealInstructionBlocks) {
  // The family must pull its weight on assembled code, and adaptive
  // can never lose to its best candidate by more than the 1-byte
  // header per block.
  const auto training = instruction_blocks();
  const AdaptiveCodec adaptive(training);
  EXPECT_LT(compression_ratio(adaptive, training), 0.95);
  std::size_t adaptive_bytes = 0;
  for (const auto& block : training) {
    adaptive_bytes += adaptive.compress(block).size();
  }
  for (const CodecKind kind : adaptive.candidate_kinds()) {
    const auto solo = make_codec(kind, training);
    std::size_t solo_bytes = 0;
    for (const auto& block : training) {
      solo_bytes += solo->compress(block).size();
    }
    EXPECT_LE(adaptive_bytes, solo_bytes + training.size())
        << codec_kind_name(kind);
  }
  // Pattern usage was populated by the ratio pass and renders.
  const std::string summary = usage_summary(adaptive);
  EXPECT_NE(summary.find("adaptive selection"), std::string::npos);
}

}  // namespace
}  // namespace apcc::compress

// ---------------------------------------------- serving differential

namespace apcc::serving {
namespace {

/// Serialized sweep result of an adaptive-codec sweep under a given
/// pool width and batch granularity -- the full wire bytes, so any
/// nondeterminism anywhere in the result surfaces as a string diff.
std::string adaptive_sweep_wire(unsigned workers, std::uint32_t batch_cells) {
  ServiceOptions options;
  options.workers = workers;
  Service service(options);
  const WorkloadId id = service.register_workload(
      workloads::make_workload(workloads::WorkloadKind::kCrcLike));
  JobSpec job;
  job.kind = JobKind::kSweep;
  job.workloads = {"@" + std::to_string(id)};
  job.config.codec = compress::CodecKind::kAdaptive;
  job.batch_cells = batch_cells;
  for (const auto strategy : {runtime::DecompressionStrategy::kOnDemand,
                              runtime::DecompressionStrategy::kPreAll,
                              runtime::DecompressionStrategy::kPreSingle}) {
    for (const std::uint32_t k : {1u, 4u}) {
      sweep::SweepTask task;
      task.label = std::string(runtime::strategy_name(strategy)) + "/k" +
                   std::to_string(k);
      task.config.policy.strategy = strategy;
      task.config.policy.compress_k = k;
      task.config.policy.predecompress_k = k;
      job.tasks.push_back(std::move(task));
    }
  }
  wire::ResultRecord record;
  record.job = 1;
  record.client = "pattern-differential";
  record.result.kind = JobKind::kSweep;
  record.result.sweep = service.submit(job).wait().sweep;
  return wire::serialize_result(record);
}

TEST(AdaptiveServing, SweepWireBytesIdenticalAcrossWorkersAndBatch) {
  // The adaptive codec feeds the artifact cache and the lockstep batch
  // path like any other kind: pool width and batch width are
  // scheduling knobs, never result knobs, down to the serialized
  // bytes.
  const std::string reference = adaptive_sweep_wire(1, 1);
  for (const unsigned workers : {1u, 2u, 4u}) {
    for (const std::uint32_t batch : {std::uint32_t{1}, std::uint32_t{16}}) {
      if (workers == 1 && batch == 1) continue;
      EXPECT_EQ(adaptive_sweep_wire(workers, batch), reference)
          << "workers=" << workers << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace apcc::serving
