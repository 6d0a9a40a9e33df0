#include "baselines/function_compression.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace apcc::baselines {

namespace {

/// Map every CFG block to a function index; blocks outside any function
/// (possible only for synthetic graphs) become singleton pseudo-functions.
struct FunctionMap {
  std::vector<std::size_t> block_to_function;
  std::vector<std::uint64_t> function_bytes;          // original sizes
  std::vector<std::uint64_t> function_compressed;     // codec output sizes
};

FunctionMap build_function_map(const workloads::Workload& w,
                               compress::CodecKind codec_kind) {
  FunctionMap m;
  const auto& functions = w.program.functions();
  m.block_to_function.assign(w.cfg.block_count(), SIZE_MAX);
  m.function_bytes.assign(functions.size(), 0);

  for (const auto& block : w.cfg.blocks()) {
    for (std::size_t f = 0; f < functions.size(); ++f) {
      if (block.first_word >= functions[f].first_word &&
          block.first_word < functions[f].end_word()) {
        m.block_to_function[block.id] = f;
        break;
      }
    }
    APCC_CHECK(m.block_to_function[block.id] != SIZE_MAX,
               "block outside every function");
  }

  // Whole-function byte strings compress better than per-block ones; that
  // is the granularity advantage these baselines get.
  compress::BlockBytes function_blobs;
  for (std::size_t f = 0; f < functions.size(); ++f) {
    function_blobs.push_back(
        w.program.bytes(functions[f].first_word, functions[f].word_count));
    m.function_bytes[f] = function_blobs[f].size();
  }
  const auto codec = compress::make_codec(codec_kind, function_blobs);
  m.function_compressed.reserve(functions.size());
  for (const compress::ByteView blob : function_blobs) {
    m.function_compressed.push_back(codec->compress(blob).size());
  }
  return m;
}

}  // namespace

sim::RunResult run_function_compression(
    const workloads::Workload& w, const FunctionCompressionConfig& config) {
  APCC_CHECK(!w.trace.empty(), "workload has no trace");
  APCC_CHECK(config.train_fraction > 0.0 && config.train_fraction <= 1.0,
             "train_fraction must be in (0, 1]");
  const FunctionMap map = build_function_map(w, config.codec);
  const auto codec = compress::make_codec(config.codec, {});
  const auto& codec_costs = codec->costs();
  const std::size_t nfuncs = map.function_bytes.size();

  // Hot/cold classification from the training prefix (kColdOnly).
  std::vector<bool> hot(nfuncs, false);
  if (config.mode == FunctionCompressionConfig::Mode::kColdOnly) {
    const auto train_len = static_cast<std::size_t>(
        std::llround(config.train_fraction *
                     static_cast<double>(w.trace.size())));
    for (std::size_t i = 0; i < std::min(train_len, w.trace.size()); ++i) {
      hot[map.block_to_function[w.trace[i]]] = true;
    }
  }

  sim::RunResult r;
  r.original_image_bytes = w.cfg.total_code_bytes();

  // Static layout.
  std::uint64_t resident = 0;  // always-resident bytes
  for (std::size_t f = 0; f < nfuncs; ++f) {
    if (config.mode == FunctionCompressionConfig::Mode::kColdOnly && hot[f]) {
      resident += map.function_bytes[f];  // hot code stored uncompressed
    } else {
      resident += map.function_compressed[f];
    }
  }
  r.compressed_area_bytes = resident;

  std::uint64_t compressed_total = 0;
  std::uint64_t original_total = 0;
  for (std::size_t f = 0; f < nfuncs; ++f) {
    compressed_total += map.function_compressed[f];
    original_total += map.function_bytes[f];
  }
  r.codec_ratio = original_total == 0
                      ? 1.0
                      : static_cast<double>(compressed_total) /
                            static_cast<double>(original_total);

  // Dynamic walk over the trace at function granularity.
  std::uint64_t now = 0;
  apcc::TimeWeightedAverage occupancy;
  std::uint64_t dynamic_bytes = 0;  // decompressed copies currently live
  occupancy.sample(0, static_cast<double>(resident));

  // kColdOnly: cold functions decompressed once, kept forever.
  std::vector<bool> materialised(nfuncs, false);
  // kProcedureCache: LRU of (function -> last use), bytes used.
  std::map<std::size_t, std::uint64_t> cache_last_use;
  std::uint64_t cache_used = 0;

  std::size_t current_function = SIZE_MAX;
  for (const cfg::BlockId b : w.trace) {
    const std::size_t f = map.block_to_function[b];
    const auto exec = static_cast<std::uint64_t>(
        std::llround(config.costs.cycles_per_instruction *
                     static_cast<double>(w.cfg.block(b).word_count)));
    r.baseline_cycles += exec;
    r.busy_cycles += exec;
    ++r.block_entries;

    if (f != current_function) {
      current_function = f;
      if (config.mode == FunctionCompressionConfig::Mode::kColdOnly) {
        if (!hot[f] && !materialised[f]) {
          // First entry into a cold function: fault + one-time expansion.
          ++r.exceptions;
          ++r.demand_decompressions;
          const std::uint64_t cost =
              config.costs.exception_cycles +
              codec_costs.decompress_cycles(map.function_bytes[f]);
          now += cost;
          r.exception_cycles += config.costs.exception_cycles;
          r.critical_decompress_cycles +=
              cost - config.costs.exception_cycles;
          materialised[f] = true;
          dynamic_bytes += map.function_bytes[f];
          occupancy.sample(now,
                           static_cast<double>(resident + dynamic_bytes));
        }
      } else {  // procedure cache
        auto it = cache_last_use.find(f);
        if (it == cache_last_use.end()) {
          ++r.exceptions;
          ++r.demand_decompressions;
          r.exception_cycles += config.costs.exception_cycles;
          now += config.costs.exception_cycles;
          // Evict LRU functions until the new one fits.
          while (cache_used + map.function_bytes[f] > config.cache_bytes &&
                 !cache_last_use.empty()) {
            auto victim = cache_last_use.begin();
            for (auto cit = cache_last_use.begin();
                 cit != cache_last_use.end(); ++cit) {
              if (cit->second < victim->second) victim = cit;
            }
            cache_used -= map.function_bytes[victim->first];
            cache_last_use.erase(victim);
            ++r.evictions;
            now += config.costs.delete_block_cycles;
          }
          APCC_CHECK(cache_used + map.function_bytes[f] <=
                         config.cache_bytes,
                     "procedure cache smaller than one function");
          const std::uint64_t cost =
              codec_costs.decompress_cycles(map.function_bytes[f]);
          now += cost;
          r.critical_decompress_cycles += cost;
          cache_used += map.function_bytes[f];
          cache_last_use[f] = now;
          dynamic_bytes = cache_used;
          occupancy.sample(now,
                           static_cast<double>(resident + dynamic_bytes));
        } else {
          it->second = now;  // LRU touch
        }
      }
    }
    now += exec;
  }

  r.total_cycles = now;
  r.peak_occupancy_bytes = static_cast<std::uint64_t>(occupancy.peak());
  r.avg_occupancy_bytes = occupancy.average(now);
  return r;
}

}  // namespace apcc::baselines
