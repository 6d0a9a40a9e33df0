#include "sim/trace_gen.hpp"

#include <iterator>

#include "support/assert.hpp"

namespace apcc::sim {

cfg::BlockTrace generate_trace(const cfg::Cfg& cfg,
                               const TraceGenOptions& options) {
  APCC_CHECK(cfg.block_count() > 0, "cannot trace an empty CFG");
  APCC_CHECK(cfg.entry() != cfg::kInvalidBlock, "CFG has no entry");
  Rng rng(options.seed);
  cfg::BlockTrace trace;
  cfg::BlockId current = cfg.entry();
  trace.push_back(current);
  std::vector<double> weights;
  while (trace.size() < options.max_blocks) {
    const cfg::Cfg::EdgeList out = cfg.out_edges(current);
    if (cfg.block(current).is_exit || out.empty()) break;
    weights.clear();
    for (const cfg::EdgeId e : out) {
      weights.push_back(cfg.edge(e).probability);
    }
    auto chosen = out.begin();
    std::advance(chosen, rng.next_weighted(weights));
    current = cfg.edge(*chosen).to;
    trace.push_back(current);
  }
  return trace;
}

}  // namespace apcc::sim
