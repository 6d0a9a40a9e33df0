// Figure 2 reproduction: k-edge pre-decompression trigger points.
//
// Paper: "Assuming k=3, basic block B7 is decompressed at the end of
// basic block B1 ... from the end of B1 to the beginning of B7, there
// are at most 3 edges that need to be traversed."  And the §4 example:
// with k=2 and B4/B5/B8/B9 compressed, pre-decompress-all fetches exactly
// those four at the exit of B0, while pre-decompress-single picks one.
#include "reproduce/common.hpp"
#include "cfg/analysis.hpp"
#include "cfg/paper_graphs.hpp"
#include "runtime/planner.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

namespace {

void print_trigger_table(std::ostream& out) {
  const cfg::Cfg graph = cfg::figure2_cfg();
  out << "Pre-decompression of B7: earliest block exit that triggers "
         "it, by k\n";
  TextTable table;
  table.row().cell("k").cell("trigger block").cell("comment");
  // Walk the paper's illustrative path backwards from B7.
  const cfg::BlockTrace path = {0, 1, 3, 6, 7};
  for (const unsigned k : {1u, 2u, 3u, 4u}) {
    std::string trigger = "-";
    for (const auto from : path) {
      if (from == 7) break;
      const auto frontier = cfg::frontier_within(graph, from, k);
      if (std::binary_search(frontier.begin(), frontier.end(),
                             cfg::BlockId{7})) {
        trigger = graph.note(from);
        break;
      }
    }
    table.row()
        .cell(std::uint64_t{k})
        .cell(trigger)
        .cell(k == 3 ? "<- paper: end of B1" : "");
  }
  out << table.render() << '\n';
}

void print_strategy_example(std::ostream& out) {
  const cfg::Cfg graph = cfg::figure2_cfg();
  runtime::StateTable states(graph.block_count());
  for (const cfg::BlockId b : {0u, 1u, 2u, 3u, 6u, 7u}) {
    states.set_form(b, runtime::BlockForm::kDecompressed);
  }
  out << "S4 example: B4,B5,B8,B9 compressed; execution leaves B0; "
         "k=2\n";
  runtime::FrontierCache frontiers(graph, 2);
  frontiers.materialize();
  TextTable table;
  table.row().cell("strategy").cell("requests");
  {
    runtime::Policy policy;
    policy.strategy = runtime::DecompressionStrategy::kPreAll;
    policy.predecompress_k = 2;
    const runtime::DecompressionPlanner planner(graph, states, policy,
                                                nullptr, &frontiers);
    std::string requests;
    for (const auto b : planner.plan_on_exit(0, 0)) {
      requests.append(graph.note(b)).append(" ");
    }
    table.row().cell("pre-decompress-all").cell(requests);
  }
  {
    runtime::Policy policy;
    policy.strategy = runtime::DecompressionStrategy::kPreSingle;
    policy.predecompress_k = 2;
    const runtime::ProfilePredictor predictor(graph, 2);
    const runtime::DecompressionPlanner planner(graph, states, policy,
                                                &predictor, &frontiers);
    std::string requests;
    for (const auto b : planner.plan_on_exit(0, 0)) {
      requests.append(graph.note(b)).append(" ");
    }
    table.row().cell("pre-decompress-single").cell(requests);
  }
  out << table.render() << '\n';
}

}  // namespace

void print_fig2_predecomp(std::ostream& out) {
  print_header(out, "Figure 2 / S4 examples",
               "k-edge pre-decompression trigger points and the\n"
               "pre-all vs pre-single request sets");
  print_trigger_table(out);
  print_strategy_example(out);
}

}  // namespace apcc::reproduce
