// Figure 1 reproduction: the 2-edge algorithm on the paper's example CFG.
//
// Paper caption: "Assuming that the execution takes the left branch
// following B0, the 2-edge algorithm starts compressing B1 just before
// the execution enters basic block B4."
//
// The table prints, for each traversed edge, the k-edge counters and the
// deletions triggered -- the compress-B1-before-B4 event must appear on
// the edge into B4. A k sweep shows how the trigger point moves.
#include "reproduce/common.hpp"
#include "cfg/paper_graphs.hpp"
#include "runtime/kedge.hpp"
#include "support/table.hpp"

namespace apcc::reproduce {

namespace {

void trace_kedge(std::ostream& out, std::uint32_t k) {
  const cfg::Cfg graph = cfg::figure1_cfg();
  runtime::StateTable states(graph.block_count());
  // B1 was visited and is resident in decompressed form.
  states.set_form(1, runtime::BlockForm::kDecompressed);
  runtime::KEdgeCompressionManager kedge(states, k);
  kedge.on_block_executed(1);

  TextTable table;
  table.row().cell("event").cell("B1 counter").cell("deleted");
  const struct {
    const char* name;
    cfg::BlockId target;
  } edges[] = {{"edge a: B1 -> B3", 3}, {"edge b: B3 -> B4", 4},
               {"B4 -> B3 (loop)", 3}};
  for (const auto& step : edges) {
    const auto deleted = kedge.on_edge_traversed(step.target);
    std::string deleted_str = "-";
    for (const auto b : deleted) {
      deleted_str = "B" + std::to_string(b) + " (compress!)";
    }
    table.row()
        .cell(step.name)
        .cell(std::uint64_t{states[1].kedge_counter})
        .cell(deleted_str);
    if (!deleted.empty()) break;  // copy gone; counters stop mattering
  }
  out << "k = " << k << ":\n" << table.render() << '\n';
}

}  // namespace

void print_fig1_kedge(std::ostream& out) {
  print_header(
      out, "Figure 1",
      "2-edge compression triggers for B1 on the example CFG\n"
      "(expected: with k=2, B1 is compressed just before entering B4)");
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    trace_kedge(out, k);
  }
}

}  // namespace apcc::reproduce
