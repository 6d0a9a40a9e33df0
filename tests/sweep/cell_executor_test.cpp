// The cell executor every grid runner shares: chunk_cells must cut the
// workload-major (workloads x grid) matrix into chunks that cover every
// cell exactly once, in order, never span two workloads, and reduce to
// one cell per chunk at width 0 or 1; run_chunk must land a failing
// cell's siblings before it rethrows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cell_reference.hpp"
#include "support/assert.hpp"
#include "sweep/sweep.hpp"
#include "workloads/suite.hpp"

namespace apcc::sweep {
namespace {

/// Flatten chunks back to (workload, task) cells, checking each chunk's
/// shape on the way: non-empty, within one workload's grid, at most
/// `width` cells.
std::vector<std::pair<std::size_t, std::size_t>> cells_of(
    const std::vector<CellChunk>& chunks, std::size_t grid_size,
    std::size_t width) {
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  for (const CellChunk& chunk : chunks) {
    EXPECT_LT(chunk.begin, chunk.end);
    EXPECT_LE(chunk.end, grid_size);
    EXPECT_LE(chunk.end - chunk.begin, width);
    for (std::size_t t = chunk.begin; t < chunk.end; ++t) {
      cells.emplace_back(chunk.workload, t);
    }
  }
  return cells;
}

TEST(CellChunks, CoverTheMatrixWorkloadMajorAtEveryWidth) {
  for (const std::size_t workloads : {1u, 2u, 3u}) {
    for (const std::size_t grid : {1u, 5u, 12u}) {
      for (const std::uint32_t batch : {0u, 1u, 2u, 4u, 5u, 7u, 12u, 64u}) {
        SCOPED_TRACE(std::to_string(workloads) + " workloads x " +
                     std::to_string(grid) + " tasks, batch " +
                     std::to_string(batch));
        const std::size_t width = batch == 0 ? 1 : batch;
        const auto cells =
            cells_of(chunk_cells(workloads, grid, batch), grid, width);
        ASSERT_EQ(cells.size(), workloads * grid);
        for (std::size_t i = 0; i < cells.size(); ++i) {
          EXPECT_EQ(cells[i].first, i / grid);
          EXPECT_EQ(cells[i].second, i % grid);
        }
      }
    }
  }
}

TEST(CellChunks, NonDividingGridEndsEachWorkloadWithANarrowTail) {
  // 12 tasks at width 5: 5 + 5 + 2 per workload, never a 5-wide chunk
  // that borrows the next workload's first three cells.
  const auto chunks = chunk_cells(2, 12, 5);
  ASSERT_EQ(chunks.size(), 6u);
  const std::size_t want[6][3] = {{0, 0, 5},  {0, 5, 10},  {0, 10, 12},
                                  {1, 0, 5},  {1, 5, 10},  {1, 10, 12}};
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].workload, want[c][0]) << "chunk " << c;
    EXPECT_EQ(chunks[c].begin, want[c][1]) << "chunk " << c;
    EXPECT_EQ(chunks[c].end, want[c][2]) << "chunk " << c;
  }
}

TEST(CellChunks, BatchWiderThanTheGridIsOneChunkPerWorkload) {
  const auto chunks = chunk_cells(3, 4, 16);
  ASSERT_EQ(chunks.size(), 3u);
  for (std::size_t w = 0; w < chunks.size(); ++w) {
    EXPECT_EQ(chunks[w].workload, w);
    EXPECT_EQ(chunks[w].begin, 0u);
    EXPECT_EQ(chunks[w].end, 4u);
  }
}

TEST(CellChunks, BatchZeroIsBatchOne) {
  const auto zero = chunk_cells(3, 7, 0);
  const auto one = chunk_cells(3, 7, 1);
  ASSERT_EQ(zero.size(), 21u);
  ASSERT_EQ(zero.size(), one.size());
  for (std::size_t i = 0; i < zero.size(); ++i) {
    // Width 1: chunk i is matrix cell i.
    EXPECT_EQ(zero[i].workload, i / 7);
    EXPECT_EQ(zero[i].begin, i % 7);
    EXPECT_EQ(zero[i].end, i % 7 + 1);
    EXPECT_EQ(zero[i].workload, one[i].workload);
    EXPECT_EQ(zero[i].begin, one[i].begin);
    EXPECT_EQ(zero[i].end, one[i].end);
  }
}

TEST(CellChunks, EmptyMatrixHasNoChunks) {
  EXPECT_TRUE(chunk_cells(0, 12, 4).empty());
  EXPECT_TRUE(chunk_cells(3, 0, 4).empty());
}

TEST(RunChunk, SiblingsLandBeforeTheFirstFailureRethrows) {
  const auto workload =
      workloads::make_workload(workloads::WorkloadKind::kCrcLike);
  const auto system = core::CodeCompressionSystem::from_workload(workload);
  std::vector<SweepTask> grid(4);
  for (std::size_t t = 0; t < grid.size(); ++t) {
    grid[t].label = "cell" + std::to_string(t);
    grid[t].config.policy.compress_k = static_cast<std::uint32_t>(t + 1);
  }
  // Cells 1 and 2 cannot place any block; 0 and 3 run normally.
  grid[1].config.policy.memory_budget = 1;
  grid[2].config.policy.memory_budget = 2;
  const auto expected = testref::per_cell_sweep(system, {grid[0], grid[3]});

  ResultSink sink;
  std::vector<sim::EngineConfig> configs;
  for (const SweepTask& task : grid) configs.push_back(task.config);
  EXPECT_THROW(run_chunk(system.cfg(), system.image(), system.default_trace(),
                         grid, {0, 1, 2, 3}, std::move(configs), sink),
               apcc::CheckError);
  const auto landed = sink.take_sorted();
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0].index, 0u);
  EXPECT_EQ(landed[0].label, "cell0");
  EXPECT_EQ(landed[1].index, 3u);
  EXPECT_EQ(landed[1].label, "cell3");
  EXPECT_EQ(landed[0].result.total_cycles, expected[0].result.total_cycles);
  EXPECT_EQ(landed[1].result.total_cycles, expected[1].result.total_cycles);
}

}  // namespace
}  // namespace apcc::sweep
