// The CFG's construction-allocation contract: a Cfg keeps its blocks,
// edges, edge lists and notes in a fixed set of flat arrays, so building
// a graph allocates O(log B) times (vector growth), not once or twice
// per block. A per-block heap member -- an edge vector, a note string --
// costs at least one allocation per block and fails the bound here. A
// workload's block bytes keep the same contract: one arena and one
// offset table, never a vector per block.
//
// This file replaces the global operator new with a counting one (for
// the whole apcc_cfg_tests binary; it only counts, then defers to
// malloc), as tests/sim/step_allocation_test.cpp does for the engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cfg/cfg.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so each new/delete pair meets in
// malloc/free (sanitizers check that pairing).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace apcc::cfg {
namespace {

/// Allocations made while building a `blocks`-block chain with about 1.5
/// edges per block: i -> i+1 for every block, and i -> i+2 for every
/// even one. Every block carries a short note (kept within the small-
/// string buffer, so the argument itself does not allocate).
std::size_t allocations_to_build_chain(std::uint32_t blocks) {
  const std::size_t before = g_allocations.load();
  {
    Cfg g;
    for (std::uint32_t i = 0; i < blocks; ++i) {
      g.add_block(4 * i, 4, "B" + std::to_string(i));
    }
    for (BlockId i = 0; i + 1 < blocks; ++i) {
      g.add_edge(i, i + 1, EdgeKind::kFallThrough);
      if (i % 2 == 0 && i + 2 < blocks) {
        g.add_edge(i, i + 2, EdgeKind::kBranchTaken);
      }
    }
    EXPECT_EQ(g.block_count(), blocks);
  }
  return g_allocations.load() - before;
}

TEST(CfgBuildAllocation, IndependentOfBlockCount) {
  const std::size_t small = allocations_to_build_chain(1'000);
  const std::size_t large = allocations_to_build_chain(16'000);
  // 16x the blocks adds four doublings to each of the graph's arrays.
  EXPECT_LE(large, small + 64) << "small=" << small << " large=" << large;
}

/// Allocations made while cutting `w`'s block bytes from its program.
std::size_t allocations_to_cut_block_bytes(const workloads::Workload& w) {
  const std::size_t before = g_allocations.load();
  {
    const compress::BlockBytes bytes =
        workloads::cut_block_bytes(w.program, w.cfg);
    EXPECT_EQ(bytes.size(), w.cfg.block_count());
  }
  return g_allocations.load() - before;
}

TEST(WorkloadBlockBytesAllocation, IndependentOfBlockCount) {
  // A workload keeps its block bytes in one arena with one offset
  // table, so cutting them from the program allocates a fixed number
  // of times: a vector per block would cost 2,444 allocations here.
  const workloads::Workload kernel =
      workloads::make_workload(workloads::WorkloadKind::kAdpcmLike);
  workloads::RandomProgramOptions churn;  // artifact-churn's shape
  churn.seed = 9001;
  churn.max_depth = 3;
  churn.statements_per_body = 40;
  churn.leaf_functions = 16;
  churn.loop_iters_max = 6;
  const workloads::Workload large = workloads::make_random_workload(churn);
  ASSERT_EQ(large.cfg.block_count(), 2444u);
  const std::size_t small_count = allocations_to_cut_block_bytes(kernel);
  const std::size_t large_count = allocations_to_cut_block_bytes(large);
  EXPECT_LE(small_count, 8u);
  EXPECT_LE(large_count, small_count + 16)
      << "kernel=" << small_count << " (" << kernel.cfg.block_count()
      << " blocks) large=" << large_count;
}

}  // namespace
}  // namespace apcc::cfg
