// The CFG's construction-allocation contract: a Cfg keeps its blocks,
// edges, edge lists and notes in a fixed set of flat arrays, so building
// a graph allocates O(log B) times (vector growth), not once or twice
// per block. A per-block heap member -- an edge vector, a note string --
// costs at least one allocation per block and fails the bound here. A
// workload's block bytes keep the same contract: one arena and one
// offset table, never a vector per block. And a workload's tables stay
// at their information size: the bytes a churn program's Workload holds
// are pinned, so a per-label string, a padded edge, a second end per
// edge list or a note offset per block fails.
//
// This file replaces the global operator new with a counting one (for
// the whole apcc_cfg_tests binary; it only counts, then defers to
// malloc), as tests/sim/step_allocation_test.cpp does for the engine.
// It counts allocations and live bytes: each block records its
// requested size in a header, so the byte count is what the program
// asked for, whatever the allocator rounds it up to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "cfg/cfg.hpp"
#include "workloads/random_program.hpp"
#include "workloads/suite.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_live_bytes{0};

// The header keeps the alignment operator new promises.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
static_assert(kHeader >= sizeof(std::size_t));

void* counted_malloc(std::size_t size) noexcept {
  auto* block = static_cast<unsigned char*>(std::malloc(kHeader + size));
  if (block == nullptr) return nullptr;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  std::memcpy(block, &size, sizeof size);
  return block + kHeader;
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* block = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof size);
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

// Every non-aligned form is replaced, so each new/delete pair meets in
// counted_malloc/counted_free (sanitizers check the malloc/free pairing).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
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

/// artifact-churn's first program: 2,444 blocks.
workloads::RandomProgramOptions churn_program_options() {
  workloads::RandomProgramOptions churn;  // artifact-churn's shape
  churn.seed = 9001;
  churn.max_depth = 3;
  churn.statements_per_body = 40;
  churn.leaf_functions = 16;
  churn.loop_iters_max = 6;
  return churn;
}

TEST(WorkloadBlockBytesAllocation, IndependentOfBlockCount) {
  // A workload keeps its block bytes in one arena with one offset
  // table, so cutting them from the program allocates a fixed number
  // of times: a vector per block would cost 2,444 allocations here.
  const workloads::Workload kernel =
      workloads::make_workload(workloads::WorkloadKind::kAdpcmLike);
  const workloads::Workload large =
      workloads::make_random_workload(churn_program_options());
  ASSERT_EQ(large.cfg.block_count(), 2444u);
  const std::size_t small_count = allocations_to_cut_block_bytes(kernel);
  const std::size_t large_count = allocations_to_cut_block_bytes(large);
  EXPECT_LE(small_count, 8u);
  EXPECT_LE(large_count, small_count + 16)
      << "kernel=" << small_count << " (" << kernel.cfg.block_count()
      << " blocks) large=" << large_count;
}

TEST(WorkloadFootprint, ChurnProgramHoldsItsTablesAtTheirInformationSize) {
  // Measured on the churn program (2,444 blocks, 3,520 edges, 1,351
  // labels): the Workload holds 273,947 B, of which its CFG is 146,883 B
  // and its program 50,680 B; each may grow by 5 %. A 40-byte
  // {std::string, word} per label adds 31 KB to the program, and the
  // CFG gains 24.6 KB from a 24-byte edge, 19.5 KB from a first edge
  // beside each list's last and 9.8 KB from a note offset per block.
  constexpr std::size_t kWorkloadBytes = 273'947;
  constexpr std::size_t kCfgBytes = 146'883;
  constexpr std::size_t kProgramBytes = 50'680;
  const workloads::RandomProgramOptions churn = churn_program_options();
  (void)workloads::make_random_workload(churn);  // first-use statics
  const std::size_t before = g_live_bytes.load();
  const workloads::Workload w = workloads::make_random_workload(churn);
  const std::size_t workload_bytes = g_live_bytes.load() - before;
  ASSERT_EQ(w.cfg.block_count(), 2444u);
  ASSERT_EQ(w.cfg.edge_count(), 3520u);
  ASSERT_EQ(w.program.label_count(), 1351u);

  // A copy holds each array at its size, as the shrunk originals do.
  std::size_t cfg_bytes = 0;
  {
    const std::size_t at = g_live_bytes.load();
    const Cfg copy = w.cfg;
    cfg_bytes = g_live_bytes.load() - at;
    copy.validate();
  }
  std::size_t program_bytes = 0;
  {
    const std::size_t at = g_live_bytes.load();
    const isa::Program copy = w.program;
    program_bytes = g_live_bytes.load() - at;
    EXPECT_EQ(copy.label("main"), w.program.label("main"));
  }
  EXPECT_LE(workload_bytes, kWorkloadBytes * 105 / 100) << workload_bytes;
  EXPECT_LE(cfg_bytes, kCfgBytes * 105 / 100) << cfg_bytes;
  EXPECT_LE(program_bytes, kProgramBytes * 105 / 100) << program_bytes;
}

}  // namespace
}  // namespace apcc::cfg
