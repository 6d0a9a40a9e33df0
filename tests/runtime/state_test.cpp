// StateTable tests: a seeded differential over several independent
// tables, one per cell. After every random mutation, the victim query
// must agree with a full-table scan over the public accessors (the tie
// rules included), and each table's counts, decompressed set and
// per-block fields must match a shadow model of that cell alone -- so a
// table never sees another table's writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/victim_scan.hpp"
#include "runtime/state.hpp"
#include "support/rng.hpp"

namespace apcc::runtime {
namespace {

constexpr std::size_t kBlocks = 24;
constexpr std::size_t kCells = 3;

/// What one cell's table should hold.
struct CellModel {
  std::vector<BlockForm> form = std::vector<BlockForm>(kBlocks,
                                                       BlockForm::kCompressed);
  std::vector<std::uint64_t> last_use = std::vector<std::uint64_t>(kBlocks, 0);
  std::vector<bool> executing = std::vector<bool>(kBlocks, false);
  std::vector<std::uint64_t> sizes = std::vector<std::uint64_t>(kBlocks, 0);
};

/// Sizes with deliberate duplicates and zeros: the largest-victim tie and
/// `size > 0` rules only show on such tables.
std::vector<std::uint64_t> random_sizes(apcc::Rng& rng) {
  std::vector<std::uint64_t> sizes(kBlocks);
  for (auto& s : sizes) s = rng.next_below(5) * 16;
  return sizes;
}

void expect_cell_matches(const StateTable& t, const CellModel& m,
                         std::size_t cell) {
  SCOPED_TRACE(::testing::Message() << "cell " << cell);
  std::array<std::size_t, 3> counts{};
  std::vector<cfg::BlockId> decompressed;
  for (cfg::BlockId b = 0; b < kBlocks; ++b) {
    ++counts[static_cast<std::size_t>(m.form[b])];
    if (m.form[b] == BlockForm::kDecompressed) decompressed.push_back(b);
    const BlockState& s = t[b];
    ASSERT_EQ(s.form(), m.form[b]) << "block " << b;
    ASSERT_EQ(s.last_use_time(), m.last_use[b]) << "block " << b;
    ASSERT_EQ(s.executing(), m.executing[b]) << "block " << b;
  }
  for (const BlockForm f : {BlockForm::kCompressed, BlockForm::kDecompressing,
                            BlockForm::kDecompressed}) {
    ASSERT_EQ(t.count(f), counts[static_cast<std::size_t>(f)])
        << block_form_name(f);
  }
  ASSERT_EQ(t.decompressed_blocks(), decompressed);
  ASSERT_EQ(t.decompressed_unordered().size(), decompressed.size());
}

void expect_victims_match_reference(const StateTable& t,
                                    const std::vector<std::uint64_t>& sizes,
                                    cfg::BlockId protect) {
  SCOPED_TRACE(::testing::Message() << "protect " << protect);
  for (const VictimPolicy policy :
       {VictimPolicy::kLru, VictimPolicy::kMru, VictimPolicy::kLargest}) {
    ASSERT_EQ(t.victim(policy, protect, testref::size_of(sizes)),
              testref::scan_victim(t, policy, protect, sizes))
        << victim_policy_name(policy);
  }
}

TEST(StateTable, VictimQueriesMatchReferenceAcrossBatchLanes) {
  apcc::Rng rng(20261017);
  std::vector<StateTable> tables;
  for (std::size_t c = 0; c < kCells; ++c) tables.emplace_back(kBlocks);
  std::array<CellModel, kCells> models;
  for (CellModel& m : models) m.sizes = random_sizes(rng);

  for (int op = 0; op < 4000; ++op) {
    const std::size_t c = rng.next_below(kCells);
    StateTable& t = tables[c];
    CellModel& m = models[c];
    const auto b = static_cast<cfg::BlockId>(rng.next_below(kBlocks));
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        const auto form = static_cast<BlockForm>(rng.next_below(3));
        t.set_form(b, form);
        m.form[b] = form;
        break;
      }
      case 4:
      case 5:
      case 6: {
        // A narrow clock makes equal last-use times common.
        const std::uint64_t time = rng.next_below(12);
        t.touch(b, time);
        m.last_use[b] = time;
        break;
      }
      case 7:
      case 8: {
        const bool pin = rng.next_bool(0.3);
        t.set_executing(b, pin);
        m.executing[b] = pin;
        break;
      }
      default:
        m.sizes = random_sizes(rng);
        break;
    }

    for (std::size_t cell = 0; cell < kCells; ++cell) {
      const StateTable& table = tables[cell];
      expect_cell_matches(table, models[cell], cell);
      expect_victims_match_reference(table, models[cell].sizes,
                                     cfg::kInvalidBlock);
      expect_victims_match_reference(
          table, models[cell].sizes,
          static_cast<cfg::BlockId>(rng.next_below(kBlocks)));
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "after operation " << op << " on cell " << c;
      }
    }
  }
}

TEST(StateTable, VictimTiesGoToTheLowestIdWhateverTheListOrder) {
  // Decompress in descending id order, then swap-remove from the middle,
  // so the resident list is far from id order when the ties are broken.
  StateTable t(8);
  const std::vector<std::uint64_t> sizes{0, 32, 16, 32, 32, 16, 0, 8};
  const auto size_of = testref::size_of(sizes);
  for (cfg::BlockId b = 8; b-- > 0;) t.set_form(b, BlockForm::kDecompressed);
  t.set_form(4, BlockForm::kCompressed);
  t.set_form(4, BlockForm::kDecompressed);
  for (cfg::BlockId b = 0; b < 8; ++b) t.touch(b, b % 2 == 0 ? 5 : 9);

  EXPECT_EQ(t.victim(VictimPolicy::kLru, cfg::kInvalidBlock, size_of), 0u);
  EXPECT_EQ(t.victim(VictimPolicy::kLru, 0, size_of), 2u);
  EXPECT_EQ(t.victim(VictimPolicy::kMru, cfg::kInvalidBlock, size_of), 1u);
  EXPECT_EQ(t.victim(VictimPolicy::kMru, 1, size_of), 3u);
  EXPECT_EQ(t.victim(VictimPolicy::kLargest, cfg::kInvalidBlock, size_of), 1u);
  t.set_executing(1, true);
  EXPECT_EQ(t.victim(VictimPolicy::kLargest, cfg::kInvalidBlock, size_of), 3u);
  EXPECT_EQ(t.victim(VictimPolicy::kLargest, 3, size_of), 4u);
  for (const cfg::BlockId protect : {cfg::kInvalidBlock, cfg::BlockId{3}}) {
    expect_victims_match_reference(t, sizes, protect);
  }
}

}  // namespace
}  // namespace apcc::runtime
