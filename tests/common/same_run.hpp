// Field-by-field equality of two simulated runs -- every row of
// RunResult's field table, the allocator statistics and the codec ratio
// included -- and of their event streams, for the engine differentials.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/result.hpp"
#include "sim/step_policy.hpp"

namespace apcc::testref {

/// Fails on every field that differs, naming its wire key.
inline void expect_same_result(const sim::RunResult& want,
                               const sim::RunResult& got) {
  sim::for_each_field(
      [](const char* key, const auto& w, const auto& g) {
        EXPECT_EQ(w, g) << "field " << key;
      },
      want, got);
}

/// Fails at the first event that differs, naming both sides.
inline void expect_same_events(const std::vector<sim::Event>& want,
                               const std::vector<sim::Event>& got) {
  const auto show = [](const sim::Event& e) {
    return std::string(sim::event_kind_name(e.kind)) + "@" +
           std::to_string(e.time) + " block " + std::to_string(e.block) +
           " aux " + std::to_string(e.aux) + " value " +
           std::to_string(e.value);
  };
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    const sim::Event& a = want[i];
    const sim::Event& b = got[i];
    ASSERT_TRUE(a.kind == b.kind && a.time == b.time && a.block == b.block &&
                a.aux == b.aux && a.value == b.value)
        << "event " << i << " diverged: want " << show(a) << ", got "
        << show(b);
  }
  ASSERT_EQ(want.size(), got.size()) << "event streams differ in length";
}

}  // namespace apcc::testref
