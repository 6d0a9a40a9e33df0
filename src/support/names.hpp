// Name tables for the enums a wire record names. Each enum keeps one
// table next to its declaration -- one {value, name} row per
// enumerator -- and the wire codec, the CLI and the reports all read
// it through these lookups, so every name is written once.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace apcc {

/// One row of an enum's name table.
template <typename E>
struct NamedValue {
  E value;
  const char* name;
};

/// The name `table` gives `value`, or "?" for a value it has no row for.
template <typename E, std::size_t N>
constexpr const char* name_of(const NamedValue<E> (&table)[N], E value) {
  for (const auto& row : table) {
    if (row.value == value) return row.name;
  }
  return "?";
}

/// The value `table` names `name`, if any.
template <typename E, std::size_t N>
constexpr std::optional<E> value_of(const NamedValue<E> (&table)[N],
                                    std::string_view name) {
  for (const auto& row : table) {
    if (name == row.name) return row.value;
  }
  return std::nullopt;
}

/// Every name in `table`, in row order, joined by '|'.
template <typename E, std::size_t N>
std::string joined_names(const NamedValue<E> (&table)[N]) {
  std::string names;
  for (const auto& row : table) {
    if (!names.empty()) names += '|';
    names += row.name;
  }
  return names;
}

/// Every value in `table`, in row order.
template <typename E, std::size_t N>
constexpr std::array<E, N> values_of(const NamedValue<E> (&table)[N]) {
  std::array<E, N> values{};
  for (std::size_t i = 0; i < N; ++i) values[i] = table[i].value;
  return values;
}

}  // namespace apcc
