// Tracer: spans kept in memory, self time, and the JSON dump.
#include <algorithm>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

long Tracer::add(std::string name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t job, long parent) {
  spans_.push_back(
      {std::move(name), ms_between(origin_, start), ms_between(origin_, end),
       parent, job});
  return static_cast<long>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const double a = std::max(s.start_ms, spans_[c].start_ms);
      const double b = std::min(s.end_ms, spans_[c].end_ms);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double reach = s.start_ms;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[s.name] += std::max(0.0, s.end_ms - s.start_ms - covered);
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
        << ", \"parent\": " << s.parent << ", \"job\": " << s.job << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
