#include "cfg/dot.hpp"

#include <sstream>

namespace apcc::cfg {

namespace {
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

std::string to_dot(const Cfg& cfg, const DotOptions& options) {
  std::ostringstream os;
  os << "digraph " << options.graph_name << " {\n";
  os << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const auto& b : cfg.blocks()) {
    os << "  n" << b.id << " [label=\"";
    if (const std::string_view note = cfg.note(b.id); !note.empty()) {
      os << escape(note);
    } else {
      os << 'B' << b.id;
    }
    if (options.show_sizes) {
      os << "\\n" << b.size_bytes() << " B";
    }
    os << '"';
    if (b.id == cfg.entry()) os << ", penwidth=2";
    if (b.is_exit) os << ", peripheries=2";
    os << "];\n";
  }
  for (EdgeId id = 0; id < cfg.edge_count(); ++id) {
    const Edge& e = cfg.edge(id);
    os << "  n" << e.from << " -> n" << e.to << " [label=\""
       << edge_kind_name(cfg.edge_kind(id));
    if (options.show_probabilities) {
      os << "\\np=" << e.probability;
    }
    os << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace apcc::cfg
