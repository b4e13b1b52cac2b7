#include "util/dot.hpp"

namespace fact {

DotWriter::DotWriter(const std::string& graph_name) {
  out_ << "digraph " << graph_name << " {\n";
  out_ << "  node [fontname=\"Helvetica\"];\n";
}

void DotWriter::node(const std::string& id, const std::string& label,
                     const std::string& attrs) {
  out_ << "  \"" << escape(id) << "\" [label=\"" << escape(label) << "\"";
  if (!attrs.empty()) out_ << ", " << attrs;
  out_ << "];\n";
}

void DotWriter::edge(const std::string& from, const std::string& to,
                     const std::string& label, const std::string& attrs) {
  out_ << "  \"" << escape(from) << "\" -> \"" << escape(to) << "\"";
  const bool has_label = !label.empty();
  if (has_label || !attrs.empty()) {
    out_ << " [";
    if (has_label) out_ << "label=\"" << escape(label) << "\"";
    if (!attrs.empty()) {
      if (has_label) out_ << ", ";
      out_ << attrs;
    }
    out_ << "]";
  }
  out_ << ";\n";
}

std::string DotWriter::str() const { return out_.str() + "}\n"; }

std::string DotWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace fact
