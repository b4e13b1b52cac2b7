#pragma once

#include <sstream>
#include <string>

namespace fact {

/// Tiny builder for Graphviz DOT output. Used by the CDFG and STG dumpers
/// so the intermediate structures of every experiment can be inspected.
class DotWriter {
 public:
  explicit DotWriter(const std::string& graph_name);

  /// Adds a node with an escaped label and optional extra attributes
  /// (raw DOT text, e.g. "shape=box").
  void node(const std::string& id, const std::string& label,
            const std::string& attrs = "");

  /// Adds an edge with an optional escaped label and raw extra attributes.
  void edge(const std::string& from, const std::string& to,
            const std::string& label = "", const std::string& attrs = "");

  /// Finishes the graph and returns the DOT text.
  std::string str() const;

  /// Escapes a string for use inside a double-quoted DOT attribute.
  static std::string escape(const std::string& s);

 private:
  std::ostringstream out_;
};

}  // namespace fact
