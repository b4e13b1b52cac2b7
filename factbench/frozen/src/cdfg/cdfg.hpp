#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace fact::cdfg {

/// Node kinds of the token-passing CDFG (Section 2.1). `Join` assigns to
/// its output the value arriving on either input (used at control-flow
/// merge points); `Select` picks between its l/r inputs by its s input.
enum class NodeKind { Const, Input, Op, Join, Select, Output };

struct Node {
  NodeKind kind = NodeKind::Op;
  ir::Op op = ir::Op::Var;  // for Op nodes
  std::string name;         // Input/Output: variable or array; Op: label
  int64_t value = 0;        // Const
  int stmt_id = -1;         // originating statement

  /// Data predecessors (token producers). For Select: {s, l, r}.
  std::vector<int> data_preds;
  /// Control predecessor: the condition node guarding execution, with
  /// polarity (the paper's +/- annotation); -1 if unconditional.
  int guard = -1;
  bool guard_polarity = true;

  std::string label;
};

/// Control-data flow graph derived from the behavior IR. Used for
/// visualization (Figure 1(b)), for checking structural properties in
/// tests, and for the mutual-exclusion queries that make cross-basic-block
/// transformation application safe (Example 3).
class Cdfg {
 public:
  int add_node(Node n);
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  Node& node_mut(int i) { return nodes_[static_cast<size_t>(i)]; }
  size_t size() const { return nodes_.size(); }

  /// True if nodes a and b can never both receive tokens in one execution:
  /// they are guarded by the same condition with opposite polarities
  /// (directly or through their guard chains).
  bool mutually_exclusive(int a, int b) const;

  std::string dot(const std::string& graph_name = "cdfg") const;

  /// Derives the CDFG of a function body by symbolic traversal: merge
  /// points introduce Join nodes, loop-carried variables get Join nodes
  /// with back edges, and operations inside conditionals carry guards.
  static Cdfg from_function(const ir::Function& fn);

 private:
  std::vector<Node> nodes_;
};

/// Conservative syntactic test that two branch conditions can never hold
/// together: `(c1 == pol1) && (c2 == pol2)` is unsatisfiable. Recognizes
///  * the same expression with opposite polarities,
///  * comparisons of one variable against constants with disjoint ranges
///    (x < 5 vs x > 7, x == 3 vs x == 4, ...).
/// Used by transformations when matching across basic blocks: a rewrite
/// through two joins is safe only if the non-matching input pairs are
/// mutually exclusive (Example 3's {x2,x5}/{x3,x4} requirement).
bool conditions_disjoint(const ir::ExprPtr& c1, bool pol1,
                         const ir::ExprPtr& c2, bool pol2);

}  // namespace fact::cdfg
