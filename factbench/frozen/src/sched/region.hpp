#pragma once

#include <memory>
#include <vector>

#include "ir/function.hpp"

namespace fact::sched {

/// The scheduler's control skeleton: the statement tree regrouped into
/// straight-line segments, conditionals and loops. Statements inside a
/// Straight region execute under one control context and are scheduled
/// together as a single data-flow graph.
struct Region {
  enum class Kind { Straight, If, Loop, Seq };

  Kind kind = Kind::Seq;

  // Straight: consecutive Assign/Store statements (no control flow).
  std::vector<const ir::Stmt*> stmts;

  // If / Loop: the owning statement (cond, id, probability key).
  const ir::Stmt* ctrl = nullptr;

  // If: children[0]=then, children[1]=else. Loop: children[0]=body.
  // Seq: ordered children.
  std::vector<std::unique_ptr<Region>> children;

  bool is_straight() const { return kind == Kind::Straight; }

  /// A loop body that is one straight segment (no internal control flow)
  /// can be software-pipelined.
  bool loop_body_is_straight() const;
};

using RegionPtr = std::unique_ptr<Region>;

/// Builds the region tree of a function body. Pointers into `fn` remain
/// valid as long as `fn` is alive and unmodified.
RegionPtr build_region_tree(const ir::Function& fn);

}  // namespace fact::sched
