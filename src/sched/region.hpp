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
  // Seq: ordered children. Owned by the RegionTree.
  std::vector<Region*> children;

  bool is_straight() const { return kind == Kind::Straight; }

  /// A loop body that is one straight segment (no internal control flow)
  /// can be software-pipelined.
  bool loop_body_is_straight() const;
};

/// The region tree of a function body. It owns its regions, and building
/// it again reuses their storage: a rebuild into a tree that has held a
/// shape at least as large allocates nothing. Pointers into the function
/// remain valid as long as it is alive and unmodified.
class RegionTree {
 public:
  RegionTree() = default;
  explicit RegionTree(const ir::Function& fn) { build(fn); }

  /// Replaces the tree by that of `fn`.
  void build(const ir::Function& fn);

  /// The body's Seq region.
  const Region& root() const { return *nodes_.front(); }
  const Region& operator*() const { return root(); }
  const Region* operator->() const { return &root(); }

 private:
  Region& make(Region::Kind kind);
  Region* build_seq(const std::vector<ir::StmtPtr>& stmts);
  void append(Region& seq, const std::vector<ir::StmtPtr>& stmts,
              Region*& open_straight);

  std::vector<std::unique_ptr<Region>> nodes_;  // [0, used_) in the tree
  size_t used_ = 0;
};

}  // namespace fact::sched
