#pragma once

#include <functional>
#include <optional>

#include "util/error.hpp"
#include "xform/transform.hpp"

namespace fact::xform {

/// Base class for transforms that rewrite a single expression node
/// in place: find() walks every expression of every (in-region) statement
/// and asks `variants_at` for applicable rewrite variants; apply() clones
/// the function and splices `rewrite`'s result at the candidate path.
class ExprTransform : public Transform {
 public:
  std::vector<Candidate> find(const ir::Function& fn,
                              const std::set<int>& region) const override;
  ir::Function apply(const ir::Function& fn,
                     const Candidate& c) const override;

 protected:
  /// Applicable variant ids at this node. `parent_op` is the op of the
  /// enclosing expression node, if any (lets chain transforms fire only at
  /// chain roots).
  virtual std::vector<int> variants_at(const ir::ExprPtr& e,
                                       std::optional<ir::Op> parent_op) const = 0;

  /// The rewritten node. Must be functionally equivalent to `e`.
  virtual ir::ExprPtr rewrite(const ir::ExprPtr& e, int variant) const = 0;
};

}  // namespace fact::xform
