#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace fact::xform {

/// A concrete transformation opportunity found in a function. Candidates
/// are stable coordinates: (statement id, expression slot, path within the
/// slot's expression), plus a transform-specific variant selector. Because
/// Function::clone() preserves statement ids, a candidate found on one
/// copy applies to another.
struct Candidate {
  std::string transform;
  int stmt_id = -1;
  int slot = -1;             // expr slot index; -1 for statement-level
  std::vector<int> path;     // path within the slot expression
  int variant = 0;

  std::string describe() const;
};

/// A behavioral transformation: enumerates candidates and applies one,
/// producing a new (functionally equivalent) function. Implementations
/// must be pure: apply() never mutates its input. They must also be
/// thread-safe under concurrent const calls — the optimizer invokes
/// find()/apply() from worker threads when EngineOptions::jobs > 1, so
/// a stateful implementation (e.g. one with a mutable RNG or counters)
/// requires jobs = 1 or internal synchronization.
class Transform {
 public:
  virtual ~Transform() = default;

  virtual std::string name() const = 0;

  /// Enumerates candidates. `region` restricts the search to the given
  /// statement ids (the optimizer passes the STG block's statements);
  /// empty means the whole function.
  virtual std::vector<Candidate> find(const ir::Function& fn,
                                      const std::set<int>& region) const = 0;

  /// Applies the candidate, returning the transformed clone.
  virtual ir::Function apply(const ir::Function& fn,
                             const Candidate& c) const = 0;
};

using TransformPtr = std::unique_ptr<Transform>;

/// The transformation library (step 4 of Figure 5). The paper's suite:
/// commutativity, associativity, distributivity, constant propagation,
/// code motion, and loop unrolling — plus the select-level rewrites that
/// implement transformation application across basic-block boundaries
/// (speculation and select hoisting/fusion, Section 3 Example 3).
/// User-defined transforms can be added, as the paper advertises.
class TransformLibrary {
 public:
  TransformLibrary() = default;
  TransformLibrary(TransformLibrary&&) = default;
  TransformLibrary& operator=(TransformLibrary&&) = default;
  /// Polymorphic: enumeration and application are virtual so wrappers (the
  /// fault-injection harness, instrumented libraries) can intercept them
  /// behind the `const TransformLibrary&` the engine holds. Overrides of
  /// find_all()/apply() inherit the Transform thread-safety contract:
  /// they run on engine worker threads when EngineOptions::jobs > 1
  /// (verify::FaultInjector is not thread-safe, so fault-injection runs
  /// keep the default jobs = 1).
  virtual ~TransformLibrary() = default;

  /// The full default suite.
  static TransformLibrary standard();
  /// Basic-block-local subset: the algebraic transforms only (used by the
  /// Flamel baseline policy and by ablations).
  static TransformLibrary algebraic_only();

  void add(TransformPtr t) { transforms_.push_back(std::move(t)); }
  const std::vector<TransformPtr>& transforms() const { return transforms_; }
  const Transform* find_transform(const std::string& name) const;

  /// All candidates of all transforms in the region.
  virtual std::vector<Candidate> find_all(const ir::Function& fn,
                                          const std::set<int>& region) const;

  /// Applies a candidate by dispatching on its transform name.
  virtual ir::Function apply(const ir::Function& fn, const Candidate& c) const;

 private:
  std::vector<TransformPtr> transforms_;
};

// Individual transform factories (exposed for tests and custom libraries).
TransformPtr make_commutativity();
TransformPtr make_associativity();
TransformPtr make_addsub_reassociation();
TransformPtr make_distributivity();
TransformPtr make_constant_folding();
TransformPtr make_constant_propagation();
TransformPtr make_code_motion();
TransformPtr make_loop_unrolling();
TransformPtr make_speculation();
TransformPtr make_select_fusion();
TransformPtr make_select_hoisting();
TransformPtr make_forward_substitution();
TransformPtr make_dead_code_elimination();
TransformPtr make_common_subexpression_elimination();

}  // namespace fact::xform
