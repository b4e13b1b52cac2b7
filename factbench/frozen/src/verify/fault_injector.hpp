#pragma once

#include <map>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "xform/transform.hpp"

namespace fact::verify {

/// The corruption classes the injector can emit. Each class is caught by a
/// specific layer of the guarded pipeline:
///  * WrongSemantics  — observable behavior change; caught by the trace
///    equivalence check (the corruption mutates an array cell or adds an
///    output, so it is visible on every trace).
///  * ThrowException  — apply() throws a plain std::exception (not
///    fact::Error); caught by the engine's transactional wrapper.
///  * DuplicateStmtId — two statements share an id; caught by the
///    verifier's ir.stmt-id-unique check.
///  * EmptyLoopBody   — a While loses its body; caught by ir.empty-loop.
///  * UndeclaredArray — a read of a nonexistent array; caught by ir.arrays.
///  * UndefinedRead   — a fresh read-before-def variable; caught by the
///    differential ir.def-before-use check.
enum class FaultClass {
  WrongSemantics,
  ThrowException,
  DuplicateStmtId,
  EmptyLoopBody,
  UndeclaredArray,
  UndefinedRead,
};

const char* to_string(FaultClass c);

/// All classes, in a fixed order (for tests that sweep them).
std::vector<FaultClass> all_fault_classes();

struct FaultInjectorOptions {
  double rate = 0.0;             // probability an apply() call is corrupted
  uint64_t seed = 1;             // deterministic injection stream
  std::set<FaultClass> classes;  // empty = all classes enabled
};

/// A seeded fault-injection harness wrapping a transformation library:
/// find_all() passes through; apply() first performs the real rewrite,
/// then — at the configured rate — corrupts the result (or throws) with a
/// deterministically chosen corruption class. Every corruption is made
/// textually unique (a fresh counter is baked into it) so the engine's
/// structural dedup can never silently swallow an injected fault; the
/// per-class injection counts therefore match the engine's quarantine
/// accounting exactly.
///
/// A corruption class that cannot be applied to a particular function
/// (e.g. EmptyLoopBody with no loops) falls through to the next enabled
/// class; if none applies, the real rewrite is returned and nothing is
/// counted.
class FaultInjector : public xform::TransformLibrary {
 public:
  FaultInjector(const xform::TransformLibrary& inner,
                FaultInjectorOptions opts);

  std::vector<xform::Candidate> find_all(
      const ir::Function& fn, const std::set<int>& region) const override;
  ir::Function apply(const ir::Function& fn,
                     const xform::Candidate& c) const override;

  /// How many faults of each class were actually injected.
  int injected(FaultClass c) const;
  int injected_total() const;
  const std::map<FaultClass, int>& injected_by_class() const {
    return injected_;
  }

 private:
  /// Applies `cls` to `g` in place; returns false if the class does not
  /// apply to this function. May throw (ThrowException class).
  bool corrupt(ir::Function& g, FaultClass cls) const;

  const xform::TransformLibrary& inner_;
  FaultInjectorOptions opts_;
  std::vector<FaultClass> enabled_;
  mutable Rng rng_;
  mutable std::map<FaultClass, int> injected_;
  mutable int counter_ = 0;  // bakes uniqueness into every corruption
};

}  // namespace fact::verify
