#pragma once

#include <set>
#include <string>
#include <vector>

#include "hlslib/library.hpp"
#include "ir/function.hpp"
#include "ir/statement_index.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace fact::verify {

/// How much checking the optimization pipeline performs per candidate.
///  * Off:  no checking beyond trace equivalence (legacy behavior).
///  * Fast: linear-time structural IR checks — enough to catch every
///    malformed rewrite before it reaches the scheduler.
///  * Full: Fast plus schedule legality (per-state resource bounds vs. the
///    allocation, wire dataflow consistency) on every evaluated candidate.
enum class Level { Off, Fast, Full };

/// Parses "off" / "fast" / "full"; throws fact::Error otherwise.
Level level_from_string(const std::string& s);
const char* to_string(Level level);

/// One violated invariant. `check` is a stable machine-readable name
/// (e.g. "ir.stmt-id-unique"); `detail` is the human diagnostic.
struct Issue {
  std::string check;
  std::string detail;
};

struct Report {
  std::vector<Issue> issues;

  bool ok() const { return issues.empty(); }
  /// Multi-line rendering of every issue ("<check>: <detail>").
  std::string str() const;
  /// The first issue's check name, or "" when ok.
  std::string first_check() const {
    return issues.empty() ? std::string() : issues.front().check;
  }
};

/// Thrown by check_or_throw; carries the full report so callers (the
/// transform engine's quarantine path) can classify the failure.
class VerifyError : public Error {
 public:
  explicit VerifyError(Report r);
  const Report& report() const { return report_; }

 private:
  Report report_;
};

void check_or_throw(const Report& r);

/// Scalars that some execution path can read before any definition (and
/// that are not parameters). Hardware reads such registers as 0, so this
/// is legal — but a *transform* must never enlarge the set: a rewrite
/// introducing a fresh read-before-def variable has fabricated a value.
/// Computed by a must-define forward analysis over the IR.
std::set<std::string> undefined_reads(const ir::Function& fn);

/// Deep IR invariant checks, far beyond ir::Function::validate():
///  * statement shape per kind (slots present/absent, non-null children);
///  * statement-id uniqueness and assignment (no id < 0);
///  * expression well-formedness (op arity, non-null args, named leaves);
///  * array discipline (declared arrays, scalar/array namespace split,
///    duplicate declarations, zero sizes, outputs are scalars);
///  * guard exclusion: the two branches of an If must cover disjoint
///    statement-id sets (an id aliased across branches corrupts profile
///    keys and region mapping, and breaks guard mutual exclusion);
///  * def-before-use, *differentially*: when `undef_allowed` is non-null,
///    any read-before-def variable outside that set is an error (pass the
///    baseline function's undefined_reads()); when null the check is
///    skipped, since reading a never-written register as 0 is legal.
Report verify_function(const ir::Function& fn, Level level = Level::Full,
                       const std::set<std::string>* undef_allowed = nullptr);

struct CheckUnit;  // the statements' results; defined in verify.cpp

/// A search's store of per-statement check results, found by statement
/// pointer: what checking a candidate reuses (see FunctionChecks and
/// ir::StatementIndex). StatementChecks::add(fn) checks the statements of
/// `fn` the store does not hold, as FunctionChecks(fn, &store) checks
/// them, and keeps their results. A FunctionChecks keeps no records (it
/// makes them in storage its thread reuses), so a behavior whose variants
/// are checked is added once.
using StatementChecks = ir::StatementIndex<CheckUnit>;

/// The checks of verify_function on one behavior, made per statement:
/// each statement's shape and expression issues and a must-define summary
/// (the scalars it reads before defining them, the ones it defines on
/// every path). The summaries compose into the function's undefined reads
/// as the must-define walk would, so checking a variant against a
/// StatementChecks redoes only the statements it does not share by
/// pointer with the functions added to it. The walk for id uniqueness and
/// issue order still visits every statement.
class FunctionChecks {
 public:
  /// Checks `fn`. With a `store`, each statement of `fn` that the store
  /// holds reuses the store's results, provided `fn` declares the same
  /// parameters, arrays and outputs as the functions added to it;
  /// otherwise every statement is checked. The results are the same
  /// either way.
  explicit FunctionChecks(const ir::Function& fn,
                          const StatementChecks* store = nullptr);

  /// verify_function(fn, level, undef_allowed) at level Fast or Full.
  Report report(const std::set<std::string>* undef_allowed) const;
  /// undefined_reads(fn).
  std::set<std::string> undefined_reads() const;

  /// Statements these checks checked; they reused the store's results for
  /// the others.
  size_t checked_statements() const { return checked_; }

 private:
  friend struct CheckUnit;
  FunctionChecks() = default;
  /// Checks `fn`, appending the records of the statements `reuse` (if
  /// non-null) does not hold to `unit`.
  void check(const ir::Function& fn, CheckUnit& unit,
             const PointerMap<ir::UnitRef<CheckUnit>>* reuse);

  size_t checked_ = 0;
  std::vector<Issue> issues_;  // all but ir.def-before-use, in report order
  std::vector<std::string> undefined_;  // sorted
};

/// Every issue of the STG's structure (stg::structure_issues, the checks
/// of Stg::validate: stg.empty, stg.entry, stg.edges, stg.prob,
/// stg.boundary, stg.reachable), then stg.deterministic: a state with more
/// than one successor must expose a steering signal (cond_signal),
/// otherwise the controller cannot implement the transition.
Report verify_stg(const stg::Stg& stg, Level level = Level::Full);

/// stg.deterministic alone: verify_stg for an STG whose structure is
/// already known sound (Scheduler::schedule ends with Stg::validate).
Report verify_steering(const stg::Stg& stg, Level level = Level::Full);

/// Schedule legality of `stg` as a schedule of `fn` under `alloc`:
///  * per-state resource bounds: per FU type, concurrent ops never exceed
///    the allocation; per array, concurrent memory ops never exceed the
///    single memory port;
///  * every op's stmt_id refers to a statement of `fn`;
///  * wire dataflow: every op has a result wire, no wire is driven twice
///    within one state, every wire operand has a producer somewhere in
///    the STG, and a chained consumer whose operand is produced only in
///    its own (non-ring) state appears after the producer. (Pipelined
///    prologue/ring/drain states and fused hyperperiod slots legally
///    re-materialize one op — and its wire — in several states, and
///    kernel rings read the previous traversal's wires, so cross-state
///    definitions are not errors.)
Report verify_schedule(const ir::Function& fn, const stg::Stg& stg,
                       const hlslib::Library& lib,
                       const hlslib::Allocation& alloc,
                       Level level = Level::Full);

}  // namespace fact::verify

extern template class fact::ir::StatementIndex<fact::verify::CheckUnit>;
