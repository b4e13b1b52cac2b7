#include "verify/verify.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/intern_table.hpp"
#include "util/pointer_map.hpp"
#include "util/strfmt.hpp"

namespace fact::verify {

namespace {

void add(Report& r, const char* check, std::string detail) {
  r.issues.push_back(Issue{check, std::move(detail)});
}

}  // namespace

Level level_from_string(const std::string& s) {
  if (s == "off") return Level::Off;
  if (s == "fast") return Level::Fast;
  if (s == "full") return Level::Full;
  throw Error("bad validation level '" + s + "' (want off|fast|full)");
}

const char* to_string(Level level) {
  switch (level) {
    case Level::Off: return "off";
    case Level::Fast: return "fast";
    case Level::Full: return "full";
  }
  return "?";
}

std::string Report::str() const {
  std::string out;
  for (const Issue& i : issues) {
    if (!out.empty()) out += "\n";
    out += i.check + ": " + i.detail;
  }
  return out;
}

VerifyError::VerifyError(Report r)
    : Error(r.ok() ? "verification passed" : r.str()), report_(std::move(r)) {}

void check_or_throw(const Report& r) {
  if (!r.ok()) throw VerifyError(r);
}

// ---------------------------------------------------------------------------
// IR checks
// ---------------------------------------------------------------------------

namespace {

/// The declared array names, in declaration order, behind a one-word
/// filter of their lengths and first letters that most scalar names fail.
/// Programs declare a handful, so a linear scan serves the rest.
struct ArrayNames {
  std::vector<std::string_view> names;
  uint64_t filter = 0;

  static uint64_t bit(std::string_view n) {
    const unsigned first = n.empty() ? 0 : static_cast<unsigned char>(n[0]);
    return uint64_t{1} << ((first * 7 + n.size()) % 64);
  }
  void clear() {
    names.clear();
    filter = 0;
  }
  void push_back(std::string_view n) {
    names.push_back(n);
    filter |= bit(n);
  }
};

bool is_array(const ArrayNames& arrays, std::string_view name) {
  return (arrays.filter & ArrayNames::bit(name)) &&
         std::find(arrays.names.begin(), arrays.names.end(), name) !=
             arrays.names.end();
}

/// Preorder over the statements Function::for_each visits: `s`, then each
/// child list its kind walks (If: then, else; While: body; Block: stmts),
/// skipping null children.
template <typename F>
void preorder(const ir::Stmt& s, F& f) {
  f(s);
  s.for_each_child_list([&](const std::vector<ir::StmtPtr>& list) {
    for (const auto& c : list)
      if (c) preorder(*c, f);
  });
}

/// True when `s` holds a non-empty child list its kind does not walk
/// (always also an ir.shape issue). The guard walk sees such lists.
bool has_unwalked_list(const ir::Stmt& s) {
  switch (s.kind) {
    case ir::StmtKind::If:
      return !s.stmts.empty();
    case ir::StmtKind::While:
      return !s.else_stmts.empty() || !s.stmts.empty();
    case ir::StmtKind::Block:
      return !s.then_stmts.empty() || !s.else_stmts.empty();
    default:
      return !s.then_stmts.empty() || !s.else_stmts.empty() ||
             !s.stmts.empty();
  }
}

/// Calls `read` on the name of every Var node of `e`.
template <typename F>
void for_each_read(const ir::ExprPtr& e, F& read) {
  if (!e) return;
  if (e->op() == ir::Op::Var) read(e->name());
  for (const auto& a : e->args()) for_each_read(a, read);
}

/// Checks one expression tree: non-null nodes/args, op arity, named leaves,
/// and the scalar/array namespace split. Calls `read` on the name of every
/// Var node, as for_each_read does.
template <typename F>
void check_expr(Report& r, const ir::ExprPtr& e, int stmt_id,
                const ArrayNames& arrays, F& read) {
  if (!e) {
    add(r, "ir.expr-null", strfmt("statement %d holds a null expression", stmt_id));
    return;
  }
  for (const auto& a : e->args()) {
    if (!a) {
      add(r, "ir.expr-null",
          strfmt("statement %d: '%s' node has a null operand", stmt_id,
                 ir::op_token(e->op())));
      for_each_read(e, read);
      return;  // cannot recurse safely
    }
  }
  const int want = ir::op_arity(e->op());
  if (want >= 0 && static_cast<int>(e->num_args()) != want)
    add(r, "ir.expr-arity",
        strfmt("statement %d: '%s' node has %zu operand(s), expected %d",
               stmt_id, ir::op_token(e->op()), e->num_args(), want));
  switch (e->op()) {
    case ir::Op::Var:
      read(e->name());
      if (e->name().empty())
        add(r, "ir.expr-name", strfmt("statement %d: unnamed Var node", stmt_id));
      else if (is_array(arrays, e->name()))
        add(r, "ir.arrays",
            strfmt("statement %d: array '%s' read as a scalar", stmt_id,
                   e->name().c_str()));
      break;
    case ir::Op::ArrayRead:
      if (e->name().empty())
        add(r, "ir.expr-name",
            strfmt("statement %d: unnamed ArrayRead node", stmt_id));
      else if (!is_array(arrays, e->name()))
        add(r, "ir.arrays",
            strfmt("statement %d: read of undeclared array '%s'", stmt_id,
                   e->name().c_str()));
      break;
    default:
      break;
  }
  for (const auto& a : e->args()) check_expr(r, a, stmt_id, arrays, read);
}

/// Statement shape: per kind, the right slots must be present and the
/// others empty; child lists must hold no null statements.
void check_stmt_shape(Report& r, const ir::Stmt& s, const ArrayNames& arrays) {
  auto null_child = [&](const std::vector<ir::StmtPtr>& list) {
    for (const auto& c : list)
      if (!c) return true;
    return false;
  };
  if (null_child(s.then_stmts) || null_child(s.else_stmts) ||
      null_child(s.stmts)) {
    add(r, "ir.stmt-null",
        strfmt("statement %d holds a null child statement", s.id));
    return;
  }
  switch (s.kind) {
    case ir::StmtKind::Assign:
      if (s.target.empty())
        add(r, "ir.shape", strfmt("assign %d has no target", s.id));
      else if (is_array(arrays, s.target))
        add(r, "ir.arrays",
            strfmt("assign %d writes array name '%s' as a scalar", s.id,
                   s.target.c_str()));
      if (!s.value)
        add(r, "ir.shape", strfmt("assign %d has no value", s.id));
      if (s.index || s.cond || !s.then_stmts.empty() || !s.else_stmts.empty() ||
          !s.stmts.empty())
        add(r, "ir.shape", strfmt("assign %d carries extraneous slots", s.id));
      break;
    case ir::StmtKind::Store:
      if (!is_array(arrays, s.target))
        add(r, "ir.arrays",
            strfmt("store %d targets undeclared array '%s'", s.id,
                   s.target.c_str()));
      if (!s.index || !s.value)
        add(r, "ir.shape", strfmt("store %d misses index or value", s.id));
      if (s.cond || !s.then_stmts.empty() || !s.else_stmts.empty() ||
          !s.stmts.empty())
        add(r, "ir.shape", strfmt("store %d carries extraneous slots", s.id));
      break;
    case ir::StmtKind::If:
      if (!s.cond) add(r, "ir.shape", strfmt("if %d has no condition", s.id));
      if (!s.stmts.empty())
        add(r, "ir.shape", strfmt("if %d carries a block list", s.id));
      break;
    case ir::StmtKind::While:
      if (!s.cond)
        add(r, "ir.shape", strfmt("while %d has no condition", s.id));
      if (s.then_stmts.empty())
        add(r, "ir.empty-loop", strfmt("while %d has an empty body", s.id));
      if (!s.else_stmts.empty() || !s.stmts.empty())
        add(r, "ir.shape", strfmt("while %d carries extraneous lists", s.id));
      break;
    case ir::StmtKind::Block:
      if (s.cond || s.value || s.index || !s.then_stmts.empty() ||
          !s.else_stmts.empty())
        add(r, "ir.shape", strfmt("block %d carries extraneous slots", s.id));
      break;
  }
}

/// Statement ids seen so far in one check: a stamp per id below kFlagged,
/// kept from check to check (an id is seen when its stamp is the check's),
/// and a set for the rest (only a corrupted function carries ids that
/// large).
class IdSet {
 public:
  /// Forgets every id.
  void clear() {
    if (++stamp_ == 0) {  // wrapped: no old stamp may match
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
    rest_.clear();
  }

  /// False when `id` (>= 0) was inserted before.
  bool insert(int id) {
    if (id >= kFlagged) return rest_.insert(id).second;
    const size_t i = static_cast<size_t>(id);
    if (i >= stamps_.size())
      stamps_.resize(std::max({i + 1, 2 * stamps_.size(), size_t{256}}), 0);
    if (stamps_[i] == stamp_) return false;
    stamps_[i] = stamp_;
    return true;
  }

 private:
  static constexpr int kFlagged = 1 << 20;
  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 0;
  std::set<int> rest_;
};

/// Every statement id of a subtree list, walking all three child lists
/// whatever the statement's kind, sorted and unique.
void collect_ids(const std::vector<ir::StmtPtr>& list, std::vector<int>& out) {
  for (const auto& s : list) {
    if (!s) continue;
    out.push_back(s->id);
    collect_ids(s->then_stmts, out);
    collect_ids(s->else_stmts, out);
    collect_ids(s->stmts, out);
  }
}

std::vector<int> sorted_ids(const std::vector<ir::StmtPtr>& list) {
  std::vector<int> ids;
  collect_ids(list, ids);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

/// The results of FunctionChecks' passes, per statement, in flat arrays
/// (an ir::StatementIndex unit). A record's children are references, into
/// this unit or, for the records a pass reused, into the store's. Records
/// name scalars by their numbers in `names`; a pass that reuses a store's
/// records extends the store's table, so a number means the same in both
/// units.
struct CheckUnit {
  using Ref = ir::UnitRef<CheckUnit>;
  using Range = ir::UnitRange;
  /// One statement's results. Its must-define summary, as sets of scalars
  /// (one bit per number, in `words`): `reads` are those it reads on some
  /// path before it defines them itself, `defs` those it defines on every
  /// path. A scalar read in it is undefined exactly when it is in `reads`
  /// and not defined on entry, and the scalars defined on exit are those
  /// on entry plus `defs`.
  struct Record {
    const ir::Stmt* stmt = nullptr;
    Range issues;  // its own shape and expression issues, in report order
    Range reads, defs;
    Range kids;  // the non-null statements of the lists its kind walks
    uint32_t then_kids = 0;  // of kids, an If's then list
    bool unwalked = false;   // has_unwalked_list
  };

  static std::span<const uint64_t> words_of(Ref r, Range Record::*set) {
    const Range& g = (*r).*set;
    return {r.unit->words.data() + g.begin, g.size};
  }

  /// Checks `fn` as FunctionChecks does, appending the records of the
  /// statements `reuse` (if non-null) does not hold: the pass of a
  /// StatementChecks.
  void pass(const ir::Function& fn, const PointerMap<Ref>* reuse) {
    FunctionChecks().check(fn, *this, reuse);
  }

  std::vector<Record> records;
  std::vector<Issue> issues;
  std::vector<uint64_t> words;
  std::vector<Ref> kids;
  InternTable<std::string> names;  // the scalars
};

namespace {

using Unit = CheckUnit;

/// A set of scalars, one bit per number; words past the end are zero.
using Bits = std::vector<uint64_t>;

void set_bit(Bits& b, int32_t id) {
  const size_t w = static_cast<size_t>(id) / 64;
  if (w >= b.size()) b.resize(w + 1, 0);
  b[w] |= uint64_t{1} << (id % 64);
}

/// Storage a check reuses from one function to the next on a thread.
struct Scratch {
  Unit unit;  // the records of the check under way
  ArrayNames arrays;
  IdSet ids;
  std::vector<int32_t> own;  // the scalars a statement reads itself
  Bits reads, defs, other_reads, other_defs;
  std::vector<Unit::Ref> kids, top;
  std::vector<std::string_view> undefined;
};
Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Checks statements into the records of one Unit, reusing the record of
/// every statement `reuse` holds, and reports in one preorder walk what
/// verify_function reports of them: each statement's id issue, then its
/// own issues (fresh or the reused record's).
class Checker {
 public:
  Checker(Unit& unit, const ArrayNames& arrays,
          const PointerMap<Unit::Ref>* reuse, Report& out)
      : u_(unit), arrays_(arrays), reuse_(reuse), out_(out), sc_(scratch()) {
    sc_.ids.clear();
  }

  /// The record of `s`: the one `reuse` holds, or a new one. Reports the
  /// subtree unless reporting is off.
  Unit::Ref get(const ir::Stmt& s) {
    if (reuse_)
      if (const Unit::Ref* r = reuse_->find(&s)) {
        if (reporting_) report(*r);
        return *r;
      }
    return check(s);
  }

  /// Stops reporting: get() then only finds or makes records.
  void stop_reporting() { reporting_ = false; }

  /// Whether the guard-exclusion check can fire: some id reported was
  /// unassigned or repeated, or some statement holds a child list its kind
  /// does not walk.
  bool guard_possible() const { return guard_possible_; }

  /// The must-define summary of `kids` run in order: `reads` are the
  /// scalars some statement reads before the ones before it define them,
  /// `defs` the scalars they define on every path.
  static void compose(std::span<const Unit::Ref> kids, Bits& reads,
                      Bits& defs) {
    reads.clear();
    defs.clear();
    for (const Unit::Ref k : kids) {
      const auto kr = Unit::words_of(k, &Unit::Record::reads);
      const auto kd = Unit::words_of(k, &Unit::Record::defs);
      if (reads.size() < kr.size()) reads.resize(kr.size(), 0);
      for (size_t i = 0; i < kr.size(); ++i)
        reads[i] |= kr[i] & ~(i < defs.size() ? defs[i] : 0);
      if (defs.size() < kd.size()) defs.resize(kd.size(), 0);
      for (size_t i = 0; i < kd.size(); ++i) defs[i] |= kd[i];
    }
  }

 private:
  /// Reports `s`'s id, and notes whether its lists make the guard check
  /// possible.
  void report_id(const ir::Stmt& s, bool unwalked) {
    if (s.id < 0) {
      add(out_, "ir.stmt-id-assigned",
          "a statement has no id (renumber/assign_fresh_ids missed it)");
      guard_possible_ = true;
    } else if (!sc_.ids.insert(s.id)) {
      add(out_, "ir.stmt-id-unique",
          strfmt("statement id %d appears twice", s.id));
      guard_possible_ = true;
    }
    if (unwalked) guard_possible_ = true;
  }

  /// Reports the statements of the reused record `ref`'s subtree.
  void report(Unit::Ref ref) {
    const Unit::Record& rec = *ref;
    report_id(*rec.stmt, rec.unwalked);
    if (rec.issues.size) {
      const auto first = ref.unit->issues.begin() + rec.issues.begin;
      out_.issues.insert(out_.issues.end(), first, first + rec.issues.size);
    }
    for (uint32_t k = 0; k < rec.kids.size; ++k)
      report(ref.unit->kids[rec.kids.begin + k]);
  }

  /// Checks `s`: itself, then its children, then its summary.
  Unit::Ref check(const ir::Stmt& s) {
    Unit::Record r;
    r.stmt = &s;
    r.unwalked = has_unwalked_list(s);
    if (reporting_) report_id(s, r.unwalked);

    // The shape and expression checks, which also collect the scalars the
    // slots that the must-define walk reads read: an Assign's value, a
    // Store's index and value, an If's or While's condition.
    Report own;
    check_stmt_shape(own, s, arrays_);
    std::vector<int32_t>& own_reads = sc_.own;
    const size_t own_mark = own_reads.size();
    const auto read = [&](std::string_view name) {
      own_reads.push_back(u_.names.intern(name));
    };
    const auto ignore = [](std::string_view) {};
    s.for_each_expr_slot([&](const ir::ExprPtr& e) {
      const bool counts =
          s.kind == ir::StmtKind::Assign ? &e == &s.value
          : s.kind == ir::StmtKind::Store ? &e != &s.cond
                                          : &e == &s.cond;
      if (counts && s.kind != ir::StmtKind::Block)
        check_expr(own, e, s.id, arrays_, read);
      else
        check_expr(own, e, s.id, arrays_, ignore);
    });
    r.issues = {static_cast<uint32_t>(u_.issues.size()),
                static_cast<uint32_t>(own.issues.size())};
    if (reporting_)
      out_.issues.insert(out_.issues.end(), own.issues.begin(),
                         own.issues.end());
    std::move(own.issues.begin(), own.issues.end(),
              std::back_inserter(u_.issues));

    r.kids = ir::add_kids(
        u_, s, sc_.kids, [&](const ir::Stmt& c) { return get(c); },
        &r.then_kids);
    summarize(s, r, std::span<const int32_t>(own_reads).subspan(own_mark));
    own_reads.resize(own_mark);
    u_.records.push_back(r);
    return {&u_, static_cast<uint32_t>(u_.records.size() - 1)};
  }

  /// Fills in the must-define summary of `s`, whose kids are checked and
  /// whose own reads are `own`.
  void summarize(const ir::Stmt& s, Unit::Record& r,
                 std::span<const int32_t> own) {
    switch (s.kind) {
      case ir::StmtKind::Assign: {
        r.reads = put(own);
        const int32_t target = u_.names.intern(s.target);
        r.defs = put({&target, 1});
        return;
      }
      case ir::StmtKind::Store:
        r.reads = put(own);
        r.defs = {};
        return;
      default:
        break;
    }
    Scratch& sc = sc_;
    Bits& reads = sc.reads;
    Bits& defs = sc.defs;
    const std::span<const Unit::Ref> kids(u_.kids.data() + r.kids.begin,
                                          r.kids.size);
    switch (s.kind) {
      case ir::StmtKind::If: {
        // Defined after the If: defined on exit from both branches.
        compose(kids.first(r.then_kids), sc.other_reads, sc.other_defs);
        compose(kids.subspan(r.then_kids), reads, defs);
        defs.resize(std::min(defs.size(), sc.other_defs.size()));
        for (size_t i = 0; i < defs.size(); ++i) defs[i] &= sc.other_defs[i];
        unite(reads, sc.other_reads);
        for (const int32_t id : own) set_bit(reads, id);
        break;
      }
      case ir::StmtKind::While:
        // The body may execute zero times: defs inside do not reach the
        // code after the loop, but they do reach later body statements.
        compose(kids, reads, sc.other_defs);
        for (const int32_t id : own) set_bit(reads, id);
        defs.clear();
        break;
      default:  // Block
        compose(kids, reads, defs);
        break;
    }
    r.reads = {static_cast<uint32_t>(u_.words.size()),
               static_cast<uint32_t>(reads.size())};
    u_.words.insert(u_.words.end(), reads.begin(), reads.end());
    r.defs = {static_cast<uint32_t>(u_.words.size()),
              static_cast<uint32_t>(defs.size())};
    u_.words.insert(u_.words.end(), defs.begin(), defs.end());
  }

  /// Appends the set of scalars `ids` to the unit's words.
  Unit::Range put(std::span<const int32_t> ids) {
    int32_t top = -1;
    for (const int32_t id : ids) top = std::max(top, id);
    const Unit::Range set{static_cast<uint32_t>(u_.words.size()),
                          top < 0 ? 0 : static_cast<uint32_t>(top / 64 + 1)};
    for (uint32_t w = 0; w < set.size; ++w) {
      uint64_t word = 0;
      for (const int32_t id : ids)
        if (static_cast<uint32_t>(id) / 64 == w) word |= uint64_t{1} << (id % 64);
      u_.words.push_back(word);
    }
    return set;
  }

  /// a = a ∪ b.
  static void unite(Bits& a, const Bits& b) {
    if (a.size() < b.size()) a.resize(b.size(), 0);
    for (size_t i = 0; i < b.size(); ++i) a[i] |= b[i];
  }

  Unit& u_;
  const ArrayNames& arrays_;
  const PointerMap<Unit::Ref>* reuse_;
  Report& out_;
  Scratch& sc_;  // kids and own: pending per open record
  bool reporting_ = true;
  bool guard_possible_ = false;
};

}  // namespace

FunctionChecks::FunctionChecks(const ir::Function& fn,
                               const StatementChecks* store) {
  const PointerMap<Unit::Ref>* reuse =
      store ? store->reusable_for(fn) : nullptr;
  Unit& unit = scratch().unit;
  unit.records.clear();
  unit.issues.clear();
  unit.words.clear();
  unit.kids.clear();
  unit.names.reset(reuse ? &store->unit().names : nullptr);
  check(fn, unit, reuse);
}

void FunctionChecks::check(const ir::Function& fn, CheckUnit& unit,
                           const PointerMap<CheckUnit::Ref>* reuse) {
  const size_t mark = unit.records.size();
  Report r;

  // Declarations.
  ArrayNames& arrays = scratch().arrays;
  arrays.clear();
  for (const auto& a : fn.arrays()) {
    if (a.size == 0)
      add(r, "ir.arrays", strfmt("array '%s' has size 0", a.name.c_str()));
    if (is_array(arrays, a.name))
      add(r, "ir.arrays", strfmt("duplicate array '%s'", a.name.c_str()));
    else
      arrays.push_back(a.name);
  }
  const auto& params = fn.params();
  for (size_t i = 0; i < params.size(); ++i) {
    if (std::find(params.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  params.end(), params[i]) != params.end()) {
      add(r, "ir.params", "duplicate parameter name");
      break;
    }
  }
  for (const auto& p : params)
    if (is_array(arrays, p))
      add(r, "ir.arrays", strfmt("parameter '%s' collides with an array", p.c_str()));
  for (const auto& o : fn.outputs())
    if (is_array(arrays, o))
      add(r, "ir.outputs", strfmt("output '%s' must be a scalar", o.c_str()));

  if (!fn.body()) {
    add(r, "ir.shape", "function has no body");
    issues_ = std::move(r.issues);
    return;
  }
  if (fn.body()->kind != ir::StmtKind::Block)
    add(r, "ir.shape", "function body is not a Block");

  // Statement ids, shape and expressions, in one preorder walk that also
  // makes the records.
  Checker checker(unit, arrays, reuse, r);
  const Unit::Ref body = checker.get(*fn.body());

  // Guard exclusion: an If's branches must cover disjoint id sets. A
  // statement id reachable under both polarities of one guard breaks the
  // mutual exclusion that cross-basic-block transforms rely on, and makes
  // profile keys ambiguous. When every id above was assigned and distinct
  // and no skipped list exists, the branches' ids are disjoint and the
  // walk is skipped.
  if (checker.guard_possible()) {
    auto check_guard = [&](const ir::Stmt& s) {
      if (s.kind != ir::StmtKind::If) return;
      const std::vector<int> then_ids = sorted_ids(s.then_stmts);
      const std::vector<int> else_ids = sorted_ids(s.else_stmts);
      for (int id : then_ids)
        if (std::binary_search(else_ids.begin(), else_ids.end(), id))
          add(r, "ir.guard-exclusion",
              strfmt("statement id %d reachable in both branches of if %d",
                     id, s.id));
    };
    preorder(*fn.body(), check_guard);
  }
  issues_ = std::move(r.issues);

  // Must-define over the body's statements, with the parameters defined
  // on entry.
  std::span<const uint64_t> reads = Unit::words_of(body, &Unit::Record::reads);
  if (fn.body()->kind != ir::StmtKind::Block) {
    Scratch& sc = scratch();
    sc.top.clear();
    checker.stop_reporting();
    for (const auto& s : fn.body()->stmts)
      if (s) sc.top.push_back(checker.get(*s));
    Checker::compose(sc.top, sc.reads, sc.defs);
    reads = sc.reads;
  }
  std::vector<std::string_view>& undefined = scratch().undefined;
  undefined.clear();
  for (size_t w = 0; w < reads.size(); ++w)
    for (uint64_t bits = reads[w]; bits; bits &= bits - 1) {
      const std::string& v =
          unit.names[static_cast<int32_t>(w * 64) + std::countr_zero(bits)];
      if (std::find(params.begin(), params.end(), v) == params.end())
        undefined.push_back(v);
    }
  std::sort(undefined.begin(), undefined.end());
  undefined_.assign(undefined.begin(), undefined.end());
  checked_ = unit.records.size() - mark;
}

Report FunctionChecks::report(
    const std::set<std::string>* undef_allowed) const {
  Report r;
  r.issues = issues_;
  if (undef_allowed) {
    for (const std::string& name : undefined_)
      if (!undef_allowed->count(name))
        add(r, "ir.def-before-use",
            strfmt("transform introduced read-before-def of '%s'",
                   name.c_str()));
  }
  return r;
}

std::set<std::string> FunctionChecks::undefined_reads() const {
  return {undefined_.begin(), undefined_.end()};
}

std::set<std::string> undefined_reads(const ir::Function& fn) {
  return FunctionChecks(fn).undefined_reads();
}

Report verify_function(const ir::Function& fn, Level level,
                       const std::set<std::string>* undef_allowed) {
  if (level == Level::Off) return {};
  return FunctionChecks(fn).report(undef_allowed);
}

// ---------------------------------------------------------------------------
// STG checks
// ---------------------------------------------------------------------------

Report verify_stg(const stg::Stg& stg, Level level) {
  Report r;
  if (level == Level::Off) return r;
  for (stg::StructureIssue& i : stg::structure_issues(stg))
    add(r, i.check, std::move(i.detail));
  for (Issue& i : verify_steering(stg, level).issues)
    r.issues.push_back(std::move(i));
  return r;
}

Report verify_steering(const stg::Stg& stg, Level level) {
  Report r;
  if (level == Level::Off) return r;
  // More than one successor requires a steering signal the controller can
  // test; probability annotations alone cannot be implemented in hardware.
  for (const stg::State& s : stg.states())
    if (s.out_edges.size() > 1 && s.cond_signal.empty())
      add(r, "stg.deterministic",
          strfmt("state '%s' has %zu successors but no cond_signal",
                 s.name.c_str(), s.out_edges.size()));
  return r;
}

// ---------------------------------------------------------------------------
// Schedule legality
// ---------------------------------------------------------------------------

Report verify_schedule(const ir::Function& fn, const stg::Stg& stg,
                       const hlslib::Library& lib,
                       const hlslib::Allocation& alloc, Level level) {
  Report r;
  if (level == Level::Off) return r;
  (void)lib;

  const std::vector<int> ids = fn.stmt_ids();

  // Pass 1: collect wire definition sites. A pipelined loop legitimately
  // materializes one op (one wire) into its prologue, kernel-ring, and
  // drain states, and a fused phase repeats an op across its hyperperiod
  // slots — so a wire may be defined in several states. What is never
  // legal is the same wire defined twice within one state (two ops would
  // drive one net in the same cycle), or an op without a result wire.
  std::unordered_map<int, std::vector<int>> wire_def_states;
  for (size_t si = 0; si < stg.num_states(); ++si) {
    std::unordered_set<int> in_state;
    for (const stg::OpInstance& op : stg.state(static_cast<int>(si)).ops) {
      if (op.wire < 0) {
        add(r, "sched.wires",
            strfmt("state '%s': op '%s' has no result wire",
                   stg.state(static_cast<int>(si)).name.c_str(),
                   op.label().c_str()));
        continue;
      }
      if (!in_state.insert(op.wire).second)
        add(r, "sched.wires",
            strfmt("wire '%s' defined twice in state '%s'",
                   stg::wire_name(op.wire).c_str(),
                   stg.state(static_cast<int>(si)).name.c_str()));
      wire_def_states[op.wire].push_back(static_cast<int>(si));
    }
  }

  // Pass 2: per-state resource bounds, stmt ids, and chaining order.
  for (size_t si = 0; si < stg.num_states(); ++si) {
    const stg::State& st = stg.state(static_cast<int>(si));
    std::map<std::string_view, int> fu_used;
    std::map<std::string_view, int> mem_used;
    std::unordered_set<int> defined_here;
    for (const stg::OpInstance& op : st.ops) {
      if (op.stmt_id >= 0 &&
          !std::binary_search(ids.begin(), ids.end(), op.stmt_id))
        add(r, "sched.stmt-ids",
            strfmt("state '%s': op '%s' references missing statement %d",
                   st.name.c_str(), op.label().c_str(), op.stmt_id));

      // Resource accounting mirrors the scheduler's ResourceTable: memory
      // ops are bounded per array (one port each); datapath ops per FU
      // type; ops with neither (register copies, boolean glue) are free.
      if (!op.array.empty()) {
        if (++mem_used[op.array] > 1)
          add(r, "sched.resources",
              strfmt("state '%s': %d concurrent accesses to array '%s' "
                     "(1 memory port)",
                     st.name.c_str(), mem_used[op.array],
                     std::string(op.array).c_str()));
      } else if (!op.fu_type.empty()) {
        const int avail = alloc.count(op.fu_type);
        if (++fu_used[op.fu_type] > avail)
          add(r, "sched.resources",
              strfmt("state '%s': %d op(s) on FU type '%s' but only %d "
                     "allocated",
                     st.name.c_str(), fu_used[op.fu_type],
                     std::string(op.fu_type).c_str(), avail));
      }

      if (level == Level::Full) {
        for (const stg::Operand& operand : op.operands) {
          if (operand.kind() != stg::Operand::Kind::Wire) continue;
          const int wire = operand.wire();
          auto it = wire_def_states.find(wire);
          if (it == wire_def_states.end()) {
            add(r, "sched.wires",
                strfmt("state '%s': op '%s' reads undefined wire '%s'",
                       st.name.c_str(), op.label().c_str(),
                       operand.str().c_str()));
          } else if (st.ring_id < 0 && !defined_here.count(wire) &&
                     it->second.size() == 1 &&
                     it->second.front() == static_cast<int>(si)) {
            // The operand's only definition is later in this same state:
            // a chained consumer ahead of its producer. Ring states
            // legally read the previous traversal's wires, and a wire
            // with definitions in other states reaches here through a
            // register, so neither case is flagged.
            add(r, "sched.chaining",
                strfmt("state '%s': op '%s' reads wire '%s' before it is "
                       "produced in the same cycle",
                       st.name.c_str(), op.label().c_str(),
                       operand.str().c_str()));
          }
        }
      }
      if (op.wire >= 0) defined_here.insert(op.wire);
    }
  }

  return r;
}

}  // namespace fact::verify

template class fact::ir::StatementIndex<fact::verify::CheckUnit>;
