#include "sim/interp.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/intern_table.hpp"
#include "util/pointer_map.hpp"

namespace fact::sim {

using ir::Expr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

namespace {

/// Instruction codes. The operators come first, in ir::Op order:
/// `d = op(a, b)` (unary operators ignore b).
enum class Code : uint8_t {
  Add, Sub, Mul, Lt, Le, Gt, Ge, Eq, Ne, BitNot, Shl, Shr, And, Or, Not,
  Mov,         // d = a
  Load,        // d = memory[b + wrap(a, c)]
  Store,       // memory[d + wrap(a, c)] = b
  Step,        // steps += a; abort past the limit
  If,          // count branch d on a; jump to b when a is zero
  Loop,        // count branch d on a; jump to b when a is nonzero
  JumpIfZero,  // jump to b when a is zero
  Jump,        // jump to b
  Fail,        // abort with message a
  Mark,        // top-level boundary a: the machine stops here
  Halt,
  // Fragment pieces only, never in a program: the link's bookkeeping, at
  // the point of the compile where it happens.
  StepReq,  // a statement's (or a While iteration's) step
  Land,     // the jump at piece a lands here
  Child,    // the fragment's child a links here
};

static_assert(static_cast<int>(Op::Not) - static_cast<int>(Op::Add) ==
                  static_cast<int>(Code::Not),
              "operator codes follow ir::Op");

Code operator_code(Op op) {
  return static_cast<Code>(static_cast<int>(op) - static_cast<int>(Op::Add));
}

struct Instr {
  Code code;
  int32_t d = 0, a = 0, b = 0, c = 0;
};

/// Which of an instruction's d, a and b (bits 0, 1 and 2) are registers.
constexpr uint8_t register_fields(Code code) {
  switch (code) {
    case Code::Mov:
    case Code::Load:
      return 0b011;
    case Code::Store:
      return 0b110;
    case Code::If:
    case Code::Loop:
    case Code::JumpIfZero:
      return 0b010;
    default:
      return code < Code::Mov ? 0b111 : 0;  // the operators
  }
}

/// Operand encoding in a fragment: a scalar is its number in the unit's
/// names, a temporary its number above kTemp, a constant its number in the
/// unit's constants above kConst, and a unary operator's unused second
/// operand kUnused (register 0 in a program, read and ignored). The top
/// bits are the kind, the rest the number (kNumber).
constexpr int32_t kTemp = 1 << 29;
constexpr int32_t kConst = 2 << 29;
constexpr int32_t kUnused = 3 << 29;
constexpr int32_t kNumber = (1 << 29) - 1;

}  // namespace

/// The compiled form of a behavior. Names survive only where the
/// interpreter needs them: stimulus keys, the observation layout and error
/// messages.
struct Interpreter::Program {
  struct Array {
    std::string name;
    int32_t offset = 0;  // segment in the flat memory
    int32_t size = 0;
    bool is_input = false;
  };

  std::string fn_name;  // for the step-limit diagnostic
  std::vector<Instr> code;
  std::vector<int64_t> registers;  // at reset: scalars, temporaries, constants
  int32_t num_scalars = 0;
  std::vector<std::pair<std::string, int32_t>> params;  // stimulus -> register
  // The first declaration of each name, in name order: the memory is the
  // tail of an observation as it stands.
  std::vector<Array> arrays;
  int32_t memory_size = 0;
  std::vector<int32_t> output_registers;  // in layout order
  ObservationLayout layout;
  std::vector<int> branch_ids;      // branch counter -> statement id
  std::vector<std::string> errors;  // Fail messages
  std::vector<std::string> scalar_names;  // per scalar register
  // The top-level statements the program runs, a range of its function's
  // (marks part them, numbered from 1): per statement its first branch
  // counter, then the counters' end; per statement and array whether the
  // statement stores to the array, at [statement * arrays + array]; and
  // per array whether the program loads or stores it at all.
  size_t statements = 0;
  std::vector<int32_t> top_counters;
  std::vector<uint8_t> top_stores;
  std::vector<uint8_t> touches;
};

/// The fragments of passes over functions, in flat arrays (an
/// ir::StatementIndex unit). A fragment's own code and tables are
/// contiguous ranges; its children are references, into this unit or, for
/// the fragments a pass reused, into the store's. Fragments number scalars
/// and constants in `names` and `consts`; a pass that reuses a store's
/// fragments extends the store's tables, so a number means the same in
/// both units.
struct FragmentUnit {
  using Ref = ir::UnitRef<FragmentUnit>;
  using Range = ir::UnitRange;
  struct Fragment {
    const Stmt* stmt = nullptr;
    Range code, errors, kids;
    /// The scalars and the constants (tagged with kConst) the statement
    /// reads or writes itself, each where its compile first sees it, and
    /// kChild where each child's compile runs.
    Range sights;
    int32_t temps = 0;      // temporaries its subtree uses, at most
    uint32_t instrs = 0;    // pieces of its subtree: at least its instructions
    uint32_t counters = 0;  // branch counters of its subtree
    bool counted = false;   // an If or While: it numbers a branch counter
  };

  /// In `sights`, a child's place.
  static constexpr int32_t kChild = -1;

  /// Compiles each statement of `fn` that `reuse` (if non-null) does not
  /// hold into a fragment, appending it; `body` gets the fragments of the
  /// top-level statements.
  void compile(const ir::Function& fn,
               const std::vector<Interpreter::Program::Array>& arrays,
               const PointerMap<Ref>* reuse);
  /// The same, laying out fn's arrays: the pass of a StatementCode.
  void pass(const ir::Function& fn, const PointerMap<Ref>* reuse);

  std::vector<Fragment> records;
  std::vector<Instr> code;
  std::vector<int32_t> sights;
  std::vector<std::string> errors;
  std::vector<Ref> kids;
  std::vector<Ref> body;  // the last pass's top-level statements, in order
  InternTable<std::string> names;  // the scalars
  InternTable<int64_t> consts;
};

namespace {

using Program = Interpreter::Program;
using Unit = FragmentUnit;

/// The arrays of `fn` as a program lays them out: the first declaration
/// of each name, sorted by name, one memory segment each.
std::vector<Program::Array> lay_out_arrays(const ir::Function& fn,
                                           int32_t& memory_size) {
  std::vector<Program::Array> arrays;
  // Cells are addressed by int32 offsets.
  constexpr size_t kMaxCells = std::numeric_limits<int32_t>::max();
  size_t cells = 0;
  for (const auto& a : fn.arrays()) {
    const bool redeclared =  // the first declaration wins
        std::any_of(arrays.begin(), arrays.end(),
                    [&](const Program::Array& x) { return x.name == a.name; });
    if (redeclared) continue;
    if (a.size > kMaxCells - cells)
      throw Error("the arrays of '" + fn.name() +
                  "' are too large to simulate");
    cells += a.size;
    arrays.push_back({a.name, 0, static_cast<int32_t>(a.size), a.is_input});
  }
  std::sort(arrays.begin(), arrays.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });
  memory_size = 0;
  for (Program::Array& a : arrays) {
    a.offset = memory_size;
    memory_size += a.size;
  }
  return arrays;
}

/// What a compile reuses from one function to the next on a thread.
struct CompileScratch {
  Unit unit;  // the fragments of the compile under way
  std::vector<Unit::Ref> kids;
  std::vector<int32_t> regs, consts, temps, at, scalar_ids, starts;
  std::vector<int64_t> values;
  std::vector<std::pair<std::string_view, int32_t>> outs;
};
CompileScratch& compile_scratch() {
  thread_local CompileScratch s;
  return s;
}

/// Compiles statements into the fragments of one Unit, reusing the
/// fragment of every statement `reuse` holds.
class FragmentCompiler {
 public:
  FragmentCompiler(Unit& unit, const std::vector<Program::Array>& arrays,
                   const PointerMap<Unit::Ref>* reuse)
      : u_(unit),
        arrays_(arrays),
        reuse_(reuse),
        kids_(compile_scratch().kids) {}

  /// The fragment of `s`: the one `reuse` holds, or a new one.
  Unit::Ref get(const Stmt& s) {
    if (reuse_)
      if (const Unit::Ref* r = reuse_->find(&s)) return *r;
    return compile(s);
  }

 private:
  /// Compiles `s`, its children first, so that its own code is one range
  /// and only one fragment is open at a time.
  Unit::Ref compile(const Stmt& s) {
    const Unit::Range kids =
        ir::add_kids(u_, s, kids_, [&](const Stmt& c) { return get(c); });
    f_ = Unit::Fragment{};
    f_.stmt = &s;
    f_.kids = kids;
    f_.code.begin = static_cast<uint32_t>(u_.code.size());
    f_.errors.begin = static_cast<uint32_t>(u_.errors.size());
    f_.sights.begin = static_cast<uint32_t>(u_.sights.size());
    next_kid_ = 0;
    max_temps_ = 0;
    stmt(s);
    f_.code.size = static_cast<uint32_t>(u_.code.size()) - f_.code.begin;
    f_.instrs = f_.code.size;
    f_.temps = max_temps_;
    f_.counters = f_.counted ? 1 : 0;
    for (uint32_t k = 0; k < f_.kids.size; ++k) {
      const Unit::Fragment& kid = *u_.kids[f_.kids.begin + k];
      f_.temps = std::max(f_.temps, kid.temps);
      f_.instrs += kid.instrs;
      f_.counters += kid.counters;
    }
    u_.records.push_back(f_);
    return {&u_, static_cast<uint32_t>(u_.records.size() - 1)};
  }

  /// Notes the fragment's first sight of scalar or constant `id`.
  int32_t sight(int32_t id) {
    const auto first = u_.sights.begin() + f_.sights.begin;
    if (std::find(first, u_.sights.end(), id) == u_.sights.end()) {
      u_.sights.push_back(id);
      f_.sights.size++;
    }
    return id;
  }

  int32_t reg(std::string_view name) { return sight(u_.names.intern(name)); }

  int32_t constant(int64_t v) { return sight(kConst | u_.consts.intern(v)); }

  int32_t temp() {
    max_temps_ = std::max(max_temps_, next_temp_ + 1);
    return kTemp | next_temp_++;
  }

  /// The array `name` reads and stores go to; null if undeclared or empty.
  const Program::Array* array(std::string_view name) const {
    for (const Program::Array& a : arrays_)
      if (a.name == name) return a.size == 0 ? nullptr : &a;
    return nullptr;
  }

  /// Appends a piece; returns its index in the fragment.
  int32_t put(Code code, int32_t d = 0, int32_t a = 0, int32_t b = 0,
              int32_t c = 0) {
    u_.code.push_back({code, d, a, b, c});
    return here() - 1;
  }

  int32_t here() const {
    return static_cast<int32_t>(u_.code.size() - f_.code.begin);
  }

  void fail(std::string message) {
    put(Code::Fail, 0, static_cast<int32_t>(f_.errors.size++));
    u_.errors.push_back(std::move(message));
  }

  /// The register that holds the value of `e`, after emitting its code.
  int32_t expr(const Expr& e) {
    switch (e.op()) {
      case Op::Var:
        return reg(e.name());
      case Op::Const:
        return constant(e.value());
      default: {
        const int32_t t = temp();
        into(e, t);
        return t;
      }
    }
  }

  /// Emits code that leaves the value of `e` in register `dst`. Only its
  /// last instruction on each path writes `dst`, so `dst` may also be an
  /// operand of `e`.
  void into(const Expr& e, int32_t dst) {
    switch (e.op()) {
      case Op::Var:
      case Op::Const:
        put(Code::Mov, dst, expr(e));
        return;
      case Op::ArrayRead: {
        const Program::Array* a = array(e.name());
        if (!a) return fail("read of unknown array '" + e.name() + "'");
        put(Code::Load, dst, expr(*e.arg(0)), a->offset, a->size);
        return;
      }
      case Op::Select: {
        const int32_t skip = put(Code::JumpIfZero, 0, expr(*e.arg(0)));
        into(*e.arg(1), dst);
        const int32_t over = put(Code::Jump);
        put(Code::Land, 0, skip);
        into(*e.arg(2), dst);
        put(Code::Land, 0, over);
        return;
      }
      default: {
        // Both operands always evaluate (hardware evaluates both cones).
        const int32_t a = expr(*e.arg(0));
        const int32_t b = e.num_args() > 1 ? expr(*e.arg(1)) : kUnused;
        put(operator_code(e.op()), dst, a, b);
        return;
      }
    }
  }

  /// The children of one list, compiled before this fragment.
  void list(const std::vector<ir::StmtPtr>& stmts) {
    for (const auto& c : stmts) {
      if (!c) continue;
      put(Code::Child, 0, next_kid_++);
      u_.sights.push_back(Unit::kChild);
      f_.sights.size++;
    }
  }

  void stmt(const Stmt& s) {
    put(Code::StepReq);
    next_temp_ = 0;
    switch (s.kind) {
      case StmtKind::Assign: {
        const int32_t target = reg(s.target);
        into(*s.value, target);
        break;
      }
      case StmtKind::Store: {
        const Program::Array* a = array(s.target);
        if (!a) {
          fail("store to unknown array '" + s.target + "'");
          break;
        }
        const int32_t index = expr(*s.index);
        const int32_t value = expr(*s.value);
        put(Code::Store, a->offset, index, value, a->size);
        break;
      }
      case StmtKind::If: {
        // The branch counter is numbered as the statement starts, before
        // any child's.
        f_.counted = true;
        const int32_t test = put(Code::If, 0, expr(*s.cond));
        list(s.then_stmts);
        if (s.else_stmts.empty()) {
          put(Code::Land, 0, test);
          break;
        }
        const int32_t over = put(Code::Jump);
        put(Code::Land, 0, test);
        list(s.else_stmts);
        put(Code::Land, 0, over);
        break;
      }
      case StmtKind::While: {
        // The test sits below the body: one jump in, then one counted
        // conditional jump back per iteration.
        f_.counted = true;
        const int32_t enter = put(Code::Jump);
        const int32_t top = here();
        put(Code::StepReq);  // the iteration's own step
        list(s.then_stmts);
        put(Code::Land, 0, enter);
        next_temp_ = 0;
        put(Code::Loop, 0, expr(*s.cond), top);
        break;
      }
      case StmtKind::Block:
        list(s.stmts);
        break;
    }
  }

  Unit& u_;
  const std::vector<Program::Array>& arrays_;
  const PointerMap<Unit::Ref>* reuse_;
  std::vector<Unit::Ref>& kids_;  // children compiled, per pending fragment
  Unit::Fragment f_;              // the open fragment
  int32_t next_kid_ = 0;
  int32_t next_temp_ = 0, max_temps_ = 0;
};

/// Links top-level statements [first, last) of a function's fragments into
/// a Program, in two passes. The first gives the registers, as a compile
/// of those statements in one walk would as it goes: the parameters', then
/// each top-level statement's scalars and constants in the order its
/// subtree first sees them, then the outputs'; the temporaries sit between
/// the scalars and the constants. The second replays each fragment's
/// pieces in program order with those registers: it numbers the branch
/// counters and errors and merges each statement's step into the open run,
/// which a mark between two top-level statements closes. With `tables` it
/// also keeps what recording and resuming read: the scalars' names and the
/// top-level statements' counters and arrays.
class Linker {
 public:
  Linker(const ir::Function& fn, std::vector<Program::Array> arrays,
         int32_t memory_size, const Unit& unit, size_t first, size_t last,
         bool tables)
      : p_(std::make_shared<Program>()),
        names_(unit.names),
        tables_(tables),
        scalar_ids_(compile_scratch().scalar_ids),
        regs_(compile_scratch().regs),
        consts_(compile_scratch().consts),
        temps_(compile_scratch().temps),
        at_(compile_scratch().at) {
    regs_.assign(unit.names.size(), -1);
    scalar_ids_.clear();
    consts_.assign(unit.consts.size(), -1);
    p_->fn_name = fn.name();
    p_->arrays = std::move(arrays);
    p_->memory_size = memory_size;
    p_->params.reserve(fn.params().size());
    for (const auto& n : fn.params())
      p_->params.emplace_back(n, reg(unit.names.find(n)));
    std::vector<int64_t>& consts = compile_scratch().values;
    consts.clear();
    int32_t temps = 0;
    const std::span<const Unit::Ref> body(unit.body.data() + first,
                                          last - first);
    // Halt, and a mark between each two statements.
    uint32_t instrs = static_cast<uint32_t>(std::max<size_t>(body.size(), 1));
    uint32_t counters = 0;
    for (const Unit::Ref& r : body) {
      see(r, unit, consts);
      const Unit::Fragment& f = *r;
      temps = std::max(temps, f.temps);
      instrs += f.instrs;
      counters += f.counters;
    }
    std::vector<std::pair<std::string_view, int32_t>>& outs =
        compile_scratch().outs;
    outs.clear();
    for (const auto& o : fn.outputs())
      outs.emplace_back(o, reg(unit.names.find(o)));
    if (tables_) {
      p_->scalar_names.reserve(scalar_ids_.size());
      for (const int32_t id : scalar_ids_)
        p_->scalar_names.push_back(names_[id]);
    }
    temps_.resize(static_cast<size_t>(temps));
    for (int32_t t = 0; t < temps; ++t)
      temps_[static_cast<size_t>(t)] = p_->num_scalars + t;
    const int32_t first_const = p_->num_scalars + temps;
    for (int32_t& c : consts_)
      if (c >= 0) c += first_const;
    p_->registers.reserve(static_cast<size_t>(first_const) + consts.size());
    p_->registers.assign(static_cast<size_t>(first_const), 0);
    p_->registers.insert(p_->registers.end(), consts.begin(), consts.end());
    registers_[0] = regs_.data();
    registers_[1] = temps_.data();
    registers_[2] = consts_.data();

    p_->code.resize(instrs);
    code_ = p_->code.data();
    p_->branch_ids.reserve(counters);
    p_->statements = body.size();
    std::vector<int32_t>& starts = compile_scratch().starts;
    starts.clear();
    for (size_t k = 0; k < body.size(); ++k) {
      if (k > 0) emit({Code::Mark, 0, static_cast<int32_t>(k)});
      if (tables_)
        p_->top_counters.push_back(
            static_cast<int32_t>(p_->branch_ids.size()));
      starts.push_back(here());
      link(body[k]);
    }
    starts.push_back(here());
    emit({Code::Halt});
    p_->code.resize(static_cast<size_t>(size_));
    if (tables_) {
      p_->top_counters.push_back(static_cast<int32_t>(p_->branch_ids.size()));
      find_stores(starts);
    }
    layout(outs);
  }

  std::shared_ptr<const Program> take() { return std::move(p_); }

 private:
  /// Gives the scalars and constants of fragment `ref`'s subtree their
  /// registers (constants their place in `consts`), in the order the
  /// subtree first sees them.
  void see(Unit::Ref ref, const Unit& unit, std::vector<int64_t>& consts) {
    const Unit::Fragment& f = *ref;
    uint32_t kid = f.kids.begin;
    for (uint32_t i = 0; i < f.sights.size; ++i) {
      const int32_t id = ref.unit->sights[f.sights.begin + i];
      if (id == Unit::kChild) {
        see(ref.unit->kids[kid++], unit, consts);
      } else if (!(id & kConst)) {
        reg(id);
      } else if (int32_t& c = consts_[static_cast<size_t>(id & kNumber)];
                 c < 0) {
        c = static_cast<int32_t>(consts.size());
        consts.push_back(unit.consts[id & kNumber]);
      }
    }
  }

  /// The register of the scalar numbered `id`, given as first seen.
  int32_t reg(int32_t id) {
    int32_t& r = regs_[static_cast<size_t>(id)];
    if (r < 0) {
      r = p_->num_scalars++;
      scalar_ids_.push_back(id);
    }
    return r;
  }

  /// Which arrays each top-level statement, its code at [starts[k],
  /// starts[k + 1]), stores to, and which the program loads or stores.
  void find_stores(const std::vector<int32_t>& starts) {
    const size_t arrays = p_->arrays.size();
    p_->top_stores.assign(p_->statements * arrays, 0);
    p_->touches.assign(arrays, 0);
    for (size_t k = 0; k < p_->statements; ++k)
      for (int32_t pc = starts[k]; pc < starts[k + 1]; ++pc) {
        const Instr& in = code_[pc];
        if (in.code != Code::Store && in.code != Code::Load) continue;
        const int32_t offset = in.code == Code::Store ? in.d : in.b;
        for (size_t a = 0; a < arrays; ++a) {  // the array is not empty
          if (p_->arrays[a].offset != offset || p_->arrays[a].size == 0)
            continue;
          p_->touches[a] = 1;
          if (in.code == Code::Store) p_->top_stores[k * arrays + a] = 1;
        }
      }
  }

  int32_t here() const { return size_; }

  void emit(const Instr& in) {
    code_[size_++] = in;
    if (in.code >= Code::If) open_step_ = -1;  // control flow ends the run
  }

  /// One statement's step: joins the open step instruction, if any.
  void step() {
    if (open_step_ >= 0) {
      code_[open_step_].a++;
    } else {
      open_step_ = here();
      emit({Code::Step, 0, 1});
    }
  }

  /// Makes the jump at `at` land here. Another path enters here, so the
  /// run of statements the current step instruction counts ends.
  void land(int32_t at) {
    code_[at].b = here();
    open_step_ = -1;
  }

  /// Replays fragment `ref`. Where its jumps and its loop top landed in
  /// the program is kept in `at_` from `top_` on, one slot per piece, for
  /// the pieces that refer to them; its children use the space past it.
  void link(Unit::Ref ref) {
    const Unit& u = *ref.unit;
    const Unit::Fragment& f = *ref;
    int32_t counter = 0;
    if (f.counted) {
      counter = static_cast<int32_t>(p_->branch_ids.size());
      p_->branch_ids.push_back(f.stmt->id);
    }
    const size_t at = top_;
    top_ += f.code.size;
    if (at_.size() < top_) at_.resize(2 * top_);
    const Instr* pieces = u.code.data() + f.code.begin;
    for (uint32_t i = 0; i < f.code.size; ++i) {
      Instr in = pieces[i];
      if (in.code < Code::If) {  // straight-line: only its registers change
        const uint8_t fields = register_fields(in.code);
        if (fields & 1) in.d = fix(in.d);
        if (fields & 2) in.a = fix(in.a);
        if (fields & 4) in.b = fix(in.b);
        code_[size_++] = in;
        continue;
      }
      at_[at + i] = here();
      switch (in.code) {
        case Code::StepReq:
          step();
          continue;
        case Code::Land:
          land(at_[at + static_cast<size_t>(in.a)]);
          continue;
        case Code::Child:
          link(u.kids[f.kids.begin + static_cast<uint32_t>(in.a)]);
          continue;
        case Code::Fail:
          p_->errors.push_back(
              u.errors[f.errors.begin + static_cast<uint32_t>(in.a)]);
          in.a = static_cast<int32_t>(p_->errors.size()) - 1;
          break;
        case Code::Loop:
          in.b = at_[at + static_cast<size_t>(in.b)];
          [[fallthrough]];
        case Code::If:
          in.d = counter;
          [[fallthrough]];
        default:  // JumpIfZero, Jump
          in.a = register_fields(in.code) & 2 ? fix(in.a) : in.a;
          break;
      }
      emit(in);
    }
    top_ = at;
  }

  /// The program's register for operand `r` of a fragment.
  int32_t fix(int32_t r) const {
    return registers_[static_cast<uint32_t>(r) >> 29][r & kNumber];
  }

  /// The observation layout: outputs, then arrays, each sorted by name.
  void layout(std::vector<std::pair<std::string_view, int32_t>>& outs) {
    std::sort(outs.begin(), outs.end());
    outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
    ObservationLayout& l = p_->layout;
    l.outputs.reserve(outs.size());
    p_->output_registers.reserve(outs.size());
    l.arrays.reserve(p_->arrays.size());
    for (const auto& [name, r] : outs) {
      l.outputs.emplace_back(name);
      p_->output_registers.push_back(r);
    }
    for (const auto& a : p_->arrays)
      l.arrays.emplace_back(a.name, static_cast<size_t>(a.size));
    l.size = outs.size() + static_cast<size_t>(p_->memory_size);
  }

  std::shared_ptr<Program> p_;
  const InternTable<std::string>& names_;
  bool tables_;
  std::vector<int32_t>& scalar_ids_;  // per scalar register: its name
  std::vector<int32_t>& regs_;    // per name: its register, -1 while unseen
  std::vector<int32_t>& consts_;  // per constant: its register, -1 if unused
  std::vector<int32_t>& temps_;   // per temporary: its register
  static constexpr int32_t kZero = 0;
  // Per operand kind (fix()): the registers of scalars, temporaries and
  // constants, and kUnused's register 0.
  const int32_t* registers_[4] = {nullptr, nullptr, nullptr, &kZero};
  std::vector<int32_t>& at_;  // per open fragment's piece, see link()
  size_t top_ = 0;
  Instr* code_ = nullptr;  // the program's, sized for every piece
  int32_t size_ = 0;       // instructions emitted
  int32_t open_step_ = -1;  // the step instruction of the current run
};

/// Executions of a trace that run in lockstep: one dispatch per
/// instruction serves them all. Four lanes cover TEST2's whole trace in
/// one group and the other Table 2 traces in whole groups.
constexpr size_t kLanes = 4;

constexpr int32_t kHalted = -1;

/// Where a run stopped: at Halt (`pc` is kHalted), at a mark, or at the
/// branch where the lanes disagree, before it counted; and the steps taken
/// so far.
struct Stop {
  int32_t pc;
  uint64_t steps;
};

/// Executes a compiled Program on `W` lanes at once, each lane one
/// execution: from a given instruction and step count to Halt, to the next
/// mark when `marks` is set (else it runs through them), or, when `W` > 1,
/// to the first If, Loop or JumpIfZero on which the lanes disagree. Registers are laid out [reg][lane]; each lane's memory is one
/// segment of `stride` cells (lane-major). A branch counter adds the lanes
/// it counts for, and the step count is shared: in lockstep every lane
/// has taken the same steps. `W` = 1 is the serial machine.
template <size_t W>
class Machine {
 public:
  Machine(const Program& p, uint64_t max_steps, int64_t* regs, int64_t* memory,
          size_t stride, BranchStats* branches, uint64_t lanes, bool marks)
      : p_(p),
        regs_(regs),
        memory_(memory),
        stride_(stride),
        branches_(branches),
        lanes_(lanes),
        max_steps_(max_steps),
        marks_(marks) {}

  /// Runs from instruction `pc` with `steps` steps taken. Dispatch is
  /// threaded: each handler jumps straight to the next instruction's
  /// handler through a table of label addresses (a GNU extension that GCC
  /// and Clang accept under -std=c++20), so each handler's indirect jump is
  /// predicted on its own. fact-bench measured it faster end to end than
  /// the same loop over one shared `switch` on every workload.
  Stop run(int32_t pc, uint64_t steps) {
    static const void* const kHandler[] = {
        &&Add, &&Sub, &&Mul, &&Lt, &&Le, &&Gt, &&Ge, &&Eq, &&Ne, &&BitNot,
        &&Shl, &&Shr, &&And, &&Or, &&Not, &&Mov, &&Load, &&Store,
        &&Step, &&If, &&Loop, &&JumpIfZero, &&Jump, &&Fail, &&Mark, &&Halt};
    static_assert(std::size(kHandler) == static_cast<size_t>(Code::Halt) + 1);
    const Instr* const code = p_.code.data();
    int64_t* const r = regs_;
    const uint64_t lanes = W == 1 ? 1 : lanes_;
    const Instr* in;
    // Where the lanes disagree, the group splits before the branch counts.
#define FACT_SPLIT_UNLESS_AGREED(cond)                                 \
  if (!agree(r + in->a * W))                                           \
    return {static_cast<int32_t>(in - code), steps};                   \
  const bool cond = r[in->a * W] != 0
#define FACT_JUMP(target) \
  goto* kHandler[static_cast<size_t>((in = code + (target))->code)]
#define FACT_NEXT goto* kHandler[static_cast<size_t>((++in)->code)]

    FACT_JUMP(pc);
  Add: apply<Op::Add>(r, *in); FACT_NEXT;
  Sub: apply<Op::Sub>(r, *in); FACT_NEXT;
  Mul: apply<Op::Mul>(r, *in); FACT_NEXT;
  Lt: apply<Op::Lt>(r, *in); FACT_NEXT;
  Le: apply<Op::Le>(r, *in); FACT_NEXT;
  Gt: apply<Op::Gt>(r, *in); FACT_NEXT;
  Ge: apply<Op::Ge>(r, *in); FACT_NEXT;
  Eq: apply<Op::Eq>(r, *in); FACT_NEXT;
  Ne: apply<Op::Ne>(r, *in); FACT_NEXT;
  BitNot: apply<Op::BitNot>(r, *in); FACT_NEXT;
  Shl: apply<Op::Shl>(r, *in); FACT_NEXT;
  Shr: apply<Op::Shr>(r, *in); FACT_NEXT;
  And: apply<Op::And>(r, *in); FACT_NEXT;
  Or: apply<Op::Or>(r, *in); FACT_NEXT;
  Not: apply<Op::Not>(r, *in); FACT_NEXT;
  Mov: {
    const int64_t* a = r + in->a * W;
    int64_t* d = r + in->d * W;
    for (size_t l = 0; l < W; ++l) d[l] = a[l];
    FACT_NEXT;
  }
  Load: {
    const int64_t* a = r + in->a * W;
    int64_t* d = r + in->d * W;
    for (size_t l = 0; l < W; ++l)
      d[l] = memory_[l * stride_ + in->b + at(a[l], in->c)];
    FACT_NEXT;
  }
  Store: {
    const int64_t* a = r + in->a * W;
    const int64_t* b = r + in->b * W;
    for (size_t l = 0; l < W; ++l)
      memory_[l * stride_ + in->d + at(a[l], in->c)] = b[l];
    FACT_NEXT;
  }
  Step:
    steps += static_cast<uint64_t>(in->a);
    if (steps > max_steps_)
      throw Error("interpreter exceeded step limit in '" + p_.fn_name + "'");
    FACT_NEXT;
  If: {
    FACT_SPLIT_UNLESS_AGREED(taken);
    BranchStats& b = branches_[in->d];
    b.total += lanes;
    if (!taken) FACT_JUMP(in->b);
    b.taken += lanes;
    FACT_NEXT;
  }
  Loop: {
    FACT_SPLIT_UNLESS_AGREED(taken);
    BranchStats& b = branches_[in->d];
    b.total += lanes;
    if (!taken) FACT_NEXT;
    b.taken += lanes;
    FACT_JUMP(in->b);
  }
  JumpIfZero: {
    FACT_SPLIT_UNLESS_AGREED(taken);
    if (!taken) FACT_JUMP(in->b);
    FACT_NEXT;
  }
  Jump:
    FACT_JUMP(in->b);
  Fail:
    throw Error(p_.errors[static_cast<size_t>(in->a)]);
  Mark:
    if (!marks_) FACT_NEXT;
    return {static_cast<int32_t>(in - code), steps};
  Halt:
    return {kHalted, steps};
#undef FACT_NEXT
#undef FACT_JUMP
#undef FACT_SPLIT_UNLESS_AGREED
  }

 private:
  /// d = op(a, b) in every lane (unary operators ignore b); d may be a or
  /// b, as each lane reads its operands before it writes. Always inlined:
  /// GCC otherwise may leave it a call that switches on `op` at run time
  /// in some instantiation, which halves the speed of every arithmetic
  /// instruction without a warning.
  template <Op op>
  [[gnu::always_inline]] static void apply(int64_t* r, const Instr& in) {
    const int64_t* a = r + in.a * W;
    const int64_t* b = r + in.b * W;
    int64_t* d = r + in.d * W;
    for (size_t l = 0; l < W; ++l) d[l] = ir::eval_op(op, a[l], b[l]);
  }

  /// Whether every lane tests `c` alike (all zero or all nonzero).
  [[gnu::always_inline]] static bool agree(const int64_t* c) {
    bool any = false, all = true;
    for (size_t l = 0; l < W; ++l) {
      any |= c[l] != 0;
      all &= c[l] != 0;
    }
    return any == all;
  }

  static size_t at(int64_t index, int32_t size) {
    return static_cast<size_t>(
        ir::wrap_index(index, static_cast<size_t>(size)));
  }

  const Program& p_;
  int64_t* regs_;
  int64_t* memory_;  // lane 0's
  size_t stride_;
  BranchStats* branches_;
  uint64_t lanes_;  // counted per branch: the lanes that are executions
  uint64_t max_steps_;
  bool marks_;  // stop at marks
};

/// What a trace pass reuses from one pass to the next on a thread. Storage
/// keeps its capacity, so a warm pass allocates none of it, and it is
/// bounded by kLanes x (registers + memory) of the largest behavior the
/// thread has run.
struct LaneScratch {
  std::vector<int64_t> lanes;         // the lane machine's, [reg][lane]
  std::vector<int64_t> serial;        // the serial machine's
  std::vector<int64_t> observations;  // one per lane: outputs, then memory
  std::vector<BranchStats> branches;  // per branch counter, over the pass
};

/// This thread's LaneScratch for one pass. A visitor may run another pass
/// on the same thread (equivalent_on_trace does), so each nesting depth
/// holds its own.
class ScratchLease {
 public:
  ScratchLease() {
    Pool& p = pool();
    if (p.depth == p.scratch.size())
      p.scratch.push_back(std::make_unique<LaneScratch>());
    s_ = p.scratch[p.depth++].get();
  }
  ~ScratchLease() { pool().depth--; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  LaneScratch* operator->() const { return s_; }

 private:
  struct Pool {
    std::vector<std::unique_ptr<LaneScratch>> scratch;
    size_t depth = 0;
  };
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }

  LaneScratch* s_;
};

/// The lane counters, registered together so that every export carries
/// both once a pass has run.
struct LaneCounters {
  obs::Counter& groups = obs::Registry::global().counter(
      "fact_sim_lane_groups_total",
      "Groups of executions a trace pass started in lockstep");
  obs::Counter& splits = obs::Registry::global().counter(
      "fact_sim_lane_splits_total",
      "Lockstep groups whose executions took different branches");
};
LaneCounters& lane_counters() {
  static LaneCounters c;
  return c;
}

}  // namespace

/// See interp.hpp. Boundary b lies before top-level statement b; the last
/// is after every statement.
struct Checkpoints {
  /// The values of names [first, first + count) of `names`, for every
  /// execution, execution-major.
  struct Scalars {
    uint32_t first = 0, count = 0;
    std::vector<int64_t> values;
  };
  /// Every execution's state at one boundary: its scalars, in disjoint
  /// blocks (a name in none reads 0), and per array of the program layout
  /// every execution's cells, execution-major. A block or an array that a
  /// statement did not change is shared with the state before it.
  struct State {
    std::vector<std::shared_ptr<const Scalars>> scalars;
    std::vector<std::shared_ptr<const std::vector<int64_t>>> arrays;

    /// Execution-major values of names [0, n), into `out` (n per
    /// execution).
    void flatten(size_t n, size_t executions, int64_t* out) const {
      std::fill_n(out, n * executions, 0);
      for (const auto& b : scalars)
        for (size_t e = 0; e < executions; ++e)
          for (uint32_t i = 0; i < b->count && b->first + i < n; ++i)
            out[e * n + b->first + i] = b->values[e * b->count + i];
    }
  };
  /// One top-level statement's share of the pass: each execution's steps
  /// in it, and its branch counters that counted, in counter order.
  struct Segment {
    std::vector<uint64_t> steps;
    std::vector<std::pair<int, BranchStats>> branches;
    uint64_t total = 0;  // the steps of every execution
  };

  ir::Function fn;                     // holds the statements' nodes
  std::vector<const Stmt*> stmts;      // fn's top-level statements
  const Stimulus* trace = nullptr;     // the stimuli, by address
  size_t executions = 0;
  std::shared_ptr<const InternTable<std::string>> names;  // the scalars
  std::vector<std::shared_ptr<const State>> states;      // stmts + 1
  std::vector<std::shared_ptr<const Segment>> segments;  // per statement
};

namespace {

using State = Checkpoints::State;
using Segment = Checkpoints::Segment;
using NameTable = InternTable<std::string>;

/// The non-null top-level statements of `fn`, in order: those a link
/// numbers.
std::vector<const Stmt*> top_level(const ir::Function& fn) {
  std::vector<const Stmt*> out;
  if (fn.body())
    for (const auto& s : fn.body()->stmts)
      if (s) out.push_back(s.get());
  return out;
}

/// Records the states of a pass of `p` at the top-level boundaries it
/// reaches, for every execution, and each statement's segment. `p` runs
/// top-level statements [first, first + p.statements) of its function, and
/// the states hold the scalars of `names`, each of p's among them. A pass
/// that resumes from `start`, the state at `first` with `start_steps` per
/// execution taken before it, leaves the names p does not hold and the
/// arrays p's statements do not store to as they are there; a pass from
/// reset (`start` null) also records the reset state, at boundary 0.
class Recorder {
 public:
  Recorder(const Program& p, const NameTable& names, const State* start,
           const uint64_t* start_steps, size_t executions)
      : p_(p),
        n_(names.size()),
        executions_(executions),
        first_(start ? 1 : 0),
        start_steps_(start_steps) {
    name_of_.reserve(p.scalar_names.size());
    for (const std::string& name : p.scalar_names) {
      name_of_.push_back(static_cast<uint32_t>(names.find(name)));
      assert(names.find(name) >= 0);
    }
    const size_t arrays = p.arrays.size();
    const size_t boundaries = p.statements + 1;
    scalars_.resize(boundaries);
    arrays_.resize(boundaries);
    fill_.resize(boundaries);
    steps_.resize(boundaries);
    std::vector<int64_t> initial(executions * n_, 0);
    if (start) start->flatten(n_, executions, initial.data());
    for (size_t j = first_; j < boundaries; ++j) {
      scalars_[j] = std::make_shared<Checkpoints::Scalars>(
          Checkpoints::Scalars{0, static_cast<uint32_t>(n_), initial});
      steps_[j].assign(executions, 0);
      arrays_[j].resize(arrays);
      fill_[j].assign(arrays, nullptr);
      for (size_t a = 0; a < arrays; ++a) {
        if (j == 0 || p.top_stores[(j - 1) * arrays + a]) {
          auto cells = std::make_shared<std::vector<int64_t>>(
              executions * static_cast<size_t>(p.arrays[a].size));
          fill_[j][a] = cells->data();
          arrays_[j][a] = std::move(cells);
        } else {
          arrays_[j][a] = j == first_ ? start->arrays[a] : arrays_[j - 1][a];
        }
      }
    }
  }

  /// Execution `e` at boundary `j` of the program (0 is its start), with
  /// `steps` taken in all: its scalars in lane `lane` of the `W`-lane
  /// registers `regs`, its memory at `mem`.
  void record(size_t j, size_t e, const int64_t* regs, size_t W, size_t lane,
              const int64_t* mem, uint64_t steps) {
    int64_t* v = scalars_[j]->values.data() + e * n_;
    for (size_t r = 0; r < name_of_.size(); ++r) v[name_of_[r]] = regs[r * W + lane];
    for (size_t a = 0; a < fill_[j].size(); ++a) {
      if (!fill_[j][a]) continue;
      const auto size = static_cast<size_t>(p_.arrays[a].size);
      std::copy_n(mem + p_.arrays[a].offset, size, fill_[j][a] + e * size);
    }
    steps_[j][e] = steps;
  }

  /// Appends the states it recorded and every statement's segment, with
  /// its branch counters' totals from `counters`.
  void finish(const std::vector<BranchStats>& counters,
              std::vector<std::shared_ptr<const State>>& states,
              std::vector<std::shared_ptr<const Segment>>& segments) const {
    for (size_t j = first_; j <= p_.statements; ++j) {
      State st;
      st.scalars.push_back(scalars_[j]);
      st.arrays = arrays_[j];
      states.push_back(std::make_shared<const State>(std::move(st)));
    }
    for (size_t k = 0; k < p_.statements; ++k) {
      Segment seg;
      seg.steps.resize(executions_);
      for (size_t e = 0; e < executions_; ++e) {
        seg.steps[e] = steps_[k + 1][e] -
                       (k >= first_ ? steps_[k][e] : start_steps_[e]);
        seg.total += seg.steps[e];
      }
      for (int32_t c = p_.top_counters[k]; c < p_.top_counters[k + 1]; ++c) {
        const BranchStats& b = counters[static_cast<size_t>(c)];
        if (b.total != 0)
          seg.branches.emplace_back(p_.branch_ids[static_cast<size_t>(c)], b);
      }
      segments.push_back(std::make_shared<const Segment>(std::move(seg)));
    }
  }

 private:
  const Program& p_;
  size_t n_, executions_, first_;
  const uint64_t* start_steps_;
  std::vector<uint32_t> name_of_;  // per scalar register: its name
  // Per boundary: the scalars, the arrays, the cells of the arrays it
  // fills (null for those it shares), and every execution's steps.
  std::vector<std::shared_ptr<Checkpoints::Scalars>> scalars_;
  std::vector<std::vector<std::shared_ptr<const std::vector<int64_t>>>>
      arrays_;
  std::vector<std::vector<int64_t*>> fill_;
  std::vector<std::vector<uint64_t>> steps_;
};

/// Where a resumed pass starts each execution and where it leaves it: per
/// execution its scalars (the program's, in register order), its slot of
/// `stride` values (room for the outputs, then the memory, as in an
/// observation; padding lanes use the slots past the last), and the steps
/// taken before the pass and in it.
struct Resume {
  const int64_t* start = nullptr;     // executions x scalars
  int64_t* end = nullptr;             // executions x scalars
  int64_t* slots = nullptr;           // (executions + kLanes - 1) x stride
  const uint64_t* offsets = nullptr;  // per execution
  uint64_t* steps = nullptr;          // per execution
  size_t executions = 0;
};

/// One interpreter pass over a trace. Runs the trace in order, in groups
/// of kLanes executions (a last group of two or three is padded with
/// copies of its last execution, which never disagree with it; a last
/// single execution runs serially). A group runs in lockstep until its
/// lanes disagree at a branch; then each lane, in execution order,
/// finishes alone on the serial machine from that branch, with its own
/// registers and memory and the shared step count. Each execution's
/// observation reaches `visit` in execution order, once the execution
/// has finished and only after every earlier one was visited, and a
/// lane's run after a split starts only once every earlier lane was
/// visited, so the first mismatch, the first abort and the statistics are
/// those of running the executions one by one. An abort in lockstep hits
/// every lane at once; the serial pass would have hit it in the group's
/// first execution, with the same message. At each mark (and at the start
/// and the end) a Recorder, if given, reads every lane's state.
///
/// A resumed pass (resume()) runs the same way from given states, with
/// each lane's steps offset by those it took before; a lane stops at the
/// limit less the group's largest offset, so it may stop early, but never
/// late. It visits nothing: it leaves each execution's state in place.
class Pass {
 public:
  using Visit = std::function<bool(size_t, std::span<const int64_t>)>;

  Pass(const Program& p, uint64_t max_steps, Recorder* rec = nullptr)
      : p_(p), max_steps_(max_steps), stride_(p.layout.size), rec_(rec) {
    s_->branches.assign(p.branch_ids.size(), {});
    s_->serial.assign(p.registers.begin(), p.registers.end());
  }
  ~Pass() {
    // One increment per counter and pass, also for a pass that aborted.
    LaneCounters& c = lane_counters();
    if (groups_) c.groups.inc(groups_);
    if (splits_) c.splits.inc(splits_);
  }
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// Runs `trace` from reset; false as soon as `visit` returns false.
  bool run(std::span<const Stimulus> trace, const Visit& visit) {
    s_->observations.resize((trace.size() >= 2 ? kLanes : 1) * stride_);
    slots_ = s_->observations.data();
    stimuli_ = trace.data();
    visit_ = &visit;
    return groups(trace.size());
  }

  /// Runs every execution of `r` from its state there; throws fact::Error
  /// where an execution aborts.
  void resume(const Resume& r) {
    resume_ = &r;
    slots_ = r.slots;
    groups(r.executions);
  }

  /// Adds the pass's counters into `stats` (branches the behavior never
  /// reached stay absent from the map).
  void flush(RunStats& stats) const {
    stats.steps += steps_;
    for (size_t i = 0; i < s_->branches.size(); ++i) {
      const BranchStats& b = s_->branches[i];
      if (b.total == 0) continue;
      auto& d = stats.branches[p_.branch_ids[i]];
      d.taken += b.taken;
      d.total += b.total;
    }
  }

  /// The pass's branch counters.
  const std::vector<BranchStats>& branches() const { return s_->branches; }

 private:
  bool groups(size_t executions) {
    size_t i = 0;
    if (executions >= 2) {
      // Every lane's constants; temporaries are written before they are
      // read, and scalars are set per group.
      const std::vector<int64_t>& init = p_.registers;
      s_->lanes.resize(init.size() * kLanes);
      for (size_t reg = 0; reg < init.size(); ++reg)
        std::fill_n(s_->lanes.begin() + reg * kLanes, kLanes, init[reg]);
      while (executions - i >= 2) {
        const size_t n = std::min(kLanes, executions - i);
        if (!group<kLanes>(i, n)) return false;
        i += n;
      }
    }
    return i >= executions || group<1>(i, 1);
  }

  /// Runs executions first, first + 1, ..., first + n - 1 on W lanes.
  template <size_t W>
  bool group(size_t first, size_t n) {
    int64_t* regs = W == 1 ? s_->serial.data() : s_->lanes.data();
    uint64_t offset = 0;  // the most steps a lane took before
    for (size_t l = 0; l < W; ++l) {
      const size_t e = first + std::min(l, n - 1);
      if (resume_) {
        load<W>(e, regs, first, l);
        offset = std::max(offset, resume_->offsets[e]);
      } else {
        reset<W>(stimuli_[e], regs, l);
      }
    }
    if (rec_ && !resume_)
      for (size_t l = 0; l < n; ++l)
        rec_->record(0, first + l, regs, W, l, memory(first, l), 0);
    if constexpr (W > 1) groups_++;
    Machine<W> lockstep(p_, max_steps_ - offset, regs, memory(first, 0),
                        stride_, s_->branches.data(), n, rec_ != nullptr);
    Stop stop = lockstep.run(0, 0);
    while (marked(stop)) {
      for (size_t l = 0; l < n; ++l) mark(stop, first, l, regs, W, l);
      stop = lockstep.run(stop.pc + 1, stop.steps);
    }
    if (stop.pc == kHalted) {
      for (size_t l = 0; l < n; ++l)
        if (!finish(first, l, regs, W, l, stop.steps)) return false;
      return true;
    }
    if constexpr (W > 1) {
      splits_++;
      int64_t* serial = s_->serial.data();
      for (size_t l = 0; l < n; ++l) {
        for (size_t reg = 0; reg < s_->serial.size(); ++reg)
          serial[reg] = regs[reg * W + l];
        Machine<1> alone(p_, max_steps_ - offset_of(first + l), serial,
                         memory(first, l), stride_, s_->branches.data(), 1,
                         rec_ != nullptr);
        Stop at = alone.run(stop.pc, stop.steps);
        while (marked(at)) {
          mark(at, first, l, serial, 1, 0);
          at = alone.run(at.pc + 1, at.steps);
        }
        if (!finish(first, l, serial, 1, 0, at.steps)) return false;
      }
    }
    return true;
  }

  bool marked(const Stop& stop) const {
    return stop.pc != kHalted &&
           p_.code[static_cast<size_t>(stop.pc)].code == Code::Mark;
  }

  uint64_t offset_of(size_t e) const {
    return resume_ ? resume_->offsets[e] : 0;
  }

  /// Lane `l` of the group at `first` stopped at a mark; its registers are
  /// lane `lane` of `W`-lane `regs`.
  void mark(const Stop& stop, size_t first, size_t l, const int64_t* regs,
            size_t W, size_t lane) {
    if (rec_)
      rec_->record(
          static_cast<size_t>(p_.code[static_cast<size_t>(stop.pc)].a),
          first + l, regs, W, lane, memory(first, l),
          offset_of(first + l) + stop.steps);
  }

  /// Lane `l` of the group at `first` halted after `steps` steps: visits
  /// its observation, or keeps its state when resumed.
  bool finish(size_t first, size_t l, const int64_t* regs, size_t W,
              size_t lane, uint64_t steps) {
    const size_t e = first + l;
    steps_ += steps;
    if (rec_ && p_.statements > 0)
      rec_->record(p_.statements, e, regs, W, lane, memory(first, l),
                   offset_of(e) + steps);
    const auto scalars = static_cast<size_t>(p_.num_scalars);
    if (resume_) {
      resume_->steps[e] = steps;
      int64_t* end = resume_->end + e * scalars;
      for (size_t reg = 0; reg < scalars; ++reg) end[reg] = regs[reg * W + lane];
      return true;
    }
    // Copies the outputs in front of the memory, so that one buffer is
    // the execution's observation.
    int64_t* out = slots_ + l * stride_;
    for (int32_t reg : p_.output_registers)
      *out++ = regs[static_cast<size_t>(reg) * W + lane];
    return (*visit_)(e, {slots_ + l * stride_, stride_});
  }

  /// Lane `lane` of `regs` and its memory at reset for `in`: every scalar
  /// zero (a scalar never written reads 0) but the parameters, every
  /// memory cell zero but the input arrays' given cells.
  template <size_t W>
  void reset(const Stimulus& in, int64_t* regs, size_t lane) {
    for (size_t reg = 0; reg < static_cast<size_t>(p_.num_scalars); ++reg)
      regs[reg * W + lane] = 0;
    for (const auto& [name, reg] : p_.params) {
      auto it = in.params.find(name);
      if (it != in.params.end())
        regs[static_cast<size_t>(reg) * W + lane] = it->second;
    }
    for (const auto& a : p_.arrays) {
      int64_t* mem = memory(0, lane) + a.offset;
      size_t given = 0;
      if (a.is_input) {
        auto it = in.arrays.find(a.name);
        if (it != in.arrays.end()) {
          given = std::min(static_cast<size_t>(a.size), it->second.size());
          std::copy_n(it->second.begin(), given, mem);
        }
      }
      std::fill(mem + given, mem + a.size, 0);
    }
  }

  /// Lane `lane` of `regs` and its memory as execution `e` starts the
  /// resumed pass. A padding lane copies the memory of `e`, its group's
  /// last execution.
  template <size_t W>
  void load(size_t e, int64_t* regs, size_t first, size_t lane) {
    const auto scalars = static_cast<size_t>(p_.num_scalars);
    const int64_t* from = resume_->start + e * scalars;
    for (size_t reg = 0; reg < scalars; ++reg) regs[reg * W + lane] = from[reg];
    if (first + lane != e)
      std::copy_n(memory(first, e - first), p_.memory_size,
                  memory(first, lane));
  }

  /// Lane `l`'s memory in the group at `first`: a resumed pass keeps every
  /// execution's, a pass from reset one per lane.
  int64_t* memory(size_t first, size_t l) const {
    return slots_ + ((resume_ ? first : 0) + l) * stride_ +
           p_.output_registers.size();
  }

  const Program& p_;
  uint64_t max_steps_;
  size_t stride_;  // values per observation
  Recorder* rec_;
  ScratchLease s_;
  int64_t* slots_ = nullptr;
  const Stimulus* stimuli_ = nullptr;
  const Visit* visit_ = nullptr;
  const Resume* resume_ = nullptr;
  uint64_t steps_ = 0;
  uint64_t groups_ = 0, splits_ = 0;  // lockstep groups; the ones that split
};

}  // namespace

Observation ObservationLayout::observation(
    std::span<const int64_t> values) const {
  Observation obs;
  size_t k = 0;
  for (const auto& name : outputs) obs.outputs.emplace(name, values[k++]);
  for (const auto& [name, n] : arrays) {
    obs.arrays.emplace(name, std::vector<int64_t>(values.begin() + k,
                                                  values.begin() + k + n));
    k += n;
  }
  return obs;
}

double RunStats::branch_prob(int stmt_id, double fallback) const {
  auto it = branches.find(stmt_id);
  if (it == branches.end() || it->second.total == 0) return fallback;
  return it->second.probability();
}

double RunStats::expected_iterations(int stmt_id, double fallback) const {
  auto it = branches.find(stmt_id);
  if (it == branches.end() || it->second.total == 0) return fallback;
  const double p = it->second.probability();
  if (p >= 1.0) return 1e9;  // never-exiting loop observed; effectively inf
  return p / (1.0 - p);
}

namespace {

/// Compiles the fragments of `fn` into the thread's scratch unit, reusing
/// `store`'s where it allows, and returns the unit. It holds them until
/// the thread's next compile.
const Unit& compile_fragments(const ir::Function& fn,
                              const StatementCode* store,
                              const std::vector<Program::Array>& arrays) {
  const PointerMap<Unit::Ref>* reuse =
      store ? store->reusable_for(fn) : nullptr;
  Unit& unit = compile_scratch().unit;
  unit.records.clear();
  unit.code.clear();
  unit.sights.clear();
  unit.errors.clear();
  unit.kids.clear();
  unit.names.reset(reuse ? &store->unit().names : nullptr);
  unit.consts.reset(reuse ? &store->unit().consts : nullptr);
  unit.compile(fn, arrays, reuse);
  return unit;
}

}  // namespace

void FragmentUnit::compile(const ir::Function& fn,
                           const std::vector<Program::Array>& arrays,
                           const PointerMap<Ref>* reuse) {
  // The parameters and outputs are numbered first (in a table that extends
  // a store's, the store's numbers hold them: same declarations).
  for (const auto& n : fn.params()) names.intern(n);
  for (const auto& n : fn.outputs()) names.intern(n);
  body.clear();
  if (!fn.body()) return;
  FragmentCompiler compiler(*this, arrays, reuse);
  for (const auto& s : fn.body()->stmts)
    if (s) body.push_back(compiler.get(*s));
}

void FragmentUnit::pass(const ir::Function& fn, const PointerMap<Ref>* reuse) {
  int32_t memory_size = 0;
  compile(fn, lay_out_arrays(fn, memory_size), reuse);
}

Interpreter::Interpreter(const ir::Function& fn, const StatementCode* store)
    : Interpreter(fn, store, false) {}

Interpreter Interpreter::recording(const ir::Function& fn,
                                   const StatementCode* store) {
  return Interpreter(fn, store, true);
}

Interpreter::Interpreter(const ir::Function& fn, const StatementCode* store,
                         bool tables) {
  int32_t memory_size = 0;
  std::vector<Program::Array> arrays = lay_out_arrays(fn, memory_size);
  const Unit& unit = compile_fragments(fn, store, arrays);
  compiled_ = unit.records.size();
  prog_ = Linker(fn, std::move(arrays), memory_size, unit, 0,
                 unit.body.size(), tables)
              .take();
}

const ObservationLayout& Interpreter::layout() const { return prog_->layout; }


std::string Interpreter::listing() const {
  const Program& p = *prog_;
  std::string out = p.fn_name;
  const auto num = [&](int64_t v) {
    char buf[24];
    out += ' ';
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  for (const Instr& in : p.code) {
    out += "\n";
    for (const int64_t v : {static_cast<int64_t>(in.code), int64_t{in.d},
                            int64_t{in.a}, int64_t{in.b}, int64_t{in.c}})
      num(v);
  }
  out += "\nregisters";
  num(p.num_scalars);
  out += ':';
  for (const int64_t v : p.registers) num(v);
  out += "\nparams:";
  for (const auto& [name, r] : p.params) {
    out += ' ' + name;
    num(r);
  }
  out += "\narrays";
  num(p.memory_size);
  out += ':';
  for (const Program::Array& a : p.arrays) {
    out += ' ' + a.name;
    num(a.offset);
    num(a.size);
    num(a.is_input);
  }
  out += "\noutputs:";
  for (size_t i = 0; i < p.layout.outputs.size(); ++i) {
    out += ' ' + p.layout.outputs[i];
    num(p.output_registers[i]);
  }
  out += "\nlayout";
  num(static_cast<int64_t>(p.layout.size));
  out += "\nbranches:";
  for (const int id : p.branch_ids) num(id);
  out += "\nerrors:";
  for (const std::string& e : p.errors) out += "\n  " + e;
  return out + "\n";
}

Observation Interpreter::run(const Stimulus& in, RunStats* stats) const {
  Observation obs;
  run_trace(std::span(&in, 1), stats,
            [&](size_t, std::span<const int64_t> values) {
              obs = prog_->layout.observation(values);
              return true;
            });
  return obs;
}

namespace {

using Visit = std::function<bool(size_t, std::span<const int64_t>)>;

/// One pass of `p` over `trace` from reset (Interpreter::run_trace). When
/// `record` is non-null and the pass runs the whole trace, it records the
/// checkpoints of `fn`, whose whole program `p` is, linked with its
/// tables; but none of a function with one top-level statement, as no
/// variant can resume from them (a variant sharing that statement is `fn`
/// itself).
bool run_pass(const Program& p, uint64_t max_steps,
              std::span<const Stimulus> trace, RunStats* stats,
              const Visit& visit, const ir::Function* fn,
              CheckpointsPtr* record) {
  if (p.statements < 2 || p.top_counters.empty()) record = nullptr;
  std::shared_ptr<NameTable> names;
  std::optional<Recorder> rec;
  if (record) {
    names = std::make_shared<NameTable>();
    for (const std::string& name : p.scalar_names) names->intern(name);
    rec.emplace(p, *names, nullptr, nullptr, trace.size());
  }
  Pass pass(p, max_steps, rec ? &*rec : nullptr);
  if (!pass.run(trace, visit)) return false;
  if (stats) pass.flush(*stats);
  if (record) {
    auto cp = std::make_shared<Checkpoints>();
    cp->fn = *fn;
    cp->stmts = top_level(*fn);
    cp->trace = trace.data();
    cp->executions = trace.size();
    cp->names = std::move(names);
    rec->finish(pass.branches(), cp->states, cp->segments);
    *record = std::move(cp);
  }
  return true;
}

/// The fewest of the parent's steps per execution, on average, that a
/// resumed pass must be able to skip: below that, setting up the resumed
/// runs and recording their states costs more than the steps it skips.
constexpr uint64_t kResumeMinSteps = 64;

/// What resume_trace reuses from one call to the next on a thread.
struct ResumeScratch {
  std::vector<int64_t> start, end, slots, mine, theirs;
  std::vector<uint64_t> offsets, rest_offsets, steps;
};

/// This thread's ResumeScratch.
ResumeScratch& resume_scratch() {
  thread_local ResumeScratch s;
  return s;
}

/// The runs of resume_trace: top-level statements [p, mine_end) of `fn`
/// (the variant's own) from the parent's state at its boundary p, with
/// only the arrays they touch loaded, and, where the state after them does
/// not rejoin the parent's at boundary their_end, every array and the last
/// s statements from the variant's own states. run() throws fact::Error
/// where an execution aborts, and returns false where a total could cross
/// the step limit.
class Resumption {
 public:
  Resumption(const ir::Function& fn, const Checkpoints& parent,
             const Unit& unit, const std::vector<Program::Array>& arrays,
             int32_t memory_size, size_t p, size_t s, uint64_t max_steps,
             ResumeScratch& rs)
      : fn_(fn),
        parent_(parent),
        unit_(unit),
        arrays_(arrays),
        memory_size_(memory_size),
        p_(p),
        s_(s),
        mine_end_(unit.body.size() - s),
        their_end_(parent.stmts.size() - s),
        executions_(parent.executions),
        max_steps_(max_steps),
        rs_(rs) {}

  bool run() {
    const size_t E = executions_;
    rs_.offsets.assign(E, 0);
    for (size_t k = 0; k < p_; ++k)
      for (size_t e = 0; e < E; ++e)
        rs_.offsets[e] += parent_.segments[k]->steps[e];
    if (!within_limit(rs_.offsets)) return false;
    const std::shared_ptr<const Program> own = link(p_, mine_end_);
    // The variant's names: the parent's, then those its own statements
    // introduce.
    std::shared_ptr<NameTable> grown;
    for (const std::string& name : own->scalar_names)
      if (parent_.names->find(name) < 0) {
        if (!grown) grown = std::make_shared<NameTable>(*parent_.names);
        grown->intern(name);
      }
    names_ = grown ? std::shared_ptr<const NameTable>(grown) : parent_.names;

    const State& from = *parent_.states[p_];
    rs_.slots.resize((E + kLanes - 1) * own->layout.size);
    loaded_.assign(own->arrays.size(), 0);
    load(*own, from, own->touches);
    run_from(own, from, rs_.offsets);

    const State& mine = states_.empty() ? from : *states_.back();
    rejoined_ = same(mine, *parent_.states[their_end_]);
    rs_.rest_offsets.resize(E);
    for (size_t e = 0; e < E; ++e) {
      rs_.rest_offsets[e] = rs_.offsets[e] + rs_.steps[e];
      if (rejoined_)
        for (size_t k = their_end_; k < parent_.stmts.size(); ++k)
          rs_.rest_offsets[e] += parent_.segments[k]->steps[e];
    }
    if (!within_limit(rs_.rest_offsets)) return false;
    if (rejoined_) return true;
    // The arrays the own statements did not touch are as they were.
    load(*own, from, std::vector<uint8_t>(own->arrays.size(), 1));
    if (s_ > 0)
      run_from(link(mine_end_, unit_.body.size()), mine, rs_.rest_offsets);
    return true;
  }

  /// Visits each execution, unless every state rejoined the parent's.
  bool visit(const Visit& visit) const {
    if (rejoined_) return true;
    const auto scalars = static_cast<size_t>(last_->num_scalars);
    const size_t stride = last_->layout.size;
    for (size_t e = 0; e < executions_; ++e) {
      int64_t* slot = rs_.slots.data() + e * stride;
      for (size_t i = 0; i < last_->output_registers.size(); ++i)
        slot[i] = rs_.end[e * scalars +
                          static_cast<size_t>(last_->output_registers[i])];
      if (!visit(e, {slot, stride})) return false;
    }
    return true;
  }

  /// The variant's segments: the parent's outside the statements that ran.
  std::vector<std::shared_ptr<const Segment>> segments() const {
    std::vector<std::shared_ptr<const Segment>> out(
        parent_.segments.begin(),
        parent_.segments.begin() + static_cast<ptrdiff_t>(p_));
    out.insert(out.end(), segments_.begin(), segments_.end());
    if (rejoined_)
      out.insert(out.end(),
                 parent_.segments.begin() + static_cast<ptrdiff_t>(their_end_),
                 parent_.segments.end());
    return out;
  }

  /// The variant's states: the parent's outside the statements that ran;
  /// where the states rejoined, with the values of the names the
  /// variant's own statements introduced.
  std::vector<std::shared_ptr<const State>> states() const {
    std::vector<std::shared_ptr<const State>> out(
        parent_.states.begin(),
        parent_.states.begin() + static_cast<ptrdiff_t>(p_ + 1));
    out.insert(out.end(), states_.begin(), states_.end());
    if (!rejoined_) return out;
    out.resize(mine_end_);
    std::shared_ptr<Checkpoints::Scalars> added;
    const size_t known = parent_.names->size(), all = names_->size();
    if (all > known) {
      const size_t E = executions_;
      rs_.mine.resize(all * E);
      states_.back()->flatten(all, E, rs_.mine.data());
      added = std::make_shared<Checkpoints::Scalars>();
      added->first = static_cast<uint32_t>(known);
      added->count = static_cast<uint32_t>(all - known);
      for (size_t e = 0; e < E; ++e)
        added->values.insert(
            added->values.end(),
            rs_.mine.begin() + static_cast<ptrdiff_t>(e * all + known),
            rs_.mine.begin() + static_cast<ptrdiff_t>((e + 1) * all));
    }
    for (size_t b = their_end_; b < parent_.states.size(); ++b) {
      if (!added) {
        out.push_back(parent_.states[b]);
        continue;
      }
      State st = *parent_.states[b];
      st.scalars.push_back(added);
      out.push_back(std::make_shared<const State>(std::move(st)));
    }
    return out;
  }

  const std::shared_ptr<const NameTable>& names() const { return names_; }
  bool rejoined() const { return rejoined_; }

  /// The parent's steps the runs took from its segments instead.
  uint64_t skipped() const {
    uint64_t n = 0;
    for (size_t k = 0; k < parent_.stmts.size(); ++k)
      if (k < p_ || (rejoined_ && k >= their_end_))
        n += parent_.segments[k]->total;
    return n;
  }

 private:
  std::shared_ptr<const Program> link(size_t first, size_t last) const {
    return Linker(fn_, arrays_, memory_size_, unit_, first, last, true)
        .take();
  }

  /// Copies each array `want` names and not copied yet from state `from`
  /// into every execution's slot, laid out as `prog`'s memory.
  void load(const Program& prog, const State& from,
            const std::vector<uint8_t>& want) {
    const size_t stride = prog.layout.size;
    const size_t outs = prog.output_registers.size();
    for (size_t a = 0; a < prog.arrays.size(); ++a) {
      if (!want[a] || loaded_[a]) continue;
      loaded_[a] = 1;
      const auto size = static_cast<size_t>(prog.arrays[a].size);
      const int64_t* cells = from.arrays[a]->data();
      for (size_t e = 0; e < executions_; ++e)
        std::copy_n(cells + e * size, size,
                    rs_.slots.data() + e * stride + outs +
                        static_cast<size_t>(prog.arrays[a].offset));
    }
  }

  bool within_limit(const std::vector<uint64_t>& steps) const {
    return std::all_of(steps.begin(), steps.end(),
                       [&](uint64_t n) { return n <= max_steps_; });
  }

  /// Runs `prog` over every execution from state `from`, whose memory is
  /// in the slots already, with `offsets` steps taken before; records its
  /// states and segments.
  void run_from(std::shared_ptr<const Program> program, const State& from,
                const std::vector<uint64_t>& offsets) {
    const Program& prog = *program;
    const size_t E = executions_;
    const auto scalars = static_cast<size_t>(prog.num_scalars);
    rs_.start.resize(E * scalars);
    for (size_t r = 0; r < scalars; ++r) {
      const int32_t name = names_->find(prog.scalar_names[r]);
      const Checkpoints::Scalars* block = nullptr;
      for (const auto& b : from.scalars)
        if (static_cast<uint32_t>(name) - b->first < b->count) block = b.get();
      for (size_t e = 0; e < E; ++e)
        rs_.start[e * scalars + r] =
            block ? block->values[e * block->count +
                                  (static_cast<uint32_t>(name) - block->first)]
                  : 0;
    }
    rs_.end.resize(E * scalars);
    rs_.steps.assign(E, 0);
    Recorder rec(prog, *names_, &from, offsets.data(), E);
    Pass pass(prog, max_steps_, &rec);
    pass.resume({rs_.start.data(), rs_.end.data(), rs_.slots.data(),
                 offsets.data(), rs_.steps.data(), E});
    rec.finish(pass.branches(), states_, segments_);
    last_ = std::move(program);
  }

  /// Whether every execution has the same scalars (every name the
  /// parent's states hold) and memory in `a` as in `b`.
  bool same(const State& a, const State& b) const {
    const size_t n = parent_.names->size(), E = executions_;
    rs_.mine.resize(n * E);
    rs_.theirs.resize(n * E);
    a.flatten(n, E, rs_.mine.data());
    b.flatten(n, E, rs_.theirs.data());
    if (rs_.mine != rs_.theirs) return false;
    for (size_t i = 0; i < a.arrays.size(); ++i)
      if (a.arrays[i] != b.arrays[i] && *a.arrays[i] != *b.arrays[i])
        return false;
    return true;
  }

  const ir::Function& fn_;
  const Checkpoints& parent_;
  const Unit& unit_;
  const std::vector<Program::Array>& arrays_;
  int32_t memory_size_;
  size_t p_, s_, mine_end_, their_end_, executions_;
  uint64_t max_steps_;
  ResumeScratch& rs_;
  std::shared_ptr<const NameTable> names_;
  // What the runs recorded, in boundary and statement order.
  std::vector<std::shared_ptr<const State>> states_;
  std::vector<std::shared_ptr<const Segment>> segments_;
  std::shared_ptr<const Program> last_;  // the program that ran last
  std::vector<uint8_t> loaded_;  // per array: in the slots
  bool rejoined_ = false;
};

}  // namespace

bool Interpreter::run_trace(
    std::span<const Stimulus> trace, RunStats* stats,
    const std::function<bool(size_t, std::span<const int64_t>)>& visit)
    const {
  return run_pass(*prog_, max_steps_, trace, stats, visit, nullptr, nullptr);
}

bool Interpreter::run_trace(
    std::span<const Stimulus> trace, RunStats* stats,
    const std::function<bool(size_t, std::span<const int64_t>)>& visit,
    const ir::Function& fn, CheckpointsPtr* record) const {
  return run_pass(*prog_, max_steps_, trace, stats, visit, &fn, record);
}

std::optional<bool> resume_trace(
    const ir::Function& fn, const StatementCode* store,
    const Checkpoints& parent, std::span<const Stimulus> trace,
    RunStats* stats,
    const std::function<bool(size_t, std::span<const int64_t>)>& visit,
    CheckpointsPtr* record, ResumeStats* how, uint64_t max_steps) {
  if (trace.empty() || parent.trace != trace.data() ||
      parent.executions != trace.size())
    return std::nullopt;
  std::vector<const Stmt*> mine = top_level(fn);
  const std::vector<const Stmt*>& theirs = parent.stmts;
  const size_t common = std::min(mine.size(), theirs.size());
  size_t p = 0, s = 0;
  while (p < common && mine[p] == theirs[p]) ++p;
  while (p + s < common &&
         mine[mine.size() - 1 - s] == theirs[theirs.size() - 1 - s])
    ++s;
  uint64_t skippable = 0;
  for (size_t k = 0; k < theirs.size(); ++k)
    if (k < p || k >= theirs.size() - s) skippable += parent.segments[k]->total;
  if (skippable < kResumeMinSteps * trace.size() ||
      !parent.fn.same_declarations(fn))
    return std::nullopt;

  int32_t memory_size = 0;
  const std::vector<Program::Array> arrays = lay_out_arrays(fn, memory_size);
  const Unit& unit = compile_fragments(fn, store, arrays);
  Resumption r(fn, parent, unit, arrays, memory_size, p, s, max_steps,
               resume_scratch());
  bool resumed = false;
  try {
    resumed = r.run();
  } catch (const Error&) {
    // The pass from reset decides which execution aborts, and how.
  }
  if (!resumed) {
    const auto whole =
        Linker(fn, arrays, memory_size, unit, 0, mine.size(), false).take();
    return run_pass(*whole, max_steps, trace, stats, visit, nullptr, nullptr);
  }
  if (how) {
    how->steps_skipped = r.skipped();
    how->resumed = true;
    how->diverged = !r.rejoined();
  }
  if (!r.visit(visit)) return false;
  std::vector<std::shared_ptr<const Segment>> segments = r.segments();
  if (stats)
    for (const auto& seg : segments) {
      stats->steps += seg->total;
      for (const auto& [id, b] : seg->branches) {
        BranchStats& d = stats->branches[id];
        d.taken += b.taken;
        d.total += b.total;
      }
    }
  if (record) {
    auto cp = std::make_shared<Checkpoints>();
    cp->fn = fn;
    cp->stmts = std::move(mine);
    cp->trace = trace.data();
    cp->executions = trace.size();
    cp->names = r.names();
    cp->states = r.states();
    cp->segments = std::move(segments);
    *record = std::move(cp);
  }
  return true;
}

}  // namespace fact::sim

template class fact::ir::StatementIndex<fact::sim::FragmentUnit>;
