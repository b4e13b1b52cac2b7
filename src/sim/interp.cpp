#include "sim/interp.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <memory>
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
  std::vector<int32_t> regs, consts, temps, at;
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

/// Links a function's fragments into its Program, in two passes. The
/// first gives the registers, as a compile of the whole function in one
/// walk would as it goes: the parameters', then each top-level
/// statement's scalars and constants in the order its subtree first sees
/// them, then the outputs'; the temporaries sit between the scalars and
/// the constants. The second replays each fragment's pieces in program
/// order with those registers: it numbers the branch counters and errors
/// and merges each statement's step into the open run.
class Linker {
 public:
  Linker(const ir::Function& fn, std::vector<Program::Array> arrays,
         int32_t memory_size, const Unit& unit)
      : p_(std::make_shared<Program>()),
        regs_(compile_scratch().regs),
        consts_(compile_scratch().consts),
        temps_(compile_scratch().temps),
        at_(compile_scratch().at) {
    regs_.assign(unit.names.size(), -1);
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
    uint32_t instrs = 1;  // Halt
    uint32_t counters = 0;
    for (const Unit::Ref& r : unit.body) {
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
    for (const Unit::Ref& r : unit.body) link(r);
    emit({Code::Halt});
    p_->code.resize(static_cast<size_t>(size_));
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
    if (r < 0) r = p_->num_scalars++;
    return r;
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

/// Where a run stopped: at Halt (`pc` is kHalted) or at the branch where
/// the lanes disagree, before it counted; and the steps taken so far.
struct Stop {
  int32_t pc;
  uint64_t steps;
};

/// Executes a compiled Program on `W` lanes at once, each lane one
/// execution: from a given instruction and step count to Halt, or, when
/// `W` > 1, to the first If, Loop or JumpIfZero on which the lanes
/// disagree. Registers are laid out [reg][lane]; each lane's memory is one
/// segment of `stride` cells (lane-major). A branch counter adds the lanes
/// it counts for, and the step count is shared: in lockstep every lane
/// has taken the same steps. `W` = 1 is the serial machine.
template <size_t W>
class Machine {
 public:
  Machine(const Program& p, uint64_t max_steps, int64_t* regs, int64_t* memory,
          size_t stride, BranchStats* branches, uint64_t lanes)
      : p_(p),
        regs_(regs),
        memory_(memory),
        stride_(stride),
        branches_(branches),
        lanes_(lanes),
        max_steps_(max_steps) {}

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
        &&Step, &&If, &&Loop, &&JumpIfZero, &&Jump, &&Fail, &&Halt};
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
/// first execution, with the same message.
class Pass {
 public:
  using Visit = std::function<bool(size_t, std::span<const int64_t>)>;

  Pass(const Program& p, uint64_t max_steps)
      : p_(p), max_steps_(max_steps), stride_(p.layout.size) {
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

  /// Runs `trace`; false as soon as `visit` returns false.
  bool run(std::span<const Stimulus> trace, const Visit& visit) {
    s_->observations.resize((trace.size() >= 2 ? kLanes : 1) * stride_);
    size_t i = 0;
    if (trace.size() >= 2) {
      // Every lane's constants; temporaries are written before they are
      // read, and scalars are reset per group.
      const std::vector<int64_t>& init = p_.registers;
      s_->lanes.resize(init.size() * kLanes);
      for (size_t reg = 0; reg < init.size(); ++reg)
        std::fill_n(s_->lanes.begin() + reg * kLanes, kLanes, init[reg]);
      while (trace.size() - i >= 2) {
        const size_t n = std::min(kLanes, trace.size() - i);
        if (!group<kLanes>(trace.subspan(i, n), i, visit)) return false;
        i += n;
      }
    }
    return i >= trace.size() || group<1>(trace.subspan(i), i, visit);
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

 private:
  /// Runs `group` (executions first, first + 1, ...) from reset on W lanes.
  template <size_t W>
  bool group(std::span<const Stimulus> group, size_t first,
             const Visit& visit) {
    int64_t* regs = W == 1 ? s_->serial.data() : s_->lanes.data();
    for (size_t l = 0; l < W; ++l)
      reset<W>(group[std::min(l, group.size() - 1)], regs, l);
    if constexpr (W > 1) groups_++;
    const Stop stop =
        Machine<W>(p_, max_steps_, regs, memory(0), stride_,
                   s_->branches.data(), group.size())
            .run(0, 0);
    if (stop.pc == kHalted) {
      steps_ += stop.steps * group.size();
      for (size_t l = 0; l < group.size(); ++l) {
        observe<W>(regs, l);
        if (!visit(first + l, observation(l))) return false;
      }
      return true;
    }
    if constexpr (W > 1) {
      splits_++;
      int64_t* serial = s_->serial.data();
      for (size_t l = 0; l < group.size(); ++l) {
        for (size_t reg = 0; reg < s_->serial.size(); ++reg)
          serial[reg] = regs[reg * W + l];
        steps_ += Machine<1>(p_, max_steps_, serial, memory(l), stride_,
                             s_->branches.data(), 1)
                      .run(stop.pc, stop.steps)
                      .steps;
        observe<1>(serial, l);
        if (!visit(first + l, observation(l))) return false;
      }
    }
    return true;
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
      int64_t* mem = memory(lane) + a.offset;
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

  /// Copies lane `lane`'s outputs in front of its memory, so that one
  /// buffer is the execution's observation. A serial machine's registers
  /// (W = 1) may belong to any lane.
  template <size_t W>
  void observe(const int64_t* regs, size_t lane) {
    int64_t* out = s_->observations.data() + lane * stride_;
    for (int32_t reg : p_.output_registers)
      *out++ = regs[static_cast<size_t>(reg) * W + (W == 1 ? 0 : lane)];
  }

  int64_t* memory(size_t lane) {
    return s_->observations.data() + lane * stride_ +
           p_.output_registers.size();
  }
  std::span<const int64_t> observation(size_t lane) const {
    return {s_->observations.data() + lane * stride_, stride_};
  }

  const Program& p_;
  uint64_t max_steps_;
  size_t stride_;  // values per observation
  ScratchLease s_;
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

Interpreter::Interpreter(const ir::Function& fn, const StatementCode* store) {
  int32_t memory_size = 0;
  std::vector<Program::Array> arrays = lay_out_arrays(fn, memory_size);
  const Unit& unit = compile_fragments(fn, store, arrays);
  compiled_ = unit.records.size();
  prog_ = Linker(fn, std::move(arrays), memory_size, unit).take();
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

bool Interpreter::run_trace(
    std::span<const Stimulus> trace, RunStats* stats,
    const std::function<bool(size_t, std::span<const int64_t>)>& visit)
    const {
  Pass pass(*prog_, max_steps_);
  if (!pass.run(trace, visit)) return false;
  if (stats) pass.flush(*stats);
  return true;
}

}  // namespace fact::sim

template class fact::ir::StatementIndex<fact::sim::FragmentUnit>;
