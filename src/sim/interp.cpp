#include "sim/interp.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string_view>

#include "util/error.hpp"

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

namespace {

using Program = Interpreter::Program;

/// One-shot translation of a Function into a Program. Scalars get their
/// registers as they are first seen; temporaries and constants get
/// provisional numbers above kTemp and kConst, which finish() relocates
/// behind the scalars once their count is known.
class Compiler {
 public:
  explicit Compiler(const ir::Function& fn) : p_(std::make_shared<Program>()) {
    p_->fn_name = fn.name();
    std::vector<Program::Array>& arrays = p_->arrays;
    // Cells are addressed by int32 offsets.
    constexpr size_t kMaxCells = std::numeric_limits<int32_t>::max();
    size_t cells = 0;
    for (const auto& a : fn.arrays()) {
      Sym& s = sym(a.name);
      if (s.array >= 0) continue;  // redeclared: the first declaration wins
      if (a.size > kMaxCells - cells)
        throw Error("the arrays of '" + fn.name() +
                    "' are too large to simulate");
      cells += a.size;
      s.array = 0;
      arrays.push_back({a.name, 0, static_cast<int32_t>(a.size), a.is_input});
    }
    std::sort(arrays.begin(), arrays.end(),
              [](const auto& x, const auto& y) { return x.name < y.name; });
    for (size_t i = 0; i < arrays.size(); ++i) {
      sym(arrays[i].name).array = static_cast<int32_t>(i);
      arrays[i].offset = p_->memory_size;
      p_->memory_size += arrays[i].size;
    }
    for (const auto& n : fn.params()) p_->params.emplace_back(n, reg(n));
    if (fn.body()) list(fn.body()->stmts);
    emit(Code::Halt);
    layout(fn);
    finish();
  }

  std::shared_ptr<const Program> take() { return std::move(p_); }

 private:
  static constexpr int32_t kTemp = 1 << 29;
  static constexpr int32_t kConst = 1 << 30;

  struct Sym {
    int32_t reg = -1;    // scalar register
    int32_t array = -1;  // index into Program::arrays
  };

  /// A behavior has few names (and few distinct constants), so flat
  /// tables searched in order beat hashing them.
  Sym& sym(std::string_view name) {
    for (auto& [n, s] : syms_)
      if (n == name) return s;
    return syms_.emplace_back(name, Sym{}).second;
  }

  int32_t reg(std::string_view name) {
    Sym& s = sym(name);
    if (s.reg < 0) s.reg = p_->num_scalars++;
    return s.reg;
  }

  /// The array `name` reads and stores go to; null if undeclared or empty.
  const Program::Array* array(std::string_view name) {
    const Sym& s = sym(name);
    if (s.array < 0 || p_->arrays[static_cast<size_t>(s.array)].size == 0)
      return nullptr;
    return &p_->arrays[static_cast<size_t>(s.array)];
  }

  int32_t constant(int64_t v) {
    auto it = std::find(consts_.begin(), consts_.end(), v);
    if (it == consts_.end()) it = consts_.insert(it, v);
    return kConst | static_cast<int32_t>(it - consts_.begin());
  }

  int32_t temp() {
    max_temps_ = std::max(max_temps_, next_temp_ + 1);
    return kTemp | next_temp_++;
  }

  int32_t here() const { return static_cast<int32_t>(p_->code.size()); }

  int32_t emit(Code code, int32_t d = 0, int32_t a = 0, int32_t b = 0,
               int32_t c = 0) {
    p_->code.push_back({code, d, a, b, c});
    if (code >= Code::If) open_step_ = -1;  // control flow ends the run
    return here() - 1;
  }

  /// Makes the jump at `at` land here. Another path enters here, so the
  /// run of statements the current step instruction counts ends.
  void land(int32_t at) {
    p_->code[static_cast<size_t>(at)].b = here();
    open_step_ = -1;
  }

  /// One statement's step: joins the open step instruction, if any.
  void step() {
    if (open_step_ >= 0)
      p_->code[static_cast<size_t>(open_step_)].a++;
    else
      open_step_ = emit(Code::Step, 0, 1);
  }

  void fail(std::string message) {
    emit(Code::Fail, 0, static_cast<int32_t>(p_->errors.size()));
    p_->errors.push_back(std::move(message));
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
        emit(Code::Mov, dst, expr(e));
        return;
      case Op::ArrayRead: {
        const Program::Array* a = array(e.name());
        if (!a) return fail("read of unknown array '" + e.name() + "'");
        emit(Code::Load, dst, expr(*e.arg(0)), a->offset, a->size);
        return;
      }
      case Op::Select: {
        const int32_t skip = emit(Code::JumpIfZero, 0, expr(*e.arg(0)));
        into(*e.arg(1), dst);
        const int32_t over = emit(Code::Jump);
        land(skip);
        into(*e.arg(2), dst);
        land(over);
        return;
      }
      default: {
        // Both operands always evaluate (hardware evaluates both cones).
        const int32_t a = expr(*e.arg(0));
        const int32_t b = e.num_args() > 1 ? expr(*e.arg(1)) : 0;
        emit(operator_code(e.op()), dst, a, b);
        return;
      }
    }
  }

  void list(const std::vector<ir::StmtPtr>& stmts) {
    for (const auto& s : stmts) stmt(*s);
  }

  void stmt(const Stmt& s) {
    step();
    next_temp_ = 0;
    switch (s.kind) {
      case StmtKind::Assign:
        into(*s.value, reg(s.target));
        break;
      case StmtKind::Store: {
        const Program::Array* a = array(s.target);
        if (!a) {
          fail("store to unknown array '" + s.target + "'");
          break;
        }
        const int32_t index = expr(*s.index);
        const int32_t value = expr(*s.value);
        emit(Code::Store, a->offset, index, value, a->size);
        break;
      }
      case StmtKind::If: {
        const int32_t test = emit(Code::If, branch(s.id), expr(*s.cond));
        list(s.then_stmts);
        if (s.else_stmts.empty()) {
          land(test);
          break;
        }
        const int32_t over = emit(Code::Jump);
        land(test);
        list(s.else_stmts);
        land(over);
        break;
      }
      case StmtKind::While: {
        // The test sits below the body: one jump in, then one counted
        // conditional jump back per iteration.
        const int32_t counter = branch(s.id);
        const int32_t enter = emit(Code::Jump);
        const int32_t top = here();
        step();  // the iteration's own step
        list(s.then_stmts);
        land(enter);
        next_temp_ = 0;
        emit(Code::Loop, counter, expr(*s.cond), top);
        break;
      }
      case StmtKind::Block:
        list(s.stmts);
        break;
    }
  }

  int32_t branch(int stmt_id) {
    p_->branch_ids.push_back(stmt_id);
    return static_cast<int32_t>(p_->branch_ids.size()) - 1;
  }

  /// The observation layout: outputs, then arrays, each sorted by name.
  void layout(const ir::Function& fn) {
    std::vector<std::pair<std::string_view, int32_t>> outs;
    for (const auto& o : fn.outputs()) outs.emplace_back(o, reg(o));
    std::sort(outs.begin(), outs.end());
    outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
    ObservationLayout& l = p_->layout;
    for (const auto& [name, r] : outs) {
      l.outputs.emplace_back(name);
      p_->output_registers.push_back(r);
    }
    for (const auto& a : p_->arrays)
      l.arrays.emplace_back(a.name, static_cast<size_t>(a.size));
    l.size = outs.size() + static_cast<size_t>(p_->memory_size);
  }

  /// Relocates temporaries and constants behind the scalars and lays out
  /// the register file.
  void finish() {
    const int32_t temps = p_->num_scalars;
    const int32_t consts = temps + max_temps_;
    const auto fix = [&](int32_t& r) {
      if (r & kConst)
        r = consts + (r & ~kConst);
      else if (r & kTemp)
        r = temps + (r & ~kTemp);
    };
    for (Instr& in : p_->code) {
      switch (in.code) {
        default:  // the operators
          fix(in.b);
          [[fallthrough]];
        case Code::Mov:
        case Code::Load:
          fix(in.d);
          fix(in.a);
          break;
        case Code::Store:
          fix(in.a);
          fix(in.b);
          break;
        case Code::If:
        case Code::Loop:
        case Code::JumpIfZero:
          fix(in.a);
          break;
        case Code::Step:
        case Code::Jump:
        case Code::Fail:
        case Code::Halt:
          break;
      }
    }
    p_->registers.assign(static_cast<size_t>(consts), 0);
    p_->registers.insert(p_->registers.end(), consts_.begin(), consts_.end());
  }

  std::shared_ptr<Program> p_;
  std::vector<std::pair<std::string_view, Sym>> syms_;
  std::vector<int64_t> consts_;
  int32_t next_temp_ = 0, max_temps_ = 0;
  int32_t open_step_ = -1;  // the step instruction of the current run
};

/// Executes a compiled Program: one stimulus at a time, reset in place
/// between stimuli, with branch counters and steps accumulating over the
/// pass. The memory sits right behind a slot per output, so once the
/// outputs are copied there, that one buffer is the execution's
/// observation.
class Machine {
 public:
  Machine(const Program& p, uint64_t max_steps)
      : p_(p),
        regs_(p.registers),
        observation_(p.layout.size),
        memory_(observation_.data() + p.output_registers.size()),
        branches_(p.branch_ids.size()),
        max_steps_(max_steps) {}
  Machine(const Machine&) = delete;  // memory_ points into observation_
  Machine& operator=(const Machine&) = delete;

  /// Runs one execution of `in` from reset; returns its observation.
  std::span<const int64_t> execute(const Stimulus& in) {
    reset(in);
    run();
    int64_t* out = observation_.data();
    for (int32_t r : p_.output_registers) *out++ = regs_[static_cast<size_t>(r)];
    return observation_;
  }

  /// Adds the counters of every execution so far into `stats` (branches
  /// the behavior never reached stay absent from the map).
  void flush(RunStats& stats) const {
    stats.steps += steps_;
    for (size_t i = 0; i < branches_.size(); ++i) {
      const BranchStats& b = branches_[i];
      if (b.total == 0) continue;
      auto& d = stats.branches[p_.branch_ids[i]];
      d.taken += b.taken;
      d.total += b.total;
    }
  }

 private:
  /// Every scalar zero (a scalar never written reads 0) but the parameters,
  /// every memory zero but the input arrays' given cells.
  void reset(const Stimulus& in) {
    std::fill_n(regs_.begin(), p_.num_scalars, 0);
    for (const auto& [name, r] : p_.params) {
      auto it = in.params.find(name);
      if (it != in.params.end()) regs_[static_cast<size_t>(r)] = it->second;
    }
    for (const auto& a : p_.arrays) {
      int64_t* mem = memory_ + a.offset;
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

  /// Runs the program from its first instruction to Halt. Dispatch is
  /// threaded: each handler jumps straight to the next instruction's
  /// handler through a table of label addresses (a GNU extension that GCC
  /// and Clang accept under -std=c++20), so each handler's indirect jump is
  /// predicted on its own. fact-bench measured it faster end to end than
  /// the same loop over one shared `switch` on every workload.
  void run() {
    static const void* const kHandler[] = {
        &&Add, &&Sub, &&Mul, &&Lt, &&Le, &&Gt, &&Ge, &&Eq, &&Ne, &&BitNot,
        &&Shl, &&Shr, &&And, &&Or, &&Not, &&Mov, &&Load, &&Store,
        &&Step, &&If, &&Loop, &&JumpIfZero, &&Jump, &&Fail, &&Halt};
    static_assert(std::size(kHandler) == static_cast<size_t>(Code::Halt) + 1);
    const Instr* const code = p_.code.data();
    int64_t* const r = regs_.data();
    int64_t* const mem = memory_;
    const auto at = [](int64_t index, int32_t size) {
      return static_cast<size_t>(
          ir::wrap_index(index, static_cast<size_t>(size)));
    };
    uint64_t steps = 0;  // this execution's
    const Instr* in = code;
    // Unary operators ignore b.
    const auto apply = [&](Op op) {
      r[in->d] = ir::eval_op(op, r[in->a], r[in->b]);
    };
#define FACT_JUMP(target) \
  goto* kHandler[static_cast<size_t>((in = code + (target))->code)]
#define FACT_NEXT goto* kHandler[static_cast<size_t>((++in)->code)]

    FACT_JUMP(0);
  Add: apply(Op::Add); FACT_NEXT;
  Sub: apply(Op::Sub); FACT_NEXT;
  Mul: apply(Op::Mul); FACT_NEXT;
  Lt: apply(Op::Lt); FACT_NEXT;
  Le: apply(Op::Le); FACT_NEXT;
  Gt: apply(Op::Gt); FACT_NEXT;
  Ge: apply(Op::Ge); FACT_NEXT;
  Eq: apply(Op::Eq); FACT_NEXT;
  Ne: apply(Op::Ne); FACT_NEXT;
  BitNot: apply(Op::BitNot); FACT_NEXT;
  Shl: apply(Op::Shl); FACT_NEXT;
  Shr: apply(Op::Shr); FACT_NEXT;
  And: apply(Op::And); FACT_NEXT;
  Or: apply(Op::Or); FACT_NEXT;
  Not: apply(Op::Not); FACT_NEXT;
  Mov: r[in->d] = r[in->a]; FACT_NEXT;
  Load: r[in->d] = mem[in->b + at(r[in->a], in->c)]; FACT_NEXT;
  Store: mem[in->d + at(r[in->a], in->c)] = r[in->b]; FACT_NEXT;
  Step:
    steps += static_cast<uint64_t>(in->a);
    if (steps > max_steps_)
      throw Error("interpreter exceeded step limit in '" + p_.fn_name + "'");
    FACT_NEXT;
  If: {
    BranchStats& b = branches_[static_cast<size_t>(in->d)];
    b.total++;
    if (r[in->a] == 0) FACT_JUMP(in->b);
    b.taken++;
    FACT_NEXT;
  }
  Loop: {
    BranchStats& b = branches_[static_cast<size_t>(in->d)];
    b.total++;
    if (r[in->a] == 0) FACT_NEXT;
    b.taken++;
    FACT_JUMP(in->b);
  }
  JumpIfZero:
    if (r[in->a] == 0) FACT_JUMP(in->b);
    FACT_NEXT;
  Jump:
    FACT_JUMP(in->b);
  Fail:
    throw Error(p_.errors[static_cast<size_t>(in->a)]);
  Halt:
    steps_ += steps;
#undef FACT_NEXT
#undef FACT_JUMP
  }

  const Program& p_;
  std::vector<int64_t> regs_;
  std::vector<int64_t> observation_;  // the outputs, then the memory
  int64_t* memory_;
  std::vector<BranchStats> branches_;
  uint64_t max_steps_;
  uint64_t steps_ = 0;  // every finished execution's
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

Interpreter::Interpreter(const ir::Function& fn)
    : prog_(Compiler(fn).take()) {}

const ObservationLayout& Interpreter::layout() const { return prog_->layout; }

Observation Interpreter::run(const Stimulus& in, RunStats* stats) const {
  Machine m(*prog_, max_steps_);
  const std::span<const int64_t> values = m.execute(in);
  if (stats) m.flush(*stats);
  return prog_->layout.observation(values);
}

bool Interpreter::run_trace(
    std::span<const Stimulus> trace, RunStats* stats,
    const std::function<bool(size_t, std::span<const int64_t>)>& visit)
    const {
  Machine m(*prog_, max_steps_);
  for (size_t i = 0; i < trace.size(); ++i)
    if (!visit(i, m.execute(trace[i]))) return false;
  if (stats) m.flush(*stats);
  return true;
}

}  // namespace fact::sim
