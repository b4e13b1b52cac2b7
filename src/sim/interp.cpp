#include "sim/interp.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <string_view>

#include "obs/metrics.hpp"
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

Interpreter::Interpreter(const ir::Function& fn)
    : prog_(Compiler(fn).take()) {}

const ObservationLayout& Interpreter::layout() const { return prog_->layout; }

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
