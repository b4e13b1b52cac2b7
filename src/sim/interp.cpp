#include "sim/interp.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fact::sim {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::Stmt;
using ir::StmtKind;

/// The compiled form of a behavior. Scalars live in a flat register file
/// and arrays in a flat memory file; expression trees are flattened into a
/// node pool addressed by index. Names survive only where the original
/// interpreter needed them: stimulus/observation keys and error messages.
struct Interpreter::Program {
  struct ENode {
    Op op;
    int32_t a = -1, b = -1, c = -1;  // child indices into `enodes`
    int32_t slot = -1;  // Var: register; ArrayRead: memory (-1 = undeclared)
    int32_t name = -1;  // ArrayRead: index into `names` for error messages
    int64_t cval = 0;   // Const only
  };
  struct SNode {
    StmtKind kind;
    int32_t slot = -1;      // Assign: register; Store: memory (-1 = undeclared)
    int32_t name = -1;      // Store: index into `names` for error messages
    int32_t e0 = -1;        // Assign/Store value; If/While condition
    int32_t e1 = -1;        // Store index
    int32_t branch = -1;    // If/While: dense branch-counter index
    std::vector<SNode> then_s, else_s;  // If arms; While/Block body in then_s
  };
  struct ArrayInfo {
    std::string name;
    size_t size = 0;
    bool is_input = false;
  };

  std::string fn_name;  // for the step-limit diagnostic
  std::vector<ENode> enodes;
  std::vector<SNode> top;
  int32_t num_regs = 0;
  std::vector<std::pair<std::string, int32_t>> params;   // stimulus -> register
  std::vector<std::pair<std::string, int32_t>> outputs;  // register -> output
  std::vector<ArrayInfo> arrays;  // memory slot = index in declaration order
  std::vector<int> branch_ids;    // branch counter -> statement id
  std::vector<std::string> names; // error-message pool
};

namespace {

/// One-shot translation of a Function into a Program.
class Compiler {
 public:
  explicit Compiler(const ir::Function& fn) {
    prog_ = std::make_shared<Interpreter::Program>();
    prog_->fn_name = fn.name();
    for (const auto& a : fn.arrays()) {
      if (!array_slots_.count(a.name))
        array_slots_.emplace(a.name,
                             static_cast<int32_t>(prog_->arrays.size()));
      prog_->arrays.push_back({a.name, a.size, a.is_input});
    }
    for (const auto& p : fn.params())
      prog_->params.emplace_back(p, reg(p));
    if (fn.body())
      for (const auto& s : fn.body()->stmts) prog_->top.push_back(stmt(*s));
    for (const auto& o : fn.outputs())
      prog_->outputs.emplace_back(o, reg(o));
    prog_->num_regs = static_cast<int32_t>(reg_slots_.size());
  }

  std::shared_ptr<const Interpreter::Program> take() { return prog_; }

 private:
  int32_t reg(const std::string& n) {
    auto [it, fresh] =
        reg_slots_.emplace(n, static_cast<int32_t>(reg_slots_.size()));
    (void)fresh;
    return it->second;
  }

  int32_t intern(const std::string& n) {
    auto [it, fresh] =
        name_pool_.emplace(n, static_cast<int32_t>(prog_->names.size()));
    if (fresh) prog_->names.push_back(n);
    return it->second;
  }

  int32_t array_slot(const std::string& n) const {
    auto it = array_slots_.find(n);
    return it == array_slots_.end() ? -1 : it->second;
  }

  int32_t expr(const ExprPtr& e) {
    Interpreter::Program::ENode n;
    n.op = e->op();
    switch (e->op()) {
      case Op::Const:
        n.cval = e->value();
        break;
      case Op::Var:
        n.slot = reg(e->name());
        break;
      case Op::ArrayRead:
        n.slot = array_slot(e->name());
        n.name = intern(e->name());
        n.a = expr(e->arg(0));
        break;
      default:
        n.a = expr(e->arg(0));
        if (e->num_args() > 1) n.b = expr(e->arg(1));
        if (e->num_args() > 2) n.c = expr(e->arg(2));
        break;
    }
    prog_->enodes.push_back(n);
    return static_cast<int32_t>(prog_->enodes.size()) - 1;
  }

  std::vector<Interpreter::Program::SNode> stmt_list(
      const std::vector<ir::StmtPtr>& list) {
    std::vector<Interpreter::Program::SNode> out;
    out.reserve(list.size());
    for (const auto& s : list) out.push_back(stmt(*s));
    return out;
  }

  Interpreter::Program::SNode stmt(const Stmt& s) {
    Interpreter::Program::SNode n;
    n.kind = s.kind;
    switch (s.kind) {
      case StmtKind::Assign:
        n.slot = reg(s.target);
        n.e0 = expr(s.value);
        break;
      case StmtKind::Store:
        n.slot = array_slot(s.target);
        n.name = intern(s.target);
        n.e1 = expr(s.index);
        n.e0 = expr(s.value);
        break;
      case StmtKind::If:
        n.e0 = expr(s.cond);
        n.branch = branch(s.id);
        n.then_s = stmt_list(s.then_stmts);
        n.else_s = stmt_list(s.else_stmts);
        break;
      case StmtKind::While:
        n.e0 = expr(s.cond);
        n.branch = branch(s.id);
        n.then_s = stmt_list(s.then_stmts);
        break;
      case StmtKind::Block:
        n.then_s = stmt_list(s.stmts);
        break;
    }
    return n;
  }

  int32_t branch(int stmt_id) {
    prog_->branch_ids.push_back(stmt_id);
    return static_cast<int32_t>(prog_->branch_ids.size()) - 1;
  }

  std::shared_ptr<Interpreter::Program> prog_;
  std::map<std::string, int32_t> reg_slots_;
  std::map<std::string, int32_t> array_slots_;
  std::map<std::string, int32_t> name_pool_;
};

/// Executes a compiled Program: one stimulus at a time, reset between
/// stimuli, with branch counters and steps accumulating over the pass.
class Machine {
 public:
  Machine(const Interpreter::Program& p, uint64_t max_steps)
      : p_(p),
        regs_(static_cast<size_t>(p.num_regs), 0),
        mems_(p.arrays.size()),
        branches_(p.branch_ids.size()),
        max_steps_(max_steps) {}

  /// Resets the machine to the start of one execution: every register
  /// zero (a scalar never written reads 0), every memory reloaded from
  /// `in`, and the step limit counting from zero again.
  void init(const Stimulus& in) {
    pass_steps_ += steps_;
    steps_ = 0;
    std::fill(regs_.begin(), regs_.end(), 0);
    for (const auto& [name, slot] : p_.params) {
      auto it = in.params.find(name);
      if (it != in.params.end()) regs_[static_cast<size_t>(slot)] = it->second;
    }
    for (size_t i = 0; i < p_.arrays.size(); ++i) {
      const auto& a = p_.arrays[i];
      auto& mem = mems_[i];
      mem.assign(a.size, 0);
      if (a.is_input) {
        auto it = in.arrays.find(a.name);
        if (it != in.arrays.end()) {
          const size_t n = std::min(a.size, it->second.size());
          for (size_t j = 0; j < n; ++j) mem[j] = it->second[j];
        }
      }
    }
  }

  void run() { exec_list(p_.top); }

  /// Adds the counters of every execution so far into `stats` (branches
  /// the behavior never reached stay absent from the map).
  void flush(RunStats& stats) const {
    stats.steps += pass_steps_ + steps_;
    for (size_t i = 0; i < branches_.size(); ++i) {
      const BranchStats& b = branches_[i];
      if (b.total == 0) continue;
      auto& d = stats.branches[p_.branch_ids[i]];
      d.taken += b.taken;
      d.total += b.total;
    }
  }

  Observation take_observation() {
    Observation obs;
    for (const auto& [name, slot] : p_.outputs)
      obs.outputs.emplace(name, regs_[static_cast<size_t>(slot)]);
    for (size_t i = 0; i < p_.arrays.size(); ++i)
      obs.arrays.emplace(p_.arrays[i].name, std::move(mems_[i]));
    return obs;
  }

 private:
  int64_t eval(int32_t idx) {
    const auto& n = p_.enodes[static_cast<size_t>(idx)];
    switch (n.op) {
      case Op::Const:
        return n.cval;
      case Op::Var:
        return regs_[static_cast<size_t>(n.slot)];
      case Op::ArrayRead: {
        if (n.slot < 0 || mems_[static_cast<size_t>(n.slot)].empty())
          throw Error("read of unknown array '" +
                      p_.names[static_cast<size_t>(n.name)] + "'");
        auto& mem = mems_[static_cast<size_t>(n.slot)];
        const int64_t i = eval(n.a);
        return mem[static_cast<size_t>(ir::wrap_index(i, mem.size()))];
      }
      case Op::Select:
        return eval(n.a) != 0 ? eval(n.b) : eval(n.c);
      default: {
        // Both operands always evaluate (hardware evaluates both cones).
        const int64_t a = eval(n.a);
        return ir::eval_op(n.op, a, n.b < 0 ? 0 : eval(n.b));
      }
    }
  }

  void tick() {
    if (++steps_ > max_steps_)
      throw Error("interpreter exceeded step limit in '" + p_.fn_name + "'");
  }

  void note_branch(int32_t idx, bool taken) {
    BranchStats& b = branches_[static_cast<size_t>(idx)];
    b.total++;
    if (taken) b.taken++;
  }

  void exec_list(const std::vector<Interpreter::Program::SNode>& list) {
    for (const auto& s : list) exec(s);
  }

  void exec(const Interpreter::Program::SNode& s) {
    tick();
    switch (s.kind) {
      case StmtKind::Assign:
        regs_[static_cast<size_t>(s.slot)] = eval(s.e0);
        break;
      case StmtKind::Store: {
        if (s.slot < 0)
          throw Error("store to unknown array '" +
                      p_.names[static_cast<size_t>(s.name)] + "'");
        auto& mem = mems_[static_cast<size_t>(s.slot)];
        const int64_t idx = eval(s.e1);
        const int64_t val = eval(s.e0);
        mem[static_cast<size_t>(ir::wrap_index(idx, mem.size()))] = val;
        break;
      }
      case StmtKind::If: {
        const bool taken = eval(s.e0) != 0;
        note_branch(s.branch, taken);
        exec_list(taken ? s.then_s : s.else_s);
        break;
      }
      case StmtKind::While:
        for (;;) {
          const bool closed = eval(s.e0) != 0;
          note_branch(s.branch, closed);
          if (!closed) break;
          tick();
          exec_list(s.then_s);
        }
        break;
      case StmtKind::Block:
        exec_list(s.then_s);
        break;
    }
  }

  const Interpreter::Program& p_;
  std::vector<int64_t> regs_;
  std::vector<std::vector<int64_t>> mems_;
  std::vector<BranchStats> branches_;
  uint64_t max_steps_;
  uint64_t steps_ = 0;       // this execution's
  uint64_t pass_steps_ = 0;  // earlier executions' of this pass
};

}  // namespace

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

Observation Interpreter::run(const Stimulus& in, RunStats* stats) const {
  Machine m(*prog_, max_steps_);
  m.init(in);
  m.run();
  if (stats) m.flush(*stats);
  return m.take_observation();
}

bool Interpreter::run_trace(
    const Trace& trace, RunStats* stats,
    const std::function<bool(size_t, Observation&&)>& visit) const {
  Machine m(*prog_, max_steps_);
  for (size_t i = 0; i < trace.size(); ++i) {
    m.init(trace[i]);
    m.run();
    if (!visit(i, m.take_observation())) return false;
  }
  if (stats) m.flush(*stats);
  return true;
}

}  // namespace fact::sim
