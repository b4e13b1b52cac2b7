#include "rtl/sim.hpp"

#include <map>

#include "util/error.hpp"

namespace fact::rtl {

namespace {

bool is_number(const std::string& t) {
  if (t.empty()) return false;
  size_t i = t[0] == '-' ? 1 : 0;
  if (i >= t.size()) return false;
  for (; i < t.size(); ++i)
    if (t[i] < '0' || t[i] > '9') return false;
  return true;
}

}  // namespace

RtlSimResult simulate_rtl(const ir::Function& fn, const RtlPlan& plan,
                          const sim::Stimulus& stimulus, long max_cycles) {
  std::map<std::string, int64_t> regs;  // vars, shadows, wires
  std::map<std::string, std::vector<int64_t>> mems;

  auto read = [&](const std::string& tok) -> int64_t {
    if (is_number(tok)) return std::stoll(tok);
    auto it = regs.find(tok);
    return it == regs.end() ? 0 : it->second;
  };

  // Reset: latch parameters, preload input memories.
  for (const auto& p : fn.params()) {
    auto it = stimulus.params.find(p);
    regs[p] = it == stimulus.params.end() ? 0 : it->second;
  }
  for (const auto& a : fn.arrays()) {
    auto& mem = mems[a.name];
    mem.assign(a.size, 0);
    if (a.is_input) {
      auto it = stimulus.arrays.find(a.name);
      if (it != stimulus.arrays.end()) {
        const size_t n = std::min(a.size, it->second.size());
        for (size_t i = 0; i < n; ++i) mem[i] = it->second[i];
      }
    }
  }

  RtlSimResult result;
  int state = plan.entry;
  for (long cycle = 0; cycle < max_cycles; ++cycle) {
    const RtlState& st = plan.states[static_cast<size_t>(state)];
    result.cycles = cycle + 1;

    for (const RtlStep& step : st.steps) {
      for (const auto& v : step.captures) regs[v + "__pre"] = regs[v];
      std::vector<int64_t> src;
      src.reserve(step.srcs.size());
      for (const auto& tok : step.srcs) src.push_back(read(tok));

      if (step.op.is_store) {
        auto& mem = mems.at(std::string(step.op.array));
        mem[static_cast<size_t>(ir::wrap_index(src[0], mem.size()))] = src[1];
        continue;
      }

      int64_t value = 0;
      switch (step.op.op) {
        case ir::Op::Var: value = src.empty() ? 0 : src[0]; break;
        case ir::Op::ArrayRead: {
          const auto& mem = mems.at(std::string(step.op.array));
          value = mem[static_cast<size_t>(ir::wrap_index(src[0], mem.size()))];
          break;
        }
        default:
          src.resize(3);  // operands an op does not take read as 0
          value = ir::eval_op(step.op.op, src[0], src[1], src[2]);
          break;
      }
      regs[stg::wire_name(step.op.wire)] = value;
      if (!step.op.def_var.empty()) regs[std::string(step.op.def_var)] = value;
    }

    // Transitions: first match fires.
    bool moved = false;
    for (const RtlTransition& t : st.transitions) {
      bool fire = t.signal.empty();
      if (!fire) {
        const bool truth = read(t.signal) != 0;
        fire = truth == t.on_true;
      }
      if (!fire) continue;
      moved = true;
      if (t.boundary) {
        result.completed = true;
        for (const auto& o : fn.outputs()) result.obs.outputs[o] = read(o);
        result.obs.arrays = std::move(mems);
        return result;
      }
      state = t.target;
      break;
    }
    if (!moved) throw Error("rtl sim: no transition fired");
  }
  return result;  // completed == false: cycle cap hit
}

}  // namespace fact::rtl
