#include "rtl/plan.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace fact::rtl {

RtlPlan build_rtl_plan(const ir::Function& fn, const stg::Stg& stg) {
  RtlPlan plan;
  plan.entry = stg.entry();
  plan.states.resize(stg.num_states());

  plan.owners = stg.owners();

  // Inventory.
  std::set<std::string> defined_vars;
  for (size_t s = 0; s < stg.num_states(); ++s) {
    for (const auto& op : stg.state(static_cast<int>(s)).ops) {
      if (op.wire >= 0) plan.wires.insert(stg::wire_name(op.wire));
      if (!op.def_var.empty()) {
        plan.vars.emplace(op.def_var);
        defined_vars.emplace(op.def_var);
      }
      for (const stg::Operand& operand : op.operands)
        if (operand.kind() == stg::Operand::Kind::Reg)
          plan.vars.emplace(operand.reg());
    }
  }
  for (const auto& p : fn.params()) {
    if (defined_vars.count(p)) {
      plan.written_params.insert(p);
    }
    plan.vars.erase(p);
  }
  for (const auto& p : plan.written_params) plan.vars.insert(p);

  // Shadow analysis. A pre-reader (an op the scheduler allowed to float
  // past a register update) must read the captured old value exactly when
  // the update executes before it in emission order. The decision is per
  // occurrence: the same op sits before its definition in the kernel ring
  // (reads the register directly) but after it in the linear prologue
  // (reads the shadow).
  //
  // reader wire -> the defining op wires whose pre-update value it needs.
  std::map<int, std::set<int>> linked_defs;
  // def occurrences per variable: (state, index, wire, pipeline lag).
  struct DefSite {
    int state;
    int idx;
    int wire;
    int lag;
  };
  std::map<std::string_view, std::vector<DefSite>> def_sites;
  for (size_t s = 0; s < stg.num_states(); ++s) {
    const auto& ops = stg.state(static_cast<int>(s)).ops;
    for (size_t oi = 0; oi < ops.size(); ++oi) {
      const auto& op = ops[oi];
      if (op.def_var.empty()) continue;
      def_sites[op.def_var].push_back(
          {static_cast<int>(s), static_cast<int>(oi), op.wire, op.lag});
      for (const int reader : op.pre_readers)
        linked_defs[reader].insert(op.wire);
    }
  }
  // State-to-state reachability (over transitions), used to recognize
  // rings: two states on a common cycle execute repeatedly, so a def in a
  // later ring state reaches the reader as the *previous traversal's*
  // update.
  const size_t n_states_total = stg.num_states();
  std::vector<std::vector<bool>> reaches(
      n_states_total, std::vector<bool>(n_states_total, false));
  for (size_t from = 0; from < n_states_total; ++from) {
    std::vector<int> work{static_cast<int>(from)};
    while (!work.empty()) {
      const int cur = work.back();
      work.pop_back();
      for (int ei : stg.state(cur).out_edges) {
        const stg::Edge& e = stg.edge(ei);
        if (e.exec_boundary) continue;  // rings live within one execution
        if (!reaches[from][static_cast<size_t>(e.to)]) {
          reaches[from][static_cast<size_t>(e.to)] = true;
          work.push_back(e.to);
        }
      }
    }
  }
  auto ring_of = [&](int s) { return stg.state(s).ring_id; };

  // Shadow decision for reader occurrence (state, idx) and variable v:
  // the value the reader observes comes from the nearest update executed
  // before it.
  //  * An update earlier in the SAME state decides: a scheduler-floated
  //    one -> shadow; a program-order one -> direct.
  //  * An update later in the same state, or in a later state of the same
  //    ring, is the previous traversal's update: exactly the value a
  //    floated reader wants -> direct.
  //  * Otherwise the nearest preceding update (earlier ring state first,
  //    then earlier linear states such as the prologue) decides.
  auto needs_shadow = [&](const stg::OpInstance& reader_op,
                          std::string_view v, int state, int idx) {
    const int reader = reader_op.wire;
    auto sites = def_sites.find(v);
    if (sites == def_sites.end()) return false;
    auto linked = linked_defs.find(reader);
    auto is_linked = [&](const DefSite& d) {
      return linked != linked_defs.end() && linked->second.count(d.wire);
    };
    // Iteration arithmetic: the most recent execution of a def running
    // `executed` (already, in the current pass/traversal) is lag_d
    // iterations behind the newest in-flight iteration; otherwise its
    // latest run was one traversal earlier (lag_d + 1). A linked
    // (floated-past) reader wants the value after the iteration
    // (lag_r + 1) behind; the shadow register rolls exactly one update
    // further back than the register. Linear states carry lag 0, which
    // reduces this to the classic "floated def already ran -> shadow".
    auto decide = [&](const DefSite& d, bool executed) {
      if (!is_linked(d)) return false;  // program-order read: direct
      const int most_recent = d.lag + (executed ? 0 : 1);
      const int desired = reader_op.lag + 1;
      return most_recent == desired - 1;  // shadow compensates one update
    };

    const int my_ring = ring_of(state);
    const DefSite* same_before = nullptr;
    const DefSite* same_after = nullptr;
    const DefSite* ring_before = nullptr;
    const DefSite* ring_after = nullptr;
    const DefSite* earlier = nullptr;
    for (const auto& d : sites->second) {
      if (d.state == state) {
        if (d.idx < idx) {
          if (!same_before || d.idx > same_before->idx) same_before = &d;
        } else {
          same_after = &d;
        }
      } else if (my_ring >= 0 && ring_of(d.state) == my_ring) {
        if (d.state < state) {
          if (!ring_before || d.state > ring_before->state) ring_before = &d;
        } else {
          ring_after = &d;
        }
      } else if (d.state < state) {
        if (!earlier || d.state > earlier->state ||
            (d.state == earlier->state && d.idx > earlier->idx))
          earlier = &d;
      }
    }
    if (same_before) return decide(*same_before, true);
    if (same_after) return decide(*same_after, false);
    if (ring_after) return decide(*ring_after, false);
    if (ring_before) return decide(*ring_before, true);
    if (earlier) {
      // The nearest preceding update may sit inside a kernel ring the
      // reader has already left (a drain state). The ring's final
      // traversal was cut short at its exit state: updates at or before
      // the exit executed once more; updates past it did not.
      const int def_ring = ring_of(earlier->state);
      if (def_ring >= 0) {
        int exit_state = -1;
        for (size_t u = 0; u < n_states_total; ++u) {
          if (ring_of(static_cast<int>(u)) != def_ring) continue;
          for (int ei : stg.state(static_cast<int>(u)).out_edges) {
            const stg::Edge& e = stg.edge(ei);
            if (e.exec_boundary) continue;
            if (ring_of(e.to) == def_ring) continue;  // stays in ring
            if (e.to == state ||
                reaches[static_cast<size_t>(e.to)][static_cast<size_t>(state)])
              exit_state = std::max(exit_state, static_cast<int>(u));
          }
        }
        const bool ran_final =
            exit_state < 0 || earlier->state <= exit_state;
        return decide(*earlier, ran_final);
      }
      return decide(*earlier, true);
    }
    return false;
  };

  // Steps.
  for (size_t s = 0; s < stg.num_states(); ++s) {
    const stg::State& st = stg.state(static_cast<int>(s));
    RtlState& out = plan.states[s];
    for (size_t oi = 0; oi < st.ops.size(); ++oi) {
      const auto& op = st.ops[oi];
      RtlStep step;
      step.op = op;
      for (const stg::Operand& operand : op.operands) {
        if (operand.kind() == stg::Operand::Kind::Reg &&
            needs_shadow(op, operand.reg(), static_cast<int>(s),
                         static_cast<int>(oi))) {
          step.srcs.push_back(operand.str() + "__pre");
          plan.shadowed.emplace(operand.reg());
        } else {
          step.srcs.push_back(operand.str());
        }
      }
      out.steps.push_back(std::move(step));
    }

    // Transitions: exit-style edges consume successive condition signals;
    // T/F pairs share one. The final edge is the unconditional else.
    std::vector<std::string> signals;
    {
      std::stringstream ss(st.cond_signal);
      std::string tok;
      while (std::getline(ss, tok, ',')) signals.push_back(tok);
    }
    size_t sig = 0;
    for (size_t k = 0; k < st.out_edges.size(); ++k) {
      const stg::Edge& e = stg.edge(st.out_edges[k]);
      RtlTransition t;
      t.target = e.to;
      t.boundary = e.exec_boundary;
      if (k + 1 == st.out_edges.size()) {
        t.signal.clear();  // else
      } else {
        t.signal = sig < signals.size() ? signals[sig] : "";
        t.on_true = e.cond_label == "T" || e.cond_label == "loop";
        if (e.cond_label != "T") ++sig;  // F pairs with its T's signal
      }
      out.transitions.push_back(std::move(t));
    }
    if (out.transitions.empty())
      throw Error("rtl: STG state without outgoing transition");
  }

  // Second pass: attach shadow captures. Every state that updates a
  // shadowed variable captures its incoming value just before the first
  // update, so readers anywhere downstream (same state or later states of
  // the traversal) can observe the pre-update value.
  for (auto& state : plan.states) {
    std::set<std::string> captured;
    for (auto& step : state.steps) {
      if (step.op.def_var.empty()) continue;
      const std::string var(step.op.def_var);
      if (!plan.shadowed.count(var)) continue;
      if (captured.insert(var).second) step.captures.push_back(var);
    }
  }
  return plan;
}

}  // namespace fact::rtl
