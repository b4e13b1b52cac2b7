#include "bind/binding.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::bind {

double Binding::area(const hlslib::Library& lib) const {
  double a = 0.0;
  for (const auto& [type, n] : fu_instances_used) {
    // Memory entries are keyed "mem1:<array>" (one memory per array).
    const std::string base = type.substr(0, type.find(':'));
    const hlslib::FuType* t = lib.find(base);
    if (t) a += n * t->area;
  }
  const hlslib::FuType* reg = lib.first_of(hlslib::FuClass::Register);
  const double reg_area = reg ? reg->area : 1.0;
  a += static_cast<double>(registers.size()) * reg_area;
  // A mux input costs a fraction of a register bit-slice.
  a += 0.15 * reg_area * total_mux_inputs();
  return a;
}

int Binding::total_mux_inputs() const {
  int total = 0;
  for (const auto& m : muxes) total += m.mux_inputs();
  return total;
}

std::string Binding::report(const hlslib::Library& lib) const {
  std::ostringstream out;
  out << "datapath binding:\n";
  for (const auto& [type, n] : fu_instances_used)
    out << strfmt("  %-8s x%d\n", type.c_str(), n);
  out << strfmt("  registers: %zu (after left-edge sharing)\n",
                registers.size());
  out << strfmt("  mux inputs: %d\n", total_mux_inputs());
  out << strfmt("  estimated area: %.1f\n", area(lib));
  return out.str();
}

Binding bind_datapath(const stg::Stg& stg, const hlslib::Library& lib,
                      const hlslib::Allocation& alloc) {
  Binding binding;

  // ---- operation binding ------------------------------------------------
  // Per FU instance, remember the last first-operand source seen; prefer
  // instances whose port-0 source matches (fewer mux inputs).
  std::map<std::string, std::vector<std::string>> instance_port0;
  // Distinct sources per (type, instance, port).
  std::map<std::string, std::vector<std::vector<std::set<std::string>>>>
      port_sources;

  for (size_t s = 0; s < stg.num_states(); ++s) {
    const stg::State& st = stg.state(static_cast<int>(s));
    std::map<std::string, std::set<int>> used_this_state;
    for (size_t oi = 0; oi < st.ops.size(); ++oi) {
      const stg::OpInstance& op = st.ops[oi];
      if (op.fu_type.empty()) continue;  // controller glue / copies
      const std::string fu(op.fu_type);
      const hlslib::FuType& type = lib.get(fu);
      int limit = alloc.count(fu);
      if (type.cls == hlslib::FuClass::Memory) limit = 1;  // port per array
      if (limit <= 0)
        throw Error("binding: no allocation for FU type '" + fu + "'");
      // Memories count per array (one memory per array).
      const std::string count_key =
          type.cls == hlslib::FuClass::Memory
              ? fu + ":" + std::string(op.array)
              : fu;

      auto& instances = instance_port0[fu];
      if (instances.empty()) instances.resize(static_cast<size_t>(limit));
      auto& used = used_this_state[count_key];

      // Prefer a free instance already fed by our first operand.
      int chosen = -1;
      const std::string first_src =
          op.operands.empty() ? std::string() : op.operands[0].str();
      for (int k = 0; k < limit; ++k) {
        if (used.count(k)) continue;
        if (instances[static_cast<size_t>(k)] == first_src &&
            !first_src.empty()) {
          chosen = k;
          break;
        }
      }
      if (chosen < 0) {
        // Otherwise the first never-used instance, then any free one.
        for (int k = 0; k < limit && chosen < 0; ++k)
          if (!used.count(k) && instances[static_cast<size_t>(k)].empty())
            chosen = k;
        for (int k = 0; k < limit && chosen < 0; ++k)
          if (!used.count(k)) chosen = k;
      }
      if (chosen < 0)
        throw Error(strfmt(
            "binding: state %zu uses more '%s' instances than allocated",
            s, fu.c_str()));
      used.insert(chosen);
      if (!first_src.empty())
        instances[static_cast<size_t>(chosen)] = first_src;

      BoundOp b;
      b.state = static_cast<int>(s);
      b.op_index = static_cast<int>(oi);
      b.fu_type = fu;
      b.fu_instance = chosen;
      binding.ops.push_back(b);

      auto& ports = port_sources[fu];
      if (ports.size() <= static_cast<size_t>(chosen))
        ports.resize(static_cast<size_t>(chosen) + 1);
      auto& slots = ports[static_cast<size_t>(chosen)];
      if (slots.size() < op.operands.size()) slots.resize(op.operands.size());
      for (size_t p = 0; p < op.operands.size(); ++p)
        slots[p].insert(op.operands[p].str());

      const int prev = binding.fu_instances_used[count_key];
      binding.fu_instances_used[count_key] = std::max(prev, chosen + 1);
    }
  }

  // ---- register binding (left-edge over state-index lifetimes) ----------
  // A variable's lifetime is approximated by the span of states where it
  // is defined or read; state indices follow the scheduler's emission
  // order, which tracks program order.
  struct Life {
    std::string var;
    int lo = 1 << 30;
    int hi = -1;
  };
  std::map<std::string, Life> lives;
  for (size_t s = 0; s < stg.num_states(); ++s) {
    for (const auto& op : stg.state(static_cast<int>(s)).ops) {
      auto touch = [&](std::string_view v) {
        Life& l = lives[std::string(v)];
        l.var = v;
        l.lo = std::min(l.lo, static_cast<int>(s));
        l.hi = std::max(l.hi, static_cast<int>(s));
      };
      if (!op.def_var.empty()) touch(op.def_var);
      for (const stg::Operand& operand : op.operands)
        if (operand.kind() == stg::Operand::Kind::Reg) touch(operand.reg());
    }
  }
  std::vector<Life> sorted;
  sorted.reserve(lives.size());
  for (auto& [v, l] : lives) sorted.push_back(l);
  std::sort(sorted.begin(), sorted.end(), [](const Life& a, const Life& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.var < b.var;
  });
  std::vector<int> reg_free_at;  // register k is free after this state
  for (const Life& l : sorted) {
    int reg = -1;
    for (size_t k = 0; k < reg_free_at.size(); ++k) {
      if (reg_free_at[k] < l.lo) {
        reg = static_cast<int>(k);
        break;
      }
    }
    if (reg < 0) {
      reg = static_cast<int>(reg_free_at.size());
      reg_free_at.push_back(-1);
      Register r;
      r.name = strfmt("r%d", reg);
      binding.registers.push_back(std::move(r));
    }
    reg_free_at[static_cast<size_t>(reg)] = l.hi;
    binding.registers[static_cast<size_t>(reg)].variables.push_back(l.var);
  }

  // ---- mux statistics ----------------------------------------------------
  for (const auto& [type, instances] : port_sources) {
    for (size_t k = 0; k < instances.size(); ++k) {
      MuxStats m;
      m.fu_type = type;
      m.fu_instance = static_cast<int>(k);
      for (const auto& sources : instances[k])
        m.port_sources.push_back(static_cast<int>(sources.size()));
      binding.muxes.push_back(std::move(m));
    }
  }
  return binding;
}

}  // namespace fact::bind
