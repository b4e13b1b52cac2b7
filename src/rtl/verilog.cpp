#include "rtl/verilog.hpp"

#include <set>
#include <sstream>

#include "rtl/plan.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::rtl {

using stg::OpInstance;

namespace {

bool is_number(const std::string& t) {
  if (t.empty()) return false;
  size_t i = t[0] == '-' ? 1 : 0;
  if (i >= t.size()) return false;
  for (; i < t.size(); ++i)
    if (t[i] < '0' || t[i] > '9') return false;
  return true;
}

std::string literal(const std::string& t, int width) {
  if (!is_number(t)) return t;
  if (t[0] == '-') return strfmt("-%d'd%s", width, t.substr(1).c_str());
  return strfmt("%d'd%s", width, t.c_str());
}

/// Renders one operation as a blocking-assignment expression.
std::string render_op(const OpInstance& op, const std::vector<std::string>& src,
                      int width) {
  auto bin = [&](const char* tok) {
    return strfmt("%s %s %s", src[0].c_str(), tok, src[1].c_str());
  };
  auto cmp = [&](const char* tok) {
    return strfmt("($signed(%s) %s $signed(%s)) ? %d'd1 : %d'd0",
                  src[0].c_str(), tok, src[1].c_str(), width, width);
  };
  switch (op.op) {
    case ir::Op::Add: return bin("+");
    case ir::Op::Sub: return bin("-");
    case ir::Op::Mul: return bin("*");
    case ir::Op::Shl: return bin("<<");
    case ir::Op::Shr:
      return strfmt("$signed(%s) >>> %s", src[0].c_str(), src[1].c_str());
    case ir::Op::Lt: return cmp("<");
    case ir::Op::Le: return cmp("<=");
    case ir::Op::Gt: return cmp(">");
    case ir::Op::Ge: return cmp(">=");
    case ir::Op::Eq: return cmp("==");
    case ir::Op::Ne: return cmp("!=");
    case ir::Op::BitNot: return strfmt("~%s", src[0].c_str());
    case ir::Op::Not:
      return strfmt("(%s == %d'd0) ? %d'd1 : %d'd0", src[0].c_str(), width,
                    width, width);
    case ir::Op::And:
      return strfmt("((%s != %d'd0) && (%s != %d'd0)) ? %d'd1 : %d'd0",
                    src[0].c_str(), width, src[1].c_str(), width, width,
                    width);
    case ir::Op::Or:
      return strfmt("((%s != %d'd0) || (%s != %d'd0)) ? %d'd1 : %d'd0",
                    src[0].c_str(), width, src[1].c_str(), width, width,
                    width);
    case ir::Op::Select:
      return strfmt("(%s != %d'd0) ? %s : %s", src[0].c_str(), width,
                    src[1].c_str(), src[2].c_str());
    case ir::Op::Var:  // register copy / check point
      return src.empty() ? std::string("0") : src[0];
    case ir::Op::ArrayRead:
      return strfmt("mem_%s[%s]", std::string(op.array).c_str(),
                    src[0].c_str());
    default:
      throw Error("verilog: unsupported op");
  }
}

}  // namespace

std::string emit_verilog(const ir::Function& fn, const stg::Stg& stg,
                         const RtlOptions& opts) {
  const RtlPlan plan = build_rtl_plan(fn, stg);
  const int w = opts.width;
  const std::string name =
      opts.module_name.empty() ? fn.name() : opts.module_name;

  std::ostringstream out;
  out << "// Generated by FACT (DAC'98 reproduction) — schedule-accurate\n";
  out << "// behavioral FSM+datapath preview. See rtl/verilog.hpp for the\n";
  out << "// backend's documented scope.\n";
  out << "module " << name << " (\n";
  out << "  input  wire clk,\n  input  wire rst,\n";
  for (const auto& p : fn.params())
    out << strfmt("  input  wire [%d:0] %s%s,\n", w - 1,
                  plan.written_params.count(p) ? "in_" : "", p.c_str());
  for (const auto& o : fn.outputs())
    out << strfmt("  output wire [%d:0] out_%s,\n", w - 1, o.c_str());
  out << "  output reg done\n);\n\n";

  const size_t n_states = plan.states.size();
  int state_bits = 1;
  while ((1u << state_bits) < n_states) ++state_bits;
  out << strfmt("  reg [%d:0] state;\n", state_bits - 1);
  for (size_t s = 0; s < n_states; ++s)
    out << strfmt("  localparam S%zu = %d'd%zu;\n", s, state_bits, s);
  out << "\n";

  for (const auto& v : plan.vars) {
    if (plan.written_params.count(v)) {
      out << strfmt("  reg [%d:0] %s;  // latched from in_%s\n", w - 1,
                    v.c_str(), v.c_str());
    } else {
      out << strfmt("  reg [%d:0] %s;\n", w - 1, v.c_str());
    }
  }
  for (const auto& v : plan.shadowed)
    out << strfmt("  reg [%d:0] %s__pre;\n", w - 1, v.c_str());
  for (const auto& wr : plan.wires)
    out << strfmt("  reg [%d:0] %s;\n", w - 1, wr.c_str());
  for (const auto& a : fn.arrays())
    out << strfmt("  reg [%d:0] mem_%s [0:%zu];  // %s\n", w - 1,
                  a.name.c_str(), a.size - 1,
                  a.is_input ? "input memory (testbench preload)"
                             : "scratch memory");
  out << "\n";
  for (const auto& o : fn.outputs())
    out << strfmt("  assign out_%s = %s;\n", o.c_str(), o.c_str());

  std::string load_params;
  for (const auto& p : plan.written_params)
    load_params += strfmt(" %s = in_%s;", p.c_str(), p.c_str());

  out << "\n  always @(posedge clk) begin\n";
  out << "    done = 1'b0;\n";
  out << strfmt(
      "    if (rst) begin\n      state = S%d;%s\n    end else begin\n",
      plan.entry, load_params.c_str());
  out << "      case (state)\n";

  for (size_t s = 0; s < n_states; ++s) {
    const RtlState& st = plan.states[s];
    out << strfmt("        S%zu: begin\n", s);

    std::set<int> assigned_wires;
    for (const RtlStep& step : st.steps) {
      for (const auto& v : step.captures)
        out << strfmt("          %s__pre = %s;\n", v.c_str(), v.c_str());
      std::vector<std::string> src;
      src.reserve(step.srcs.size());
      for (const auto& tok : step.srcs) src.push_back(literal(tok, w));
      if (step.op.is_store) {
        out << strfmt("          mem_%s[%s] = %s;\n",
                      std::string(step.op.array).c_str(), src[0].c_str(),
                      src[1].c_str());
        continue;
      }
      // Duplicate wires from overlapped iterations re-evaluate harmlessly;
      // emit each once per state.
      if (!assigned_wires.insert(step.op.wire).second) continue;
      const std::string wire = stg::wire_name(step.op.wire);
      out << strfmt("          %s = %s;\n", wire.c_str(),
                    render_op(step.op, src, w).c_str());
      if (!step.op.def_var.empty())
        out << strfmt("          %s = %s;\n",
                      std::string(step.op.def_var).c_str(), wire.c_str());
    }

    auto action = [&](const RtlTransition& t) {
      std::string a = strfmt("state = S%d;", t.target);
      if (t.boundary) a += " done = 1'b1;" + load_params;
      return a;
    };
    if (st.transitions.size() == 1) {
      out << "          " << action(st.transitions[0]) << "\n";
    } else {
      for (size_t k = 0; k < st.transitions.size(); ++k) {
        const RtlTransition& t = st.transitions[k];
        if (t.signal.empty()) {
          out << "          else begin " << action(t) << " end\n";
        } else {
          out << strfmt("          %s (%s %s %d'd0) begin %s end\n",
                        k == 0 ? "if" : "else if", t.signal.c_str(),
                        t.on_true ? "!=" : "==", w, action(t).c_str());
        }
      }
    }
    out << "        end\n";
  }
  out << strfmt("        default: state = S%d;\n", plan.entry);
  out << "      endcase\n    end\n  end\n\nendmodule\n";
  return out.str();
}

}  // namespace fact::rtl
