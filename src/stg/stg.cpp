#include "stg/stg.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/dot.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace fact::stg {

std::string wire_name(int n) {
  char buf[16];
  buf[0] = 'w';
  const char* end = std::to_chars(buf + 1, buf + sizeof buf, n).ptr;
  return std::string(buf, static_cast<size_t>(end - buf));
}

std::string Operand::str() const {
  switch (kind_) {
    case Kind::Wire:
      return wire_name(wire());
    case Kind::Reg:
      return std::string(reg());
    case Kind::Literal:
      break;
  }
  return std::to_string(literal());
}

std::string op_label(ir::Op op, bool is_store, std::string_view array,
                     std::string_view def_var) {
  std::string label;
  if (!def_var.empty()) {
    label.assign(def_var);
    label += '=';
  }
  if (is_store) {
    label.append(array);
    label += "[]=";
  } else if (op == ir::Op::ArrayRead) {
    label.append(array);
    label += "[]";
  } else if (op == ir::Op::Var) {
    // A register copy defines its variable; the only other register-read
    // node is the check point of a bare-variable condition.
    label += def_var.empty() ? "chk" : "cp";
  } else {
    label += ir::op_token(op);
  }
  return label;
}

int Stg::add_state(const std::string& name) {
  State& s = states_.emplace_back();
  if (name.empty()) {
    char buf[24];
    buf[0] = 'S';
    const char* end =
        std::to_chars(buf + 1, buf + sizeof buf, states_.size() - 1).ptr;
    s.name.assign(buf, static_cast<size_t>(end - buf));
  } else {
    s.name = name;
  }
  return static_cast<int>(states_.size()) - 1;
}

int Stg::add_edge(int from, int to, double prob, const std::string& cond_label,
                  bool exec_boundary) {
  if (from < 0 || static_cast<size_t>(from) >= states_.size() || to < 0 ||
      static_cast<size_t>(to) >= states_.size())
    throw Error("Stg::add_edge: state index out of range");
  Edge e;
  e.from = from;
  e.to = to;
  e.prob = prob;
  e.cond_label = cond_label;
  e.exec_boundary = exec_boundary;
  edges_.push_back(std::move(e));
  const int idx = static_cast<int>(edges_.size()) - 1;
  states_[static_cast<size_t>(from)].out_edges.push_back(idx);
  return idx;
}

namespace {

/// Working storage of a structure check, per thread and reused across
/// calls.
struct CheckScratch {
  std::vector<int> listed;    // per edge: how many out-edge lists hold it
  std::vector<uint32_t> off;  // out-edges of state s: out[off[s] .. off[s+1])
  std::vector<uint32_t> out;  // edge indices, in edge order per state
  std::vector<char> seen;
  std::vector<int> work;
};

/// The structural checks of a chain (`states` null, state s named "S<s>")
/// or of an Stg (its states, named, with their out-edge lists). `E` is
/// ChainEdge or Edge.
template <typename E>
std::vector<StructureIssue> check_structure(
    size_t n, int entry, const std::vector<E>& edges,
    const std::vector<State>* states) {
  std::vector<StructureIssue> issues;
  const auto add = [&](const char* check, std::string detail) {
    issues.push_back({check, std::move(detail)});
  };
  const auto name = [states](size_t s) {
    return states ? (*states)[s].name : strfmt("S%zu", s);
  };
  const auto is_state = [n](int s) {
    return s >= 0 && static_cast<size_t>(s) < n;
  };
  if (n == 0) {
    add("stg.empty", "STG has no states");
    return issues;
  }
  if (!is_state(entry))
    add("stg.entry", strfmt("STG entry state %d out of range", entry));

  // An Stg's out-edge lists must agree exactly with the edge table: every
  // edge is listed once, by its own from-state. A mismatch means some
  // mutation bypassed add_edge and every downstream analysis would
  // silently skew.
  thread_local CheckScratch sc;
  if (states) {
    sc.listed.assign(edges.size(), 0);
    for (size_t s = 0; s < n; ++s) {
      for (int ei : (*states)[s].out_edges) {
        if (ei < 0 || static_cast<size_t>(ei) >= edges.size()) {
          add("stg.edges", strfmt("STG state '%s' indexes nonexistent edge %d",
                                  name(s).c_str(), ei));
          continue;
        }
        sc.listed[static_cast<size_t>(ei)]++;
        if (edges[static_cast<size_t>(ei)].from != static_cast<int>(s))
          add("stg.edges",
              strfmt("STG state '%s' lists edge %d, which leaves state %d",
                     name(s).c_str(), ei, edges[static_cast<size_t>(ei)].from));
      }
    }
  }
  for (size_t ei = 0; ei < edges.size(); ++ei) {
    const E& e = edges[ei];
    if (!is_state(e.from) || !is_state(e.to)) {
      add("stg.edges", strfmt("STG edge %zu has dangling endpoints %d->%d", ei,
                              e.from, e.to));
      continue;
    }
    if (states && sc.listed[ei] != 1)
      add("stg.edges", strfmt("STG edge %zu appears %d time(s) in out-edge lists",
                              ei, sc.listed[ei]));
    if (e.prob < -1e-9 || e.prob > 1.0 + 1e-9)
      add("stg.prob",
          strfmt("STG edge %s->%s has probability %g out of [0,1]",
                 name(static_cast<size_t>(e.from)).c_str(),
                 name(static_cast<size_t>(e.to)).c_str(), e.prob));
  }
  if (!issues.empty()) return issues;  // the checks below would misreport

  sc.off.assign(n + 1, 0);
  for (const E& e : edges) ++sc.off[static_cast<size_t>(e.from) + 1];
  for (size_t s = 0; s < n; ++s) sc.off[s + 1] += sc.off[s];
  sc.out.resize(edges.size());
  // Filling advances off[s] to off[s + 1]; the shift restores it.
  for (size_t ei = 0; ei < edges.size(); ++ei)
    sc.out[sc.off[static_cast<size_t>(edges[ei].from)]++] =
        static_cast<uint32_t>(ei);
  for (size_t s = n; s > 0; --s) sc.off[s] = sc.off[s - 1];
  sc.off[0] = 0;

  bool has_boundary = false;
  for (size_t s = 0; s < n; ++s) {
    if (sc.off[s] == sc.off[s + 1]) {
      add("stg.edges",
          strfmt("STG state '%s' has no outgoing edge", name(s).c_str()));
      continue;
    }
    double sum = 0.0;
    for (uint32_t k = sc.off[s]; k < sc.off[s + 1]; ++k) {
      sum += edges[sc.out[k]].prob;
      if (edges[sc.out[k]].exec_boundary) has_boundary = true;
    }
    if (std::fabs(sum - 1.0) > 1e-6)
      add("stg.prob", strfmt("STG state '%s' outgoing probabilities sum to %g",
                             name(s).c_str(), sum));
  }
  if (!has_boundary)
    add("stg.boundary", "STG has no execution-boundary edge");

  // Reachability from entry.
  sc.seen.assign(n, 0);
  sc.work.assign(1, entry);
  sc.seen[static_cast<size_t>(entry)] = 1;
  while (!sc.work.empty()) {
    const size_t s = static_cast<size_t>(sc.work.back());
    sc.work.pop_back();
    for (uint32_t k = sc.off[s]; k < sc.off[s + 1]; ++k) {
      const int t = edges[sc.out[k]].to;
      if (!sc.seen[static_cast<size_t>(t)]) {
        sc.seen[static_cast<size_t>(t)] = 1;
        sc.work.push_back(t);
      }
    }
  }
  for (size_t s = 0; s < n; ++s)
    if (!sc.seen[s])
      add("stg.reachable",
          strfmt("STG state '%s' unreachable from entry", name(s).c_str()));
  return issues;
}

/// Throws fact::Error with the first issue, if any.
void throw_first(const std::vector<StructureIssue>& issues) {
  if (!issues.empty()) throw Error(issues.front().detail);
}

}  // namespace

std::vector<StructureIssue> structure_issues(const Chain& chain) {
  return check_structure(chain.num_states(), chain.entry(), chain.edges(),
                         nullptr);
}

std::vector<StructureIssue> structure_issues(const Stg& stg) {
  return check_structure(stg.num_states(), stg.entry(), stg.edges(),
                         &stg.states());
}

void Stg::validate() const { throw_first(structure_issues(*this)); }

int Chain::add_edge(int from, int to, double prob, bool exec_boundary) {
  const size_t n = num_states();
  if (from < 0 || static_cast<size_t>(from) >= n || to < 0 ||
      static_cast<size_t>(to) >= n)
    throw Error("Chain::add_edge: state index out of range");
  edges_.push_back({from, to, prob, exec_boundary});
  return static_cast<int>(edges_.size()) - 1;
}

void Chain::clear() {
  fus.clear();
  states_.clear();
  edges_.clear();
  entry_ = 0;
}

void Chain::validate() const { throw_first(structure_issues(*this)); }

Chain Chain::of(const Stg& stg) {
  Chain c;
  c.entry_ = stg.entry();
  c.edges_.reserve(stg.num_edges());
  for (const Edge& e : stg.edges())
    c.edges_.push_back({e.from, e.to, e.prob, e.exec_boundary});
  // A state's ops counted per FU type, in type order; a design binds a
  // handful of types, so a linear scan interns each op's name. The
  // per-thread lists keep their storage, and the chain's are exact-size.
  thread_local std::vector<std::string_view> fus;
  thread_local std::vector<int> count;  // per FU type, of one state
  thread_local std::vector<FuCount> row;
  fus.clear();
  size_t ops = 0;
  for (const State& st : stg.states()) ops += st.ops.size();
  c.states_.reserve(stg.num_states(), ops);
  for (const State& st : stg.states()) {
    count.assign(fus.size(), 0);
    for (const OpInstance& op : st.ops) {
      if (op.fu_type.empty()) continue;
      const size_t f = static_cast<size_t>(
          std::find(fus.begin(), fus.end(), op.fu_type) - fus.begin());
      if (f == fus.size()) {
        fus.push_back(op.fu_type);
        count.push_back(0);
      }
      count[f]++;
    }
    row.clear();
    for (size_t f = 0; f < count.size(); ++f)
      if (count[f] > 0) row.push_back({static_cast<int>(f), count[f]});
    c.states_.push_back(row, st.reg_reads + st.reg_writes);
  }
  c.fus = fus;
  return c;
}

std::string Stg::dot(const std::string& graph_name) const {
  DotWriter w(graph_name);
  for (size_t i = 0; i < states_.size(); ++i) {
    const State& s = states_[i];
    std::string label = s.name;
    for (const auto& op : s.ops) {
      label += '\n';
      label += op.label();
      if (op.iteration != 0) label += strfmt("_%d", op.iteration);
    }
    w.node(strfmt("s%zu", i), label,
           i == static_cast<size_t>(entry_) ? "shape=doublecircle" : "shape=circle");
  }
  for (const Edge& e : edges_) {
    std::string label = strfmt("(%.2f)", e.prob);
    if (!e.cond_label.empty()) label = e.cond_label + " " + label;
    w.edge(strfmt("s%d", e.from), strfmt("s%d", e.to), label,
           e.exec_boundary ? "style=bold" : "");
  }
  return w.str();
}

namespace {

constexpr const char* kSingular =
    "state_probabilities: singular chain (STG not ergodic)";

/// Index of a state, an SCC, a class member or a pool entry. kNone ends a
/// list and marks a transient state.
using Ix = uint32_t;
constexpr Ix kNone = ~Ix{0};
Ix ix(int state) { return static_cast<Ix>(state); }

/// One off-diagonal transition p(from -> to) of the closed class, linked
/// into the row list of `from` and the column list of `to`.
struct Entry {
  Ix from;
  Ix to;
  double p;
  Ix next_out;  // next entry of row `from`
  Ix next_in;   // next entry of column `to`
};

/// Working storage of a solve. One per thread (engine workers solve
/// concurrently), reused across calls so that a warm solve allocates only
/// its result.
struct Scratch {
  std::vector<Ix> fwd_off, fwd, rev_off, rev;  // CSR adjacency (Kosaraju)
  std::vector<Ix> order, comp, dfs;            // post-order, SCC labels
  std::vector<std::pair<Ix, Ix>> stack;        // (state, next fwd slot)
  std::vector<char> closed;                    // per SCC
  std::vector<Ix> local;                       // state -> class member
  std::vector<Entry> pool;                     // entries; fill is appended
  std::vector<Ix> row, col;                    // list heads per member
  std::vector<Ix> where;                       // scatter of one row
  std::vector<double> x;                       // unnormalized pi per member

  /// Appends entry p(i -> j) to the pool and to both lists; returns it.
  Ix add(Ix i, Ix j, double p) {
    pool.push_back({i, j, p, row[i], col[j]});
    return row[i] = col[j] = static_cast<Ix>(pool.size() - 1);
  }
};

/// CSR adjacency over the positive-probability edges: the neighbours of
/// state s are adj[off[s] .. off[s + 1]), its successors when `forward`,
/// else its predecessors, in edge order.
void csr(const Chain& chain, bool forward, std::vector<Ix>& off,
         std::vector<Ix>& adj) {
  const Ix n = static_cast<Ix>(chain.num_states());
  off.assign(n + 1, 0);
  for (const ChainEdge& e : chain.edges())
    if (e.prob > 0.0) ++off[ix(forward ? e.from : e.to) + 1];
  for (Ix s = 0; s < n; ++s) off[s + 1] += off[s];
  adj.resize(off[n]);
  // Filling advances off[s] to off[s + 1]; the shift restores it.
  for (const ChainEdge& e : chain.edges())
    if (e.prob > 0.0)
      adj[off[ix(forward ? e.from : e.to)]++] = ix(forward ? e.to : e.from);
  for (Ix s = n; s > 0; --s) off[s] = off[s - 1];
  off[0] = 0;
}

/// Finds the chain's closed communicating class by Kosaraju's algorithm
/// over the positive-probability edges (iterative, so deep chains cannot
/// overflow the stack). Sets sc.local[s] to state s's index within the
/// class, members numbered in state-index order, or to kNone for a
/// transient state, and returns the class size. Throws unless exactly one
/// class is closed: the condition under which pi P = pi, sum pi = 1 has a
/// unique solution.
Ix closed_class(const Chain& chain, Scratch& sc) {
  const Ix n = static_cast<Ix>(chain.num_states());
  csr(chain, true, sc.fwd_off, sc.fwd);
  csr(chain, false, sc.rev_off, sc.rev);

  // Pass 1: DFS post-order over the forward edges. comp is kNone for
  // unseen states and kSeen for seen ones.
  constexpr Ix kSeen = kNone - 1;
  sc.order.clear();
  sc.comp.assign(n, kNone);
  for (Ix root = 0; root < n; ++root) {
    if (sc.comp[root] != kNone) continue;
    sc.comp[root] = kSeen;
    sc.stack.emplace_back(root, sc.fwd_off[root]);
    while (!sc.stack.empty()) {
      auto& [s, next] = sc.stack.back();
      if (next == sc.fwd_off[s + 1]) {
        sc.order.push_back(s);
        sc.stack.pop_back();
        continue;
      }
      const Ix t = sc.fwd[next++];
      if (sc.comp[t] == kNone) {
        sc.comp[t] = kSeen;
        sc.stack.emplace_back(t, sc.fwd_off[t]);
      }
    }
  }

  // Pass 2: sweep reverse post-order over the incoming edges; each sweep
  // labels one SCC.
  Ix num_comps = 0;
  for (Ix i = n; i-- > 0;) {
    const Ix root = sc.order[i];
    if (sc.comp[root] != kSeen) continue;
    const Ix c = num_comps++;
    sc.comp[root] = c;
    sc.dfs.assign(1, root);
    while (!sc.dfs.empty()) {
      const Ix s = sc.dfs.back();
      sc.dfs.pop_back();
      for (Ix k = sc.rev_off[s]; k < sc.rev_off[s + 1]; ++k) {
        const Ix t = sc.rev[k];
        if (sc.comp[t] == kSeen) {
          sc.comp[t] = c;
          sc.dfs.push_back(t);
        }
      }
    }
  }

  // A class is closed when no edge leaves it for another class.
  sc.closed.assign(num_comps, 1);
  for (const ChainEdge& e : chain.edges())
    if (e.prob > 0.0 && sc.comp[ix(e.from)] != sc.comp[ix(e.to)])
      sc.closed[sc.comp[ix(e.from)]] = 0;
  Ix closed = kNone;
  for (Ix c = 0; c < num_comps; ++c) {
    if (!sc.closed[c]) continue;
    if (closed != kNone) throw Error(kSingular);
    closed = c;
  }
  if (closed == kNone) throw Error(kSingular);

  Ix m = 0;
  sc.local.resize(n);
  for (Ix s = 0; s < n; ++s) sc.local[s] = sc.comp[s] == closed ? m++ : kNone;
  return m;
}

}  // namespace

std::vector<double> state_probabilities(const Chain& chain) {
  obs::Span span = obs::span("markov", "stg");
  static obs::Counter& solves = obs::Registry::global().counter(
      "fact_markov_solves_total", "Stationary-distribution solves");
  solves.inc();
  thread_local Scratch sc;
  const Ix m = closed_class(chain, sc);

  // The class's off-diagonal transitions; GTH never reads the diagonal.
  sc.pool.clear();
  sc.row.assign(m, kNone);
  sc.col.assign(m, kNone);
  for (const ChainEdge& e : chain.edges()) {
    const Ix i = sc.local[ix(e.from)];
    if (i != kNone && e.prob > 0.0 && e.from != e.to)
      sc.add(i, sc.local[ix(e.to)], e.prob);
  }

  // Eliminate members m-1 .. 1. Censoring the chain to members 0..k-1
  // turns p(i,j) into p(i,j) + p(i,k) p(k,j) / s, where s, the sum of
  // p(k,j) over j < k, is 1 - p(k,k) computed without a subtraction.
  // Column k keeps p(i,k) / s for the back-substitution.
  sc.where.assign(m, kNone);
  for (Ix k = m - 1; k > 0; --k) {
    double s = 0.0;
    for (Ix e = sc.row[k]; e != kNone; e = sc.pool[e].next_out)
      if (sc.pool[e].to < k) s += sc.pool[e].p;
    for (Ix c = sc.col[k]; c != kNone; c = sc.pool[c].next_in) {
      const Ix i = sc.pool[c].from;
      if (i > k) continue;  // eliminated already
      const double a = sc.pool[c].p /= s;
      // Scatter row i, unlinking its entries into members >= k (no later
      // step reads them through the row), then add a * row k to it. An
      // entry of column j < k is in row i exactly when its source is i.
      for (Ix* link = &sc.row[i]; *link != kNone;) {
        Entry& en = sc.pool[*link];
        if (en.to >= k) {
          *link = en.next_out;
          continue;
        }
        sc.where[en.to] = *link;
        link = &en.next_out;
      }
      for (Ix e = sc.row[k]; e != kNone; e = sc.pool[e].next_out) {
        const Ix j = sc.pool[e].to;
        if (j >= k || j == i) continue;
        const double v = a * sc.pool[e].p;
        const Ix w = sc.where[j];
        if (w != kNone && sc.pool[w].from == i)
          sc.pool[w].p += v;
        else
          sc.where[j] = sc.add(i, j, v);
      }
    }
  }

  // Back-substitution: x(k) is the sum over i < k of x(i) p(i,k) / s(k).
  sc.x.assign(m, 0.0);
  sc.x[0] = 1.0;
  double total = 1.0;
  for (Ix k = 1; k < m; ++k) {
    double v = 0.0;
    for (Ix c = sc.col[k]; c != kNone; c = sc.pool[c].next_in)
      if (sc.pool[c].from < k) v += sc.x[sc.pool[c].from] * sc.pool[c].p;
    sc.x[k] = v;
    total += v;
  }
  std::vector<double> pi(chain.num_states(), 0.0);
  for (size_t s = 0; s < pi.size(); ++s)
    if (sc.local[s] != kNone) pi[s] = sc.x[sc.local[s]] / total;
  return pi;
}

std::vector<double> state_probabilities(const Stg& stg) {
  return state_probabilities(Chain::of(stg));
}

double average_schedule_length(const Chain& chain,
                               const std::vector<double>& pi) {
  double boundary_rate = 0.0;
  for (const ChainEdge& e : chain.edges())
    if (e.exec_boundary)
      boundary_rate += pi[static_cast<size_t>(e.from)] * e.prob;
  if (boundary_rate <= 0.0)
    throw Error("average_schedule_length: no reachable execution boundary");
  return 1.0 / boundary_rate;
}

double average_schedule_length(const Stg& stg) {
  const Chain chain = Chain::of(stg);
  return average_schedule_length(chain, state_probabilities(chain));
}

double average_schedule_length(const Stg& stg, const std::vector<double>& pi) {
  return average_schedule_length(Chain::of(stg), pi);
}

}  // namespace fact::stg
