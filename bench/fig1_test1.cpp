// Reproduces Figure 1: the TEST1 behavior (a), its CDFG (b), and the STG
// of its schedule (c), with per-state operation annotations (iteration
// tags included) and transition probabilities. DOT renderings of both
// graphs are written next to the binary.

#include <cstdio>
#include <fstream>

#include "bench_util.hpp"
#include "cdfg/cdfg.hpp"

int main() {
  using namespace fact;
  const workloads::Workload w = workloads::make_test1();
  const auto lib = hlslib::Library::table1();
  const auto sel = hlslib::FuSelection::defaults(lib);

  printf("Figure 1(a): TEST1 source\n");
  bench::rule();
  printf("%s\n", w.source.c_str());

  const cdfg::Cdfg graph = cdfg::Cdfg::from_function(w.fn);
  size_t joins = 0, selects = 0, ops = 0;
  for (const auto& n : graph.nodes()) {
    if (n.kind == cdfg::NodeKind::Join) joins++;
    if (n.kind == cdfg::NodeKind::Select) selects++;
    if (n.kind == cdfg::NodeKind::Op) ops++;
  }
  printf("Figure 1(b): CDFG — %zu nodes (%zu ops, %zu joins, %zu selects)\n",
         graph.size(), ops, joins, selects);
  std::ofstream("fig1_test1_cdfg.dot") << graph.dot("test1_cdfg");
  printf("  (written to fig1_test1_cdfg.dot)\n\n");

  const sim::Trace trace = sim::generate_trace(w.fn, w.trace, 7);
  const sim::Profile profile = sim::profile_function(w.fn, trace);
  int while_id = -1, if_id = -1;
  w.fn.for_each([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::While) while_id = s.id;
    if (s.kind == ir::StmtKind::If) if_id = s.id;
  });
  printf("Profiled branch probabilities (paper: while closes 0.98, if 0.37):\n");
  printf("  while (c2 > i) closes with p = %.3f\n", profile.branch_prob(while_id));
  printf("  if (i < c1) taken with    p = %.3f\n\n", profile.branch_prob(if_id));

  sched::Scheduler scheduler(lib, w.allocation, sel, {});
  const sched::ScheduleResult sr = scheduler.schedule(w.fn, profile);
  const auto pi = stg::state_probabilities(sr.stg);

  printf("Figure 1(c): STG of the schedule — %zu states\n",
         sr.stg.num_states());
  bench::rule();
  for (size_t s = 0; s < sr.stg.num_states(); ++s) {
    const stg::State& st = sr.stg.state(static_cast<int>(s));
    printf("S%-2zu  pi=%.3f  ops:", s, pi[s]);
    if (st.ops.empty()) printf(" (none)");
    for (const auto& op : st.ops) {
      printf(" %s", op.label().c_str());
      if (op.iteration != 0) printf("_%d", op.iteration);
    }
    printf("\n");
    for (int ei : st.out_edges) {
      const stg::Edge& e = sr.stg.edge(ei);
      printf("      -> S%d (%.2f)%s%s\n", e.to, e.prob,
             e.cond_label.empty() ? "" : (" " + e.cond_label).c_str(),
             e.exec_boundary ? " [execution boundary]" : "");
    }
  }
  std::ofstream("fig1_test1_stg.dot") << sr.stg.dot("test1_stg");
  printf("  (written to fig1_test1_stg.dot)\n");
  printf("\nAverage schedule length: %.2f cycles per execution\n",
         stg::average_schedule_length(sr.stg, pi));
  return 0;
}
