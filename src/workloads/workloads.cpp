#include "workloads/workloads.hpp"

#include "lang/parser.hpp"
#include "util/error.hpp"

namespace fact::workloads {

namespace {

sim::InputSpec uniform(int64_t lo, int64_t hi) {
  sim::InputSpec s;
  s.kind = sim::InputSpec::Kind::Uniform;
  s.lo = lo;
  s.hi = hi;
  return s;
}

sim::InputSpec gaussian(double mean, double stddev, double rho, int64_t lo,
                        int64_t hi) {
  sim::InputSpec s;
  s.kind = sim::InputSpec::Kind::Gaussian;
  s.mean = mean;
  s.stddev = stddev;
  s.rho = rho;
  s.lo = lo;
  s.hi = hi;
  return s;
}

Workload make(const std::string& name, const std::string& source,
              hlslib::Allocation alloc, sim::TraceConfig trace) {
  Workload w;
  w.name = name;
  w.source = source;
  w.fn = lang::parse_function(source);
  w.allocation = std::move(alloc);
  w.trace = std::move(trace);
  return w;
}

}  // namespace

Workload make_gcd() {
  const std::string src = R"(
GCD(int a, int b) {
  while (a != b) {
    if (a > b) { a = a - b; } else { b = b - a; }
  }
  output a;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"sb1", 2}, {"cp1", 1}, {"e1", 1}};
  sim::TraceConfig tc;
  tc.params["a"] = uniform(1, 96);
  tc.params["b"] = uniform(1, 96);
  tc.executions = 24;
  return make("GCD", src, alloc, tc);
}

Workload make_fir() {
  // 8-tap FIR over 16 samples. Loop counters are FSM counters (Table 3
  // allocates no comparator); tap indexing uses the subtracters.
  const std::string src = R"(
FIR(int gain) {
  input int x[24];
  input int c[8];
  int y[16];
  int n = 8;
  while (n < 24) {
    int acc = 0;
    int k = 7;
    while (k >= 0) {
      acc = acc + c[k] * x[n - k];
      k = k - 1;
    }
    y[n - 8] = acc;
    n = n + 1;
  }
  output acc;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"a1", 1}, {"sb1", 4}, {"mt1", 1}, {"n1", 4}};
  sim::TraceConfig tc;
  tc.arrays["x"] = gaussian(0.0, 64.0, 0.9, -255, 255);
  tc.arrays["c"] = gaussian(0.0, 16.0, 0.0, -63, 63);
  tc.params["gain"] = uniform(1, 4);
  tc.executions = 16;
  return make("FIR", src, alloc, tc);
}

Workload make_test2() {
  // Figure 2(a): three independent loops; L1 and L2 stream one addition
  // each, L3 computes (y1+y2)-(y3+y4). All three can share the datapath,
  // which is what concurrent-loop scheduling and the Example 2 rewrite
  // exploit.
  const std::string src = R"(
TEST2(int a0, int b0) {
  input int x[200];
  int x1[200];
  input int z[400];
  int z1[400];
  input int y1[300];
  input int y2[300];
  input int y3[300];
  input int y4[300];
  int y[300];
  int i = 0;
  int j = 0;
  int m = 0;
  while (i < 200) {
    x1[i] = x[i] + a0;
    i = i + 1;
  }
  while (j < 400) {
    z1[j] = z[j] + b0;
    j = j + 1;
  }
  while (m < 300) {
    y[m] = (y1[m] + y2[m]) - (y3[m] + y4[m]);
    m = m + 1;
  }
  output m;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"a1", 2}, {"sb1", 2}, {"cp1", 2}, {"i1", 2}};
  sim::TraceConfig tc;
  tc.params["a0"] = gaussian(0.0, 32.0, 0.5, -127, 127);
  tc.params["b0"] = gaussian(0.0, 32.0, 0.5, -127, 127);
  for (const char* arr : {"x", "z", "y1", "y2", "y3", "y4"})
    tc.arrays[arr] = gaussian(0.0, 64.0, 0.9, -255, 255);
  tc.executions = 4;  // long executions; a few suffice for stable profiles
  return make("TEST2", src, alloc, tc);
}

Workload make_sintran() {
  // Sine transform with data-dependent sign handling: the inner-loop
  // conditional makes this control-flow intensive; s holds the sampled
  // sine table (signed), c is a comparison threshold input.
  const std::string src = R"(
SINTRAN(int c) {
  input int x[16];
  input int s[64];
  int y[16];
  int k = 0;
  while (k < 16) {
    int acc = 0;
    int j = 0;
    while (j < 16) {
      int w = s[j * k];
      if (w > c) {
        acc = acc + x[j] * w;
      } else {
        acc = acc - x[j] * w;
      }
      j = j + 1;
    }
    y[k] = acc;
    k = k + 1;
  }
  output acc;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"a1", 4}, {"sb1", 4}, {"mt1", 5},
                  {"cp1", 1}, {"i1", 1},  {"n1", 2}};
  sim::TraceConfig tc;
  tc.params["c"] = uniform(-16, 16);
  tc.arrays["x"] = gaussian(0.0, 32.0, 0.8, -127, 127);
  tc.arrays["s"] = gaussian(0.0, 48.0, 0.0, -127, 127);
  tc.executions = 8;
  return make("SINTRAN", src, alloc, tc);
}

Workload make_igf() {
  // Incomplete gamma function, Q10 fixed point: the series
  // term_{n+1} = term_n * xv * r[n] with a convergence test and a
  // data-dependent renormalization branch. r is a reciprocal table input.
  const std::string src = R"(
IGF(int xv, int eps, int big) {
  input int r[32];
  int sum = 1024;
  int term = 1024;
  int n = 0;
  int f = 0;
  while (term > eps) {
    term = (term * xv) >> 10;
    term = (term * r[n]) >> 10;
    if (term > big) {
      term = term >> 2;
      f = f + 1;
    } else {
      sum = sum + term;
    }
    n = n + 1;
  }
  output sum;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"a1", 1}, {"sb1", 1}, {"mt1", 2},
                  {"cp1", 1}, {"i1", 1},  {"s1", 1}};
  sim::TraceConfig tc;
  tc.params["xv"] = uniform(512, 900);    // x < 1 in Q10: series converges
  tc.params["eps"] = uniform(4, 16);
  tc.params["big"] = uniform(1400, 4096);
  tc.arrays["r"] = uniform(256, 1023);    // 1/(a+n) in Q10, decreasing-ish
  tc.executions = 24;
  return make("IGF", src, alloc, tc);
}

Workload make_pps() {
  // Parallel prefix sum: a pure reduction whose authored form is the
  // worst-case serial chain; associativity re-balancing recovers the
  // parallel-prefix shape. Only adders are allocated (Table 3).
  const std::string src = R"(
PPS(int x0, int x1, int x2, int x3, int x4, int x5, int x6, int x7) {
  int p = x0 + x1 + x2 + x3;
  int s = p + x4 + x5 + x6 + x7;
  output p;
  output s;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"a1", 5}};
  sim::TraceConfig tc;
  for (int i = 0; i < 8; ++i) {
    std::string x = "x";
    x += std::to_string(i);
    tc.params[x] = gaussian(0.0, 64.0, 0.7, -255, 255);
  }
  tc.executions = 8;
  return make("PPS", src, alloc, tc);
}

Workload make_test1() {
  // Figure 1(a), verbatim modulo syntax. Uses the Table 1 library
  // (comp1/cla1/incr1/w_mult1/mem1): two comparators, two adders, one
  // incrementer, one multiplier.
  const std::string src = R"(
TEST1(int c1, int c2) {
  int x[64];
  int i = 0;
  int a = 0;
  while (c2 > i) {
    if (i < c1) {
      int t1 = a + 7;
      a = 13 * t1;
    } else {
      a = a + 17;
    }
    i = i + 1;
    x[i] = a;
  }
  output a;
}
)";
  hlslib::Allocation alloc;
  alloc.counts = {{"comp1", 2}, {"cla1", 2}, {"incr1", 1}, {"w_mult1", 1}};
  sim::TraceConfig tc;
  // Chosen so the while closes with p ~ 0.98 and the if takes its then
  // branch with p ~ 0.37, as in Example 1.
  tc.params["c2"] = uniform(40, 60);
  tc.params["c1"] = uniform(14, 22);
  tc.executions = 32;
  return make("TEST1", src, alloc, tc);
}

std::vector<Workload> table2_benchmarks() {
  std::vector<Workload> v;
  v.push_back(make_gcd());
  v.push_back(make_fir());
  v.push_back(make_test2());
  v.push_back(make_sintran());
  v.push_back(make_igf());
  v.push_back(make_pps());
  return v;
}

Workload by_name(const std::string& name) {
  for (auto& w : table2_benchmarks())
    if (w.name == name) return std::move(w);
  if (name == "TEST1") return make_test1();
  throw Error("unknown workload '" + name + "'");
}

}  // namespace fact::workloads
