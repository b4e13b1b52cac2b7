// Host measurements: process CPU time and peak memory from getrusage, and
// the spin-loop calibration of how many cores the host actually grants.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace factbench {

namespace {

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so under a larger parent (the Python runner) it reports the
  // parent's footprint instead of this program's.
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// A fixed amount of integer work the compiler cannot fold away.
uint64_t spin(uint64_t iters) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
  return x;
}

double spin_ms(uint64_t iters) {
  const double t0 = now_s();
  volatile uint64_t sink = spin(iters);
  (void)sink;
  return 1000.0 * (now_s() - t0);
}

}  // namespace

HostCalibration calibrate_host() {
  HostCalibration h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? std::max(1, CPU_COUNT(&set))
                : std::max(1u, std::thread::hardware_concurrency());
  // About 20 ms of work per thread: long enough to span scheduler ticks,
  // short enough to run on every benchmark invocation.
  constexpr uint64_t kIters = 20'000'000;
  h.spin_ms_1 = std::min({spin_ms(kIters), spin_ms(kIters), spin_ms(kIters)});
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int i = 0; i < h.nproc; ++i)
    threads.emplace_back([] { spin_ms(kIters); });
  for (auto& t : threads) t.join();
  h.spin_ms_n = 1000.0 * (now_s() - t0);
  h.effective_cores =
      h.spin_ms_n > 0.0 ? h.nproc * h.spin_ms_1 / h.spin_ms_n : 0.0;
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double> tail_percentile(std::vector<double> v,
                                          size_t beyond) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t k = n > beyond ? n - beyond - 1 : 0;
  return {100.0 * static_cast<double>(k + 1) / static_cast<double>(n), v[k]};
}

double geomean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  // Summed in sorted order, so the result does not depend on the order the
  // seed put the programs in, down to the last bit.
  std::sort(v.begin(), v.end());
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::map<std::string, uint64_t> registry_counters() {
  std::map<std::string, uint64_t> out;
  for (const auto& m : fact::obs::Registry::global().snapshot().metrics)
    if (m.kind == fact::obs::MetricSnapshot::Kind::Counter)
      out[m.name] = m.counter_value;
  return out;
}

}  // namespace factbench
