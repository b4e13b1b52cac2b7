#include "util/rng.hpp"

namespace fact {

std::vector<int64_t> correlated_trace(Rng& rng, size_t n, double rho,
                                      double mean, double stddev) {
  Ar1Filter filter(rho);
  std::vector<int64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double v = mean + stddev * filter.step(rng.gaussian());
    out.push_back(static_cast<int64_t>(std::llround(v)));
  }
  return out;
}

}  // namespace fact
