#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace fact {

/// Deterministic xorshift64* pseudo-random generator. All stochastic parts
/// of the library (trace generation, candidate selection in the optimizer)
/// take an explicit Rng so that every run is reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull)
      : state_(seed ? seed : 1) {}

  /// Raw 64 random bits.
  uint64_t next() {
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1Dull;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t uniform_int(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
  }

  /// Standard normal deviate (Box-Muller, one value per call; the spare is
  /// cached).
  double gaussian() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586476925286766559 * u2;
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
  }

 private:
  uint64_t state_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// First-order autoregressive filter. The paper derives power-estimation
/// inputs from "a zero-mean Gaussian sequence ... passed through an
/// autoregressive filter to introduce the desired level of temporal
/// correlation" (Section 5); this class is that filter.
class Ar1Filter {
 public:
  /// rho in (-1, 1) is the lag-1 correlation of the output sequence.
  explicit Ar1Filter(double rho) : rho_(rho) {}

  double step(double white) {
    // Scale the innovation so the output variance matches the input's.
    prev_ = rho_ * prev_ + std::sqrt(1.0 - rho_ * rho_) * white;
    return prev_;
  }

  void reset() { prev_ = 0.0; }

 private:
  double rho_;
  double prev_ = 0.0;
};

/// Generates a temporally-correlated integer sequence: zero-mean Gaussian
/// white noise -> AR(1) filter -> affine map -> rounding. Used to produce
/// the "typical input traces" every experiment consumes.
std::vector<int64_t> correlated_trace(Rng& rng, size_t n, double rho,
                                      double mean, double stddev);

}  // namespace fact
