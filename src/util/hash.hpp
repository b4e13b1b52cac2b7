#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

namespace fact {

/// Order-sensitive fold: splitmix64 finalizer over the value, mixed into
/// the running seed with a multiply so that permuted sequences disagree.
/// The one fold behind every 64-bit digest the program computes (the
/// structural and fragment hashes, fragment-cache keys, DFG value numbers,
/// the evaluation context); ir::structural_hash's pinned values depend on
/// it staying exactly this.
inline uint64_t hash_mix(uint64_t seed, uint64_t v) {
  v += 0x9E3779B97F4A7C15ull;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
  v = (v ^ (v >> 27)) * 0x94D049BB133111EBull;
  v ^= v >> 31;
  return seed * 0x100000001B3ull ^ v;
}

inline uint64_t hash_mix(uint64_t seed, std::string_view s) {
  return hash_mix(seed, std::hash<std::string_view>{}(s));
}

}  // namespace fact
