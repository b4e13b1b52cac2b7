#include "ir/hash.hpp"

#include <functional>
#include <string>

#include "ir/function.hpp"

namespace fact::ir {

namespace {

/// Order-sensitive fold: splitmix64 finalizer over the value, mixed into
/// the running seed with a multiply so that permuted sequences disagree.
uint64_t mix(uint64_t seed, uint64_t v) {
  v += 0x9E3779B97F4A7C15ull;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
  v = (v ^ (v >> 27)) * 0x94D049BB133111EBull;
  v ^= v >> 31;
  return seed * 0x100000001B3ull ^ v;
}

uint64_t mix(uint64_t seed, const std::string& s) {
  return mix(seed, std::hash<std::string>{}(s));
}

}  // namespace

uint64_t structural_hash(const Stmt& s) {
  uint64_t h = mix(0x57A7u, static_cast<uint64_t>(s.kind));
  h = mix(h, s.target);
  // Only the populated slots are visited, but in a kind-dependent fixed
  // order, so together with `kind` the sequence is unambiguous.
  s.for_each_expr_slot([&](const ExprPtr& slot) {
    h = mix(h, static_cast<uint64_t>(slot->hash()));
  });
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    // Length marker separates adjacent lists (then/else, etc.) so moving a
    // statement across the boundary changes the hash.
    h = mix(h, 0xC0FFEEu + list.size());
    for (const auto& c : list) h = mix(h, structural_hash(*c));
  });
  return h;
}

uint64_t fragment_hash(const Stmt& s) {
  uint64_t h = mix(0xF4A6u, static_cast<uint64_t>(s.kind));
  h = mix(h, static_cast<uint64_t>(static_cast<int64_t>(s.id)));
  h = mix(h, s.target);
  s.for_each_expr_slot([&](const ExprPtr& slot) {
    h = mix(h, static_cast<uint64_t>(slot->hash()));
  });
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    h = mix(h, 0xC0FFEEu + list.size());
    for (const auto& c : list) h = mix(h, fragment_hash(*c));
  });
  return h;
}

uint64_t structural_hash(const Function& fn) {
  uint64_t h = mix(0xFAC7u, fn.name());
  h = mix(h, 0x1000u + fn.params().size());
  for (const auto& p : fn.params()) h = mix(h, p);
  h = mix(h, 0x2000u + fn.arrays().size());
  for (const auto& a : fn.arrays()) {
    h = mix(h, a.name);
    h = mix(h, a.size);
    h = mix(h, a.is_input ? 1u : 0u);
  }
  h = mix(h, 0x3000u + fn.outputs().size());
  for (const auto& o : fn.outputs()) h = mix(h, o);
  if (fn.body()) h = mix(h, structural_hash(*fn.body()));
  return h;
}

}  // namespace fact::ir
