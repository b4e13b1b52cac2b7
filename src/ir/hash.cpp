#include "ir/hash.hpp"

#include "ir/function.hpp"
#include "util/hash.hpp"

namespace fact::ir {

uint64_t structural_hash(const Stmt& s) {
  uint64_t h = hash_mix(0x57A7u, static_cast<uint64_t>(s.kind));
  h = hash_mix(h, s.target);
  // Only the populated slots are visited, but in a kind-dependent fixed
  // order, so together with `kind` the sequence is unambiguous.
  s.for_each_expr_slot([&](const ExprPtr& slot) {
    h = hash_mix(h, static_cast<uint64_t>(slot->hash()));
  });
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    // Length marker separates adjacent lists (then/else, etc.) so moving a
    // statement across the boundary changes the hash.
    h = hash_mix(h, 0xC0FFEEu + list.size());
    for (const auto& c : list) h = hash_mix(h, structural_hash(*c));
  });
  return h;
}

uint64_t fragment_hash(const Stmt& s) {
  uint64_t h = hash_mix(0xF4A6u, static_cast<uint64_t>(s.kind));
  h = hash_mix(h, static_cast<uint64_t>(static_cast<int64_t>(s.id)));
  h = hash_mix(h, s.target);
  s.for_each_expr_slot([&](const ExprPtr& slot) {
    h = hash_mix(h, static_cast<uint64_t>(slot->hash()));
  });
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    h = hash_mix(h, 0xC0FFEEu + list.size());
    for (const auto& c : list) h = hash_mix(h, fragment_hash(*c));
  });
  return h;
}

uint64_t structural_hash(const Function& fn) {
  uint64_t h = hash_mix(0xFAC7u, fn.name());
  h = hash_mix(h, 0x1000u + fn.params().size());
  for (const auto& p : fn.params()) h = hash_mix(h, p);
  h = hash_mix(h, 0x2000u + fn.arrays().size());
  for (const auto& a : fn.arrays()) {
    h = hash_mix(h, a.name);
    h = hash_mix(h, a.size);
    h = hash_mix(h, a.is_input ? 1u : 0u);
  }
  h = hash_mix(h, 0x3000u + fn.outputs().size());
  for (const auto& o : fn.outputs()) h = hash_mix(h, o);
  if (fn.body()) h = hash_mix(h, structural_hash(*fn.body()));
  return h;
}

}  // namespace fact::ir
