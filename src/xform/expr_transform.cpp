#include "xform/expr_transform.hpp"

#include "util/strfmt.hpp"

namespace fact::xform {

using ir::ExprPtr;
using ir::Op;

std::string Candidate::describe() const {
  std::string p;
  for (int i : path) p += strfmt("%d.", i);
  if (!p.empty()) p.pop_back();
  return strfmt("%s@s%d/%d[%s]v%d", transform.c_str(), stmt_id, slot,
                p.c_str(), variant);
}

std::vector<Candidate> ExprTransform::find(const ir::Function& fn,
                                           const std::set<int>& region) const {
  std::vector<Candidate> out;
  fn.for_each([&](const ir::Stmt& s) {
    if (!region.empty() && !region.count(s.id)) return;
    const auto slots = s.expr_slots();
    for (size_t k = 0; k < slots.size(); ++k) {
      std::vector<int> path;
      std::function<void(const ExprPtr&, std::optional<Op>)> walk =
          [&](const ExprPtr& e, std::optional<Op> parent) {
            for (int v : variants_at(e, parent)) {
              Candidate c;
              c.transform = name();
              c.stmt_id = s.id;
              c.slot = static_cast<int>(k);
              c.path = path;
              c.variant = v;
              out.push_back(std::move(c));
            }
            for (size_t i = 0; i < e->num_args(); ++i) {
              path.push_back(static_cast<int>(i));
              walk(e->arg(i), e->op());
              path.pop_back();
            }
          };
      walk(*slots[k], std::nullopt);
    }
  });
  return out;
}

ir::Function ExprTransform::apply(const ir::Function& fn,
                                  const Candidate& c) const {
  ir::Function g = fn.clone();
  ir::Stmt* s = g.edit(c.stmt_id);
  if (!s) throw Error("transform candidate references missing statement");
  auto slots = s->expr_slots();
  if (c.slot < 0 || static_cast<size_t>(c.slot) >= slots.size())
    throw Error("transform candidate references missing expression slot");
  ExprPtr root = *slots[static_cast<size_t>(c.slot)];
  ExprPtr target = ir::subexpr_at(root, c.path);
  if (!target) throw Error("transform candidate path invalid");
  ExprPtr replacement = rewrite(target, c.variant);
  *slots[static_cast<size_t>(c.slot)] = ir::replace_at(root, c.path, replacement);
  return g;
}

const Transform* TransformLibrary::find_transform(
    const std::string& name) const {
  for (const auto& t : transforms_)
    if (t->name() == name) return t.get();
  return nullptr;
}

std::vector<Candidate> TransformLibrary::find_all(
    const ir::Function& fn, const std::set<int>& region) const {
  std::vector<Candidate> out;
  for (const auto& t : transforms_) {
    auto found = t->find(fn, region);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

ir::Function TransformLibrary::apply(const ir::Function& fn,
                                     const Candidate& c) const {
  const Transform* t = find_transform(c.transform);
  if (!t) throw Error("unknown transform '" + c.transform + "'");
  return t->apply(fn, c);
}

TransformLibrary TransformLibrary::standard() {
  TransformLibrary lib;
  lib.add(make_commutativity());
  lib.add(make_associativity());
  lib.add(make_addsub_reassociation());
  lib.add(make_distributivity());
  lib.add(make_constant_folding());
  lib.add(make_constant_propagation());
  lib.add(make_code_motion());
  lib.add(make_loop_unrolling());
  lib.add(make_speculation());
  lib.add(make_select_fusion());
  lib.add(make_select_hoisting());
  lib.add(make_forward_substitution());
  lib.add(make_dead_code_elimination());
  lib.add(make_common_subexpression_elimination());
  return lib;
}

TransformLibrary TransformLibrary::algebraic_only() {
  TransformLibrary lib;
  lib.add(make_commutativity());
  lib.add(make_associativity());
  lib.add(make_addsub_reassociation());
  lib.add(make_distributivity());
  lib.add(make_constant_folding());
  return lib;
}

}  // namespace fact::xform
