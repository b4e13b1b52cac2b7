#include "sched/region.hpp"

#include <cassert>

namespace fact::sched {

using ir::Stmt;
using ir::StmtKind;

namespace {

RegionPtr build_seq(const std::vector<ir::StmtPtr>& stmts);

void append_stmt_list(Region& seq, const std::vector<ir::StmtPtr>& stmts) {
  Region* open_straight = nullptr;
  auto straight = [&]() -> Region& {
    if (!open_straight) {
      auto r = std::make_unique<Region>();
      r->kind = Region::Kind::Straight;
      open_straight = r.get();
      seq.children.push_back(std::move(r));
    }
    return *open_straight;
  };

  for (const auto& s : stmts) {
    switch (s->kind) {
      case StmtKind::Assign:
      case StmtKind::Store:
        straight().stmts.push_back(s.get());
        break;
      case StmtKind::If: {
        open_straight = nullptr;
        auto r = std::make_unique<Region>();
        r->kind = Region::Kind::If;
        r->ctrl = s.get();
        r->children.push_back(build_seq(s->then_stmts));
        r->children.push_back(build_seq(s->else_stmts));
        seq.children.push_back(std::move(r));
        break;
      }
      case StmtKind::While: {
        open_straight = nullptr;
        auto r = std::make_unique<Region>();
        r->kind = Region::Kind::Loop;
        r->ctrl = s.get();
        r->children.push_back(build_seq(s->then_stmts));
        seq.children.push_back(std::move(r));
        break;
      }
      case StmtKind::Block:
        // Flatten nested blocks into the enclosing sequence so adjacent
        // straight-line code merges into one segment.
        open_straight = nullptr;
        {
          auto sub = std::make_unique<Region>();
          sub->kind = Region::Kind::Seq;
          append_stmt_list(*sub, s->stmts);
          for (auto& c : sub->children) seq.children.push_back(std::move(c));
        }
        open_straight = nullptr;
        break;
    }
  }
}

RegionPtr build_seq(const std::vector<ir::StmtPtr>& stmts) {
  auto seq = std::make_unique<Region>();
  seq->kind = Region::Kind::Seq;
  append_stmt_list(*seq, stmts);
  // Merge adjacent straight segments (block flattening can split them).
  std::vector<RegionPtr> merged;
  for (auto& c : seq->children) {
    if (c->is_straight() && !merged.empty() && merged.back()->is_straight()) {
      auto& dst = merged.back()->stmts;
      dst.insert(dst.end(), c->stmts.begin(), c->stmts.end());
    } else {
      merged.push_back(std::move(c));
    }
  }
  seq->children = std::move(merged);
  return seq;
}

}  // namespace

bool Region::loop_body_is_straight() const {
  assert(kind == Kind::Loop);
  const Region& body = *children[0];
  if (body.children.empty()) return true;
  return body.children.size() == 1 && body.children[0]->is_straight();
}

RegionPtr build_region_tree(const ir::Function& fn) {
  assert(fn.body() && fn.body()->kind == StmtKind::Block);
  return build_seq(fn.body()->stmts);
}

}  // namespace fact::sched
