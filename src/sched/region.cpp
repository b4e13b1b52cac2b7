#include "sched/region.hpp"

#include <cassert>

namespace fact::sched {

using ir::StmtKind;

bool Region::loop_body_is_straight() const {
  assert(kind == Kind::Loop);
  const Region& body = *children[0];
  if (body.children.empty()) return true;
  return body.children.size() == 1 && body.children[0]->is_straight();
}

void RegionTree::build(const ir::Function& fn) {
  assert(fn.body() && fn.body()->kind == StmtKind::Block);
  used_ = 0;
  build_seq(fn.body()->stmts);  // the first region made: the root
}

Region& RegionTree::make(Region::Kind kind) {
  if (used_ == nodes_.size()) nodes_.push_back(std::make_unique<Region>());
  Region& r = *nodes_[used_++];
  r.kind = kind;
  r.stmts.clear();
  r.ctrl = nullptr;
  r.children.clear();
  return r;
}

Region* RegionTree::build_seq(const std::vector<ir::StmtPtr>& stmts) {
  Region& seq = make(Region::Kind::Seq);
  Region* open_straight = nullptr;
  append(seq, stmts, open_straight);
  return &seq;
}

void RegionTree::append(Region& seq, const std::vector<ir::StmtPtr>& stmts,
                        Region*& open_straight) {
  for (const auto& s : stmts) {
    switch (s->kind) {
      case StmtKind::Assign:
      case StmtKind::Store:
        if (!open_straight) {
          open_straight = &make(Region::Kind::Straight);
          seq.children.push_back(open_straight);
        }
        open_straight->stmts.push_back(s.get());
        break;
      case StmtKind::If: {
        open_straight = nullptr;
        Region& r = make(Region::Kind::If);
        r.ctrl = s.get();
        seq.children.push_back(&r);
        r.children.push_back(build_seq(s->then_stmts));
        r.children.push_back(build_seq(s->else_stmts));
        break;
      }
      case StmtKind::While: {
        open_straight = nullptr;
        Region& r = make(Region::Kind::Loop);
        r.ctrl = s.get();
        seq.children.push_back(&r);
        r.children.push_back(build_seq(s->then_stmts));
        break;
      }
      case StmtKind::Block:
        // Flatten nested blocks into the enclosing sequence, so adjacent
        // straight-line code merges into one segment.
        append(seq, s->stmts, open_straight);
        break;
    }
  }
}

}  // namespace fact::sched
