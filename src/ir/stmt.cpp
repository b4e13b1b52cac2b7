#include "ir/stmt.hpp"

#include <atomic>
#include <sstream>

#include "obs/metrics.hpp"

namespace fact::ir {

StmtPtr Stmt::assign(std::string var, ExprPtr value) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::Assign;
  s->target = std::move(var);
  s->value = std::move(value);
  return s;
}

StmtPtr Stmt::store(std::string array, ExprPtr index, ExprPtr value) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::Store;
  s->target = std::move(array);
  s->index = std::move(index);
  s->value = std::move(value);
  return s;
}

StmtPtr Stmt::if_stmt(ExprPtr cond, std::vector<StmtPtr> then_stmts,
                      std::vector<StmtPtr> else_stmts) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::If;
  s->cond = std::move(cond);
  s->then_stmts = std::move(then_stmts);
  s->else_stmts = std::move(else_stmts);
  return s;
}

StmtPtr Stmt::while_stmt(ExprPtr cond, std::vector<StmtPtr> body) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::While;
  s->cond = std::move(cond);
  s->then_stmts = std::move(body);
  return s;
}

StmtPtr Stmt::block(std::vector<StmtPtr> stmts) {
  auto s = std::make_shared<Stmt>();
  s->kind = StmtKind::Block;
  s->stmts = std::move(stmts);
  return s;
}

StmtPtr Stmt::clone() const {
  auto s = std::make_shared<Stmt>();
  s->kind = kind;
  s->id = id;
  s->target = target;
  s->index = index;  // expressions are immutable and shared
  s->value = value;
  s->cond = cond;
  auto clone_list = [](const std::vector<StmtPtr>& in) {
    std::vector<StmtPtr> out;
    out.reserve(in.size());
    for (const auto& c : in) out.push_back(c->clone());
    return out;
  };
  s->then_stmts = clone_list(then_stmts);
  s->else_stmts = clone_list(else_stmts);
  s->stmts = clone_list(stmts);
  return s;
}

std::vector<const ExprPtr*> Stmt::expr_slots() const {
  std::vector<const ExprPtr*> out;
  for_each_expr_slot([&](const ExprPtr& slot) { out.push_back(&slot); });
  return out;
}

std::vector<ExprPtr*> Stmt::expr_slots() {
  std::vector<ExprPtr*> out;
  if (cond) out.push_back(&cond);
  if (index) out.push_back(&index);
  if (value) out.push_back(&value);
  return out;
}

std::vector<const std::vector<StmtPtr>*> Stmt::child_lists() const {
  std::vector<const std::vector<StmtPtr>*> out;
  for_each_child_list(
      [&](const std::vector<StmtPtr>& list) { out.push_back(&list); });
  return out;
}

std::vector<std::vector<StmtPtr>*> Stmt::child_lists() {
  switch (kind) {
    case StmtKind::If:
      return {&then_stmts, &else_stmts};
    case StmtKind::While:
      return {&then_stmts};
    case StmtKind::Block:
      return {&stmts};
    default:
      return {};
  }
}

std::string Stmt::str(int indent) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::ostringstream out;
  auto print_list = [&](const std::vector<StmtPtr>& list) {
    for (const auto& s : list) out << s->str(indent + 1);
  };
  switch (kind) {
    case StmtKind::Assign:
      out << pad << target << " = " << value->str() << ";\n";
      break;
    case StmtKind::Store:
      out << pad << target << "[" << index->str() << "] = " << value->str()
          << ";\n";
      break;
    case StmtKind::If:
      out << pad << "if (" << cond->str() << ") {\n";
      print_list(then_stmts);
      if (!else_stmts.empty()) {
        out << pad << "} else {\n";
        print_list(else_stmts);
      }
      out << pad << "}\n";
      break;
    case StmtKind::While:
      out << pad << "while (" << cond->str() << ") {\n";
      print_list(then_stmts);
      out << pad << "}\n";
      break;
    case StmtKind::Block:
      out << pad << "{\n";
      print_list(stmts);
      out << pad << "}\n";
      break;
  }
  return out.str();
}

void for_each_stmt(const StmtPtr& s,
                   const std::function<void(const Stmt&)>& fn) {
  if (!s) return;
  fn(*s);
  s->for_each_child_list([&](const std::vector<StmtPtr>& list) {
    for (const auto& c : list) for_each_stmt(c, fn);
  });
}

namespace cow {
namespace {
// Registry-backed (obs::Registry::global()) so the COW counters show up in
// every metrics export alongside the cache and search counters; the
// namespace functions stay as the stable API.
obs::Counter& clones_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "fact_ir_cow_clones_total", "O(1) shared Function::clone() calls");
  return c;
}
obs::Counter& node_copies_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "fact_ir_cow_node_copies_total",
      "Stmt nodes actually copied by detach()");
  return c;
}
}  // namespace

uint64_t clones() { return clones_counter().value(); }
uint64_t node_copies() { return node_copies_counter().value(); }
void reset() {
  clones_counter().reset();
  node_copies_counter().reset();
}
void count_clone() { clones_counter().inc(); }
void count_node_copy() { node_copies_counter().inc(); }
}  // namespace cow

void detach(StmtPtr& s) {
  // use_count() == 1 means this StmtPtr is the only owner (no other thread
  // can be adding references — that would require another owner to copy
  // from), so mutating through it is private.
  if (!s || s.use_count() == 1) return;
  cow::count_node_copy();
  // The default copy shares the ExprPtrs (expressions are immutable) and
  // copies the child-pointer vectors, leaving the child subtrees shared.
  s = std::make_shared<Stmt>(*s);
}

}  // namespace fact::ir
