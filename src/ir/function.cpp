#include "ir/function.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.hpp"

namespace fact::ir {

const ArrayDecl* Function::find_array(const std::string& name) const {
  for (const auto& a : arrays_)
    if (a.name == name) return &a;
  return nullptr;
}

void Function::set_body(StmtPtr b) {
  body_ = std::move(b);
  renumber();
}

Stmt* Function::body() {
  detach_deep(body_);
  return body_.get();
}

void Function::renumber() {
  int next = 0;
  for_each([&](Stmt& s) { s.id = next++; });
}

namespace {

bool has_unnumbered(const StmtPtr& s) {
  if (s->id < 0) return true;
  for (const auto* list : static_cast<const Stmt&>(*s).child_lists())
    for (const auto& c : *list)
      if (has_unnumbered(c)) return true;
  return false;
}

// Preorder numbering that descends — and detaches — only into subtrees
// that actually contain unnumbered statements, so subtrees shared with
// other functions stay shared.
void assign_fresh_rec(StmtPtr& s, int& next) {
  if (!has_unnumbered(s)) return;
  detach(s);
  if (s->id < 0) s->id = next++;
  for (auto* list : s->child_lists())
    for (auto& c : *list) assign_fresh_rec(c, next);
}

}  // namespace

void Function::assign_fresh_ids() {
  if (!body_) return;
  int next = max_stmt_id() + 1;
  assign_fresh_rec(body_, next);
}

int Function::max_stmt_id() const {
  int max_id = -1;
  for_each([&](const Stmt& s) { max_id = std::max(max_id, s.id); });
  return max_id;
}

std::vector<int> Function::stmt_ids() const {
  std::vector<int> ids;
  for_each([&](const Stmt& s) { ids.push_back(s.id); });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

const Stmt* Function::find_stmt(int id) const {
  const Stmt* found = nullptr;
  for_each([&](const Stmt& s) {
    if (s.id == id) found = &s;
  });
  return found;
}

namespace {

// Fills `path` with (child-list index, element index) steps leading from
// `s` to the statement with `id` (the statement itself is the last step;
// `s` is not considered a match). Preorder, matching the original editor's
// search order.
bool find_path(const StmtPtr& s, int id,
               std::vector<std::pair<size_t, size_t>>& path) {
  const auto lists = static_cast<const Stmt&>(*s).child_lists();
  for (size_t li = 0; li < lists.size(); ++li) {
    const auto& list = *lists[li];
    for (size_t ei = 0; ei < list.size(); ++ei) {
      path.emplace_back(li, ei);
      if (list[ei]->id == id || find_path(list[ei], id, path)) return true;
      path.pop_back();
    }
  }
  return false;
}

}  // namespace

Stmt* Function::find_stmt(int id) {
  if (!body_) return nullptr;
  if (body_->id == id) {
    detach_deep(body_);
    return body_.get();
  }
  std::vector<std::pair<size_t, size_t>> path;
  if (!find_path(body_, id, path)) return nullptr;
  // Copy the spine down to the statement, then make its subtree private:
  // the caller may mutate anything below the returned pointer.
  detach(body_);
  Stmt* cur = body_.get();
  StmtPtr* slot = nullptr;
  for (const auto& [li, ei] : path) {
    slot = &(*cur->child_lists()[li])[ei];
    detach(*slot);
    cur = slot->get();
  }
  detach_deep(*slot);
  return slot->get();
}

Function Function::clone() const {
  Function f(name_);
  f.params_ = params_;
  f.arrays_ = arrays_;
  f.outputs_ = outputs_;
  f.body_ = body_;  // shared; copy-on-write protects both sides
  cow::count_clone();
  return f;
}

Function Function::clone_with(int stmt_id, StmtPtr replacement) const {
  Function f = clone();
  std::vector<StmtPtr> repl;
  if (replacement) repl.push_back(std::move(replacement));
  if (!f.splice(stmt_id, std::move(repl), /*insert_only=*/false))
    throw Error("clone_with: no statement with id " +
                std::to_string(stmt_id) + " in '" + name_ + "'");
  return f;
}

bool Function::splice(int stmt_id, std::vector<StmtPtr> replacement,
                      bool insert_only) {
  if (!body_) return false;
  std::vector<std::pair<size_t, size_t>> path;
  if (!find_path(body_, stmt_id, path)) return false;
  // Copy the spine down to the list that contains the statement; sibling
  // subtrees (and the statement itself) stay shared.
  detach(body_);
  Stmt* cur = body_.get();
  for (size_t k = 0; k + 1 < path.size(); ++k) {
    StmtPtr& slot = (*cur->child_lists()[path[k].first])[path[k].second];
    detach(slot);
    cur = slot.get();
  }
  std::vector<StmtPtr>& list = *cur->child_lists()[path.back().first];
  const size_t at = path.back().second;
  std::vector<StmtPtr> out;
  out.reserve(list.size() + replacement.size());
  for (size_t j = 0; j < at; ++j) out.push_back(std::move(list[j]));
  for (auto& r : replacement) out.push_back(std::move(r));
  if (insert_only) out.push_back(std::move(list[at]));
  for (size_t j = at + 1; j < list.size(); ++j)
    out.push_back(std::move(list[j]));
  list = std::move(out);
  return true;
}

std::string Function::str() const {
  std::ostringstream out;
  out << name_ << "(";
  for (size_t i = 0; i < params_.size(); ++i) {
    if (i) out << ", ";
    out << "int " << params_[i];
  }
  out << ") {\n";
  for (const auto& a : arrays_)
    out << "  " << (a.is_input ? "input " : "") << "int " << a.name << "["
        << a.size << "];\n";
  if (body_)
    for (const auto& s : body_->stmts) out << s->str(1);
  for (const auto& o : outputs_) out << "  output " << o << ";\n";
  out << "}\n";
  return out.str();
}

void Function::for_each(const std::function<void(const Stmt&)>& fn) const {
  // Must use the const walker: with shared subtrees, a "const" walk that
  // const_casts through the mutable path would race with other readers.
  for_each_stmt(body_, fn);
}

void Function::for_each(const std::function<void(Stmt&)>& fn) {
  detach_deep(body_);
  for_each_stmt(body_, fn);
}

size_t Function::stmt_count() const {
  size_t n = 0;
  for_each([&](const Stmt&) { ++n; });
  return n;
}

void Function::validate() const {
  std::set<std::string> array_names;
  for (const auto& a : arrays_) {
    if (a.size == 0) throw Error("array '" + a.name + "' has size 0");
    if (!array_names.insert(a.name).second)
      throw Error("duplicate array '" + a.name + "'");
  }
  std::set<std::string> scalar_names(params_.begin(), params_.end());
  if (scalar_names.size() != params_.size())
    throw Error("duplicate parameter name");

  // Statement ids must be unique: profiles, optimizer regions, and
  // transformation candidates are all keyed by them.
  std::set<int> ids;
  for_each([&](const Stmt& s) {
    if (s.id >= 0 && !ids.insert(s.id).second)
      throw Error("duplicate statement id " + std::to_string(s.id) + " in '" +
                  name_ + "'");
  });

  auto check_expr = [&](const ExprPtr& e) {
    for_each_node(e, [&](const ExprPtr& n) {
      if (n->op() == Op::ArrayRead && !array_names.count(n->name()))
        throw Error("read of undeclared array '" + n->name() + "'");
      if (n->op() == Op::Var && array_names.count(n->name()))
        throw Error("array '" + n->name() + "' used as a scalar");
    });
  };

  for_each([&](const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Assign:
        if (array_names.count(s.target))
          throw Error("assignment to array name '" + s.target + "'");
        check_expr(s.value);
        break;
      case StmtKind::Store:
        if (!array_names.count(s.target))
          throw Error("store to undeclared array '" + s.target + "'");
        check_expr(s.index);
        check_expr(s.value);
        break;
      case StmtKind::If:
        check_expr(s.cond);
        break;
      case StmtKind::While:
        check_expr(s.cond);
        if (s.then_stmts.empty())
          throw Error("empty while body in '" + name_ + "'");
        break;
      case StmtKind::Block:
        break;
    }
  });

  for (const auto& o : outputs_)
    if (array_names.count(o))
      throw Error("output '" + o + "' must be a scalar");
}

}  // namespace fact::ir
