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

namespace {

// Whether numbering the subtree at `s` from `next` changes an id; advances
// `next` past the ids the numbering would hand out.
bool number_changes(const Stmt& s, int& next, bool all) {
  bool changes = false;
  if (all || s.id < 0) changes = s.id != next++;
  s.for_each_child_list([&](const std::vector<StmtPtr>& list) {
    for (const auto& c : list) changes |= number_changes(*c, next, all);
  });
  return changes;
}

// Preorder numbering that descends — and detaches — only into subtrees
// whose ids change, so subtrees shared with other functions stay shared.
// With `all` every statement gets the next id; otherwise only statements
// with none (id -1) do.
void number(StmtPtr& s, int& next, bool all) {
  int probe = next;
  if (!number_changes(*s, probe, all)) {
    next = probe;
    return;
  }
  detach(s);
  if (all || s->id < 0) s->id = next++;
  for (auto* list : s->child_lists())
    for (auto& c : *list) number(c, next, all);
}

}  // namespace

void Function::renumber() {
  int next = 0;
  if (body_) number(body_, next, /*all=*/true);
}

void Function::assign_fresh_ids() {
  if (!body_) return;
  int next = max_stmt_id() + 1;
  number(body_, next, /*all=*/false);
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

namespace {

// Fills `path` with (child-list index, element index) steps leading from
// `s` to the statement with `id` (the statement itself is the last step;
// `s` is not considered a match). Preorder, matching the original editor's
// search order.
using Path = std::vector<std::pair<size_t, size_t>>;

bool find_path(const StmtPtr& s, int id, Path& path) {
  const auto lists = static_cast<const Stmt&>(*s).child_lists();
  for (size_t li = 0; li < lists.size(); ++li) {
    const auto& list = *lists[li];
    for (size_t ei = 0; ei < list.size(); ++ei) {
      if (!list[ei]) continue;
      path.emplace_back(li, ei);
      if (list[ei]->id == id || find_path(list[ei], id, path)) return true;
      path.pop_back();
    }
  }
  return false;
}

// Detaches `root` and the nodes the first `steps` steps of `path` lead to,
// and returns the slot of the last of them: the path copy that makes that
// node private to `root`'s function while its children stay shared.
StmtPtr& detach_path(StmtPtr& root, const Path& path, size_t steps) {
  StmtPtr* slot = &root;
  detach(*slot);
  for (size_t k = 0; k < steps; ++k) {
    slot = &(*(*slot)->child_lists()[path[k].first])[path[k].second];
    detach(*slot);
  }
  return *slot;
}

}  // namespace

const Stmt* Function::find_stmt(int id) const {
  if (!body_) return nullptr;
  Path path;
  if (body_->id != id && !find_path(body_, id, path)) return nullptr;
  const Stmt* s = body_.get();
  for (const auto& [li, ei] : path) s = (*s->child_lists()[li])[ei].get();
  return s;
}

Stmt* Function::edit(int id) {
  if (!body_) return nullptr;
  Path path;
  if (body_->id != id && !find_path(body_, id, path)) return nullptr;
  return detach_path(body_, path, path.size()).get();
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
  Path path;
  if (!find_path(body_, stmt_id, path)) return false;
  // Copy the path down to the owner of the list that contains the
  // statement; sibling subtrees (and the statement itself) stay shared.
  Stmt& owner = *detach_path(body_, path, path.size() - 1);
  std::vector<StmtPtr>& list = *owner.child_lists()[path.back().first];
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
