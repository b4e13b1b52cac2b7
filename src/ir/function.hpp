#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/stmt.hpp"

namespace fact::ir {

/// Array declaration. Arrays model the memories of the synthesized design;
/// the paper maps each array to its own memory so that concurrent accesses
/// to distinct arrays never conflict.
struct ArrayDecl {
  std::string name;
  size_t size = 0;
  bool is_input = false;  // initialized from the input trace

  bool operator==(const ArrayDecl&) const = default;
};

/// A behavioral description: one top-level function whose body is executed
/// repeatedly (one execution per arrival of new inputs), exactly like the
/// paper's "one execution of the behavior".
class Function {
 public:
  Function() = default;
  explicit Function(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  const std::vector<std::string>& params() const { return params_; }
  void add_param(const std::string& p) { params_.push_back(p); }

  const std::vector<ArrayDecl>& arrays() const { return arrays_; }
  void add_array(const ArrayDecl& a) { arrays_.push_back(a); }
  const ArrayDecl* find_array(const std::string& name) const;

  const std::vector<std::string>& outputs() const { return outputs_; }
  void add_output(const std::string& o) { outputs_.push_back(o); }

  /// Whether `other` declares the same parameters, arrays and outputs, in
  /// the same order. A statement compiles and verifies alike in two such
  /// functions (sim::StatementCode, verify::StatementChecks).
  bool same_declarations(const Function& other) const {
    return params_ == other.params_ && arrays_ == other.arrays_ &&
           outputs_ == other.outputs_;
  }

  /// The body is always a Block statement. Read only, like every accessor
  /// that walks the tree: the one way to change a statement in place is
  /// edit(), and the one way to add or remove statements is splice().
  const Stmt* body() const { return body_.get(); }
  void set_body(StmtPtr b);

  /// Assigns fresh preorder statement ids (0, 1, 2, ...). Called after any
  /// structural edit that adds statements. Copies only the statements whose
  /// id changes and the paths to them.
  void renumber();

  /// Assigns ids only to statements that have none (id == -1), continuing
  /// past the current maximum. Transformations use this so that existing
  /// statement ids — and therefore optimizer regions and profile keys —
  /// stay stable across rewrites.
  void assign_fresh_ids();

  /// Largest statement id in use, or -1.
  int max_stmt_id() const;

  /// All statement ids, sorted and unique (used by the optimizer to detect
  /// transform-created statements).
  std::vector<int> stmt_ids() const;

  /// The first statement in preorder with the given id (the one edit()
  /// and splice() take), or nullptr.
  const Stmt* find_stmt(int id) const;

  /// The statement with the given id, made private to this function for
  /// editing, or nullptr. Copies the path from the root to the statement
  /// and the statement node itself (copy-on-write), and nothing below it:
  /// the caller may change the node's own fields, expression slots and
  /// child lists, but its children stay shared with other functions, so a
  /// child is changed through its own edit(child id) or through splice().
  Stmt* edit(int id);

  /// O(1) copy sharing the whole body with this function (copy-on-write:
  /// edit() and splice() on the clone copy just the path they touch).
  /// Statement ids are preserved, so transformation candidates expressed
  /// as (stmt id, expr path) remain valid on the clone.
  Function clone() const;

  /// Path-copying clone: a clone() whose statement `stmt_id` is replaced
  /// by `replacement` (null = delete). Only the root-to-statement spine is
  /// copied; every other subtree is shared with this function. Throws
  /// fact::Error if the id does not exist.
  Function clone_with(int stmt_id, StmtPtr replacement) const;

  /// Replaces the statement with id `stmt_id` by `replacement` (spliced
  /// into the enclosing list; empty deletes), or, with `insert_only`,
  /// inserts `replacement` immediately before it. Copies only the spine
  /// from the root to the enclosing list (copy-on-write). Returns false if
  /// the id is not found. ir::replace_stmt / ir::insert_before wrap this.
  bool splice(int stmt_id, std::vector<StmtPtr> replacement,
              bool insert_only);

  /// Source-like rendering of the whole function.
  std::string str() const;

  /// Preorder walk over every statement in the body.
  void for_each(const std::function<void(const Stmt&)>& fn) const;

  /// Total number of statements.
  size_t stmt_count() const;

  /// Throws fact::Error if the function is malformed: use of an undeclared
  /// array, store to an input-only name, empty loop body, etc.
  void validate() const;

 private:
  std::string name_;
  std::vector<std::string> params_;
  std::vector<ArrayDecl> arrays_;
  std::vector<std::string> outputs_;
  StmtPtr body_;
};

}  // namespace fact::ir
