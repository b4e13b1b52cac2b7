#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace fact::ir {

/// Replaces the statement with id `stmt_id` by `replacement` (spliced in
/// place; may be empty to delete). Returns false if the id is not found.
/// The caller must renumber() afterwards if ids are needed again.
bool replace_stmt(Function& fn, int stmt_id, std::vector<StmtPtr> replacement);

/// Inserts statements immediately before the statement with id `stmt_id`
/// in its enclosing list. Returns false if the id is not found.
bool insert_before(Function& fn, int stmt_id, std::vector<StmtPtr> stmts);

/// Substitutes variables by expressions throughout an expression tree.
ExprPtr substitute(const ExprPtr& e,
                   const std::map<std::string, ExprPtr>& subst);

/// Symbolically evaluates a list of Assign statements: returns the final
/// value of every written variable as an expression over the *pre-list*
/// variable values. Used by if-conversion (speculation). All statements
/// must be Assigns.
std::map<std::string, ExprPtr> symbolic_assigns(
    const std::vector<StmtPtr>& stmts);

/// A name that cannot collide with source-level identifiers (the parser
/// rejects leading underscores only by convention; generated temps embed a
/// counter namespaced by `tag`).
std::string fresh_name(const Function& fn, const std::string& tag);

/// Variables assigned anywhere in a statement list (recursively).
std::vector<std::string> written_vars(const std::vector<StmtPtr>& stmts);

/// True if every statement in the list is a scalar Assign (no stores, no
/// control flow) — the precondition for if-conversion.
bool all_scalar_assigns(const std::vector<StmtPtr>& stmts);

/// Recursively clears statement ids (sets them to -1) so that
/// Function::assign_fresh_ids() treats the statements as new. Used when a
/// transformation duplicates statements (e.g. loop unrolling).
void clear_ids(std::vector<StmtPtr>& stmts);

}  // namespace fact::ir
