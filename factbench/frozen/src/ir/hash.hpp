#pragma once

#include <cstdint>

namespace fact::ir {

class Function;
struct Stmt;

/// 64-bit structural hash of a statement subtree. Two statements hash
/// equal iff (up to 64-bit collisions) they have the same shape: kind,
/// target name, expression trees, and child statements, in order.
///
/// Statement ids are deliberately ignored — the hash identifies *behavior
/// structure*, matching what Function::str() used to feed the optimizer's
/// dedup, so variants reached through different transform paths (whose
/// fresh ids differ) still collapse. The hash is incremental: Expr nodes
/// carry a hash computed at construction and shared subtrees are never
/// re-traversed, so hashing a function costs O(statements), not O(nodes).
uint64_t structural_hash(const Stmt& s);

/// Structural hash of a whole function: signature (name, params, arrays,
/// outputs) plus the body. Replaces hashing Function::str() in the
/// optimizer's dedup and keys the evaluation memo cache.
uint64_t structural_hash(const Function& fn);

/// Fragment hash: structural_hash plus every statement id in the subtree.
/// Keys the scheduler's fragment cache, where two regions may only share a
/// cached schedule if their DFG annotations — which record originating
/// statement ids — are identical too. Ids are stable across clones, so a
/// region untouched by a transform keys the same fragment in parent and
/// child; transform-created statements get fresh ids and therefore fresh
/// keys.
uint64_t fragment_hash(const Stmt& s);

}  // namespace fact::ir
