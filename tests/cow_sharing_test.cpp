// Copy-on-write sharing of every standard transformation. Applying a
// candidate must leave its parent untouched (the optimizer applies many
// candidates to one parent, from several threads at once), and must copy
// only the path to the statement it edits: a statement the candidate keeps
// unchanged (the parent's id and fragment hash) is the parent's node
// unless it lies on that path, so at most the edited statement's depth of
// them are copies. Loop unrolling rebuilds the loop body from clones,
// whose fresh ids may repeat those of the body they replace, so the
// statements of an unrolled loop's body count as new. Covered: every
// first-level candidate of the six Table 2 workloads and of generated
// programs of two shapes, applied from one thread and from four at once.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/function.hpp"
#include "ir/hash.hpp"
#include "program_gen.hpp"
#include "util/strfmt.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace fact::xform {
namespace {

const TransformLibrary& library() {
  static const TransformLibrary lib = TransformLibrary::standard();
  return lib;
}

struct Parent {
  std::string name;
  ir::Function fn;
};

std::vector<Parent> parents() {
  std::vector<Parent> out;
  for (workloads::Workload& w : workloads::table2_benchmarks())
    out.push_back({w.name, std::move(w.fn)});
  testgen::GenOptions loops;
  loops.concurrent_loops = true;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    out.push_back({strfmt("GEN%d", static_cast<int>(seed)),
                   testgen::random_program(seed)});
    out.push_back({strfmt("GEN%d loops", static_cast<int>(seed)),
                   testgen::random_program(seed, loops)});
  }
  return out;
}

/// A statement of the parent: its node, its fragment hash and its depth
/// (the body is at depth 1).
struct Node {
  const ir::Stmt* stmt = nullptr;
  uint64_t hash = 0;
  int depth = 0;
};

void add_nodes(const ir::Stmt& s, int depth,
               std::unordered_map<int, Node>& out) {
  out[s.id] = {&s, ir::fragment_hash(s), depth};
  s.for_each_child_list([&](const std::vector<ir::StmtPtr>& list) {
    for (const auto& c : list) add_nodes(*c, depth + 1, out);
  });
}

/// One parent, read by every check of its candidates.
class ParentState {
 public:
  explicit ParentState(const ir::Function& fn)
      : fn_(fn), str_(fn.str()), hash_(ir::fragment_hash(*fn.body())) {
    add_nodes(*fn.body(), 1, nodes_);
  }

  /// Applies `c` to the parent and returns what is wrong, or "".
  std::string check(const Candidate& c) const {
    const std::string what = c.describe() + ": ";
    std::string bad;
    try {
      const ir::Function g = library().apply(fn_, c);
      const Node& edited = nodes_.at(c.stmt_id);
      const int copies = unchanged_copies(
          g, c.transform == "unroll" ? edited.stmt : nullptr);
      const int depth = edited.depth;
      if (copies > depth)
        bad = what + strfmt("%d unchanged statements copied, depth %d",
                            copies, depth);
    } catch (const std::exception&) {
      // a candidate the transform declines at apply time
    }
    if (fn_.str() != str_ || ir::fragment_hash(*fn_.body()) != hash_)
      bad += what + "the parent changed";
    return bad;
  }

 private:
  /// Statements of `g` that keep a parent statement's id and fragment hash
  /// but are not the parent's node, except those with the id of a
  /// statement below `rebuilt`.
  int unchanged_copies(const ir::Function& g, const ir::Stmt* rebuilt) const {
    std::unordered_set<int> skip;
    if (rebuilt) {
      add_ids(*rebuilt, skip);
      skip.erase(rebuilt->id);
    }
    int copies = 0;
    g.for_each([&](const ir::Stmt& s) {
      const auto it = nodes_.find(s.id);
      if (it != nodes_.end() && it->second.stmt != &s && !skip.count(s.id) &&
          it->second.hash == ir::fragment_hash(s))
        ++copies;
    });
    return copies;
  }

  static void add_ids(const ir::Stmt& s, std::unordered_set<int>& out) {
    out.insert(s.id);
    s.for_each_child_list([&](const std::vector<ir::StmtPtr>& list) {
      for (const auto& c : list) add_ids(*c, out);
    });
  }

  const ir::Function& fn_;
  const std::string str_;
  const uint64_t hash_;
  std::unordered_map<int, Node> nodes_;
};

TEST(CowSharing, EveryStandardCandidateCopiesOnlyItsPath) {
  size_t checked = 0;
  for (const Parent& p : parents()) {
    const ParentState parent(p.fn);
    for (const Candidate& c : library().find_all(p.fn, {})) {
      EXPECT_EQ(parent.check(c), "") << p.name;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(CowSharing, OneParentFromFourThreads) {
  // Four threads apply one parent's candidates at once: the parent is
  // only read, so none may see it change.
  constexpr size_t kThreads = 4;
  for (const Parent& p : parents()) {
    const ParentState parent(p.fn);
    const std::vector<Candidate> cands = library().find_all(p.fn, {});
    std::vector<std::string> bad(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (size_t i = t; i < cands.size(); i += kThreads)
          bad[t] += parent.check(cands[i]);
      });
    for (std::thread& th : threads) th.join();
    for (const std::string& b : bad) EXPECT_EQ(b, "") << p.name;
  }
}

}  // namespace
}  // namespace fact::xform
