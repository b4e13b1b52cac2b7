#include "verify/fault_injector.hpp"

#include <stdexcept>

#include "util/strfmt.hpp"

namespace fact::verify {

using ir::Expr;
using ir::Stmt;

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::WrongSemantics: return "wrong-semantics";
    case FaultClass::ThrowException: return "throw-exception";
    case FaultClass::DuplicateStmtId: return "duplicate-stmt-id";
    case FaultClass::EmptyLoopBody: return "empty-loop-body";
    case FaultClass::UndeclaredArray: return "undeclared-array";
    case FaultClass::UndefinedRead: return "undefined-read";
  }
  return "?";
}

std::vector<FaultClass> all_fault_classes() {
  return {FaultClass::WrongSemantics,  FaultClass::ThrowException,
          FaultClass::DuplicateStmtId, FaultClass::EmptyLoopBody,
          FaultClass::UndeclaredArray, FaultClass::UndefinedRead};
}

FaultInjector::FaultInjector(const xform::TransformLibrary& inner,
                             FaultInjectorOptions opts)
    : inner_(inner), opts_(opts), rng_(opts.seed) {
  for (FaultClass c : all_fault_classes())
    if (opts_.classes.empty() || opts_.classes.count(c))
      enabled_.push_back(c);
}

std::vector<xform::Candidate> FaultInjector::find_all(
    const ir::Function& fn, const std::set<int>& region) const {
  return inner_.find_all(fn, region);
}

int FaultInjector::injected(FaultClass c) const {
  auto it = injected_.find(c);
  return it == injected_.end() ? 0 : it->second;
}

int FaultInjector::injected_total() const {
  int total = 0;
  for (const auto& [c, n] : injected_) total += n;
  return total;
}

bool FaultInjector::corrupt(ir::Function& g, FaultClass cls) const {
  const int k = ++counter_;
  // Corruptions change `g` through edit(), which leaves the statements it
  // shares with the candidate's parent untouched.
  auto append = [&](ir::StmtPtr s) {
    g.edit(g.body()->id)->stmts.push_back(std::move(s));
    g.assign_fresh_ids();
  };
  switch (cls) {
    case FaultClass::WrongSemantics: {
      // Mutate state that is always observed: bump an array cell (final
      // array contents are part of every Observation), or, with no
      // arrays, add a fresh output — either way every trace execution
      // observes the difference, so the equivalence check must fire.
      if (!g.arrays().empty()) {
        const ir::ArrayDecl& a = g.arrays().front();
        const int64_t idx = k % static_cast<int64_t>(a.size);
        ir::ExprPtr cell = Expr::array_read(a.name, Expr::constant(idx));
        append(Stmt::store(a.name, Expr::constant(idx),
                           Expr::binary(ir::Op::Add, cell, Expr::constant(k))));
      } else {
        const std::string out = strfmt("__fault_out%d", k);
        append(Stmt::assign(out, Expr::constant(k)));
        g.add_output(out);
      }
      return true;
    }
    case FaultClass::ThrowException:
      throw std::runtime_error(
          strfmt("injected fault %d: transform implementation crashed", k));
    case FaultClass::DuplicateStmtId: {
      if (g.stmt_count() < 2) return false;
      int first_id = -1, last_id = -1;
      g.for_each([&](const ir::Stmt& s) {
        if (first_id < 0) first_id = s.id;
        last_id = s.id;
      });
      if (last_id < 0 || last_id == first_id) return false;
      g.edit(last_id)->id = first_id;
      return true;
    }
    case FaultClass::EmptyLoopBody: {
      int loop_id = -1;
      g.for_each([&](const ir::Stmt& s) {
        if (loop_id < 0 && s.kind == ir::StmtKind::While) loop_id = s.id;
      });
      if (loop_id < 0) return false;
      g.edit(loop_id)->then_stmts.clear();
      return true;
    }
    case FaultClass::UndeclaredArray: {
      append(Stmt::assign(
          strfmt("__fault_t%d", k),
          Expr::array_read(strfmt("__fault_arr%d", k), Expr::constant(0))));
      return true;
    }
    case FaultClass::UndefinedRead: {
      append(Stmt::assign(strfmt("__fault_t%d", k),
                          Expr::var(strfmt("__fault_u%d", k))));
      return true;
    }
  }
  return false;
}

ir::Function FaultInjector::apply(const ir::Function& fn,
                                  const xform::Candidate& c) const {
  ir::Function real = inner_.apply(fn, c);
  if (enabled_.empty() || opts_.rate <= 0.0 || rng_.uniform() >= opts_.rate)
    return real;
  // Start from a deterministically chosen class and fall through to the
  // next enabled one when a class does not apply to this function.
  const size_t start = static_cast<size_t>(rng_.uniform_int(
      0, static_cast<int64_t>(enabled_.size()) - 1));
  for (size_t i = 0; i < enabled_.size(); ++i) {
    const FaultClass cls = enabled_[(start + i) % enabled_.size()];
    if (cls == FaultClass::ThrowException) {
      injected_[cls]++;
      corrupt(real, cls);  // throws
    }
    if (corrupt(real, cls)) {
      injected_[cls]++;
      return real;
    }
  }
  return real;  // no enabled class applies to this function
}

}  // namespace fact::verify
