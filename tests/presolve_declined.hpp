// Inputs that reach the samplers. The exact component presolve
// (anneal::presolve) decides every separable or small-component model
// before any sampler runs, so a test whose subject is the sampler path —
// fake, throwing or slow samplers, deadlines, warm starts, escalation,
// embedding caches — must feed the job a model the presolve declines.
// declined() asserts exactly that before handing the input over, so a
// presolve that later grows to decide it fails here loudly instead of
// leaving the test silently vacuous.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "anneal/exact.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/constraint.hpp"
#include "strqubo/solver.hpp"
#include "workload/smt2_render.hpp"

namespace qsmt::test {

/// `constraint`, after asserting the presolve declines its model under
/// `options`.
inline strqubo::Constraint declined(strqubo::Constraint constraint,
                                    const strqubo::BuildOptions& options = {}) {
  const strqubo::PreparedConstraint prepared =
      strqubo::prepare(constraint, options);
  const std::size_t string_bits =
      strqubo::produces_string(constraint)
          ? strqubo::constraint_num_variables(constraint)
          : 0;
  EXPECT_FALSE(anneal::presolve(prepared.adjacency, string_bits).has_value())
      << strqubo::describe(constraint) << " is decided by the presolve";
  return constraint;
}

/// The (assert ...) lines over `variable` of a declined constraint, for
/// scripts: any conjunction containing them is declined too, because
/// merging conjuncts only ever joins components.
inline std::string declined_asserts(const strqubo::Constraint& constraint,
                                    const strqubo::BuildOptions& options = {},
                                    const std::string& variable = "x") {
  return workload::to_smt2_asserts(declined(constraint, options), variable)
      .value();
}

}  // namespace qsmt::test
