// Affine (linear + constant) views of UC subscript expressions, shared by
// the static-analysis passes and the VM (write-injectivity proofs and
// fusion dependence checks).
//
// A subscript like `i + 1`, `N - 1 - i` or `2*i + j` is decomposed into a
// LinearForm: a sum of (symbol, coefficient) terms plus an integer
// constant.  Symbols with known compile-time constant values (const
// globals) fold into the constant.  Anything the decomposition cannot
// express exactly — array reads, calls, ternaries, non-constant products —
// yields an inexact form, which consumers must treat conservatively.
#pragma once

#include <cstdint>
#include <vector>

#include "uclang/ast.hpp"

namespace uc::xform {

struct LinearTerm {
  const lang::Symbol* sym = nullptr;
  std::int64_t coeff = 0;
};

struct LinearForm {
  bool exact = false;
  std::int64_t constant = 0;
  std::vector<LinearTerm> terms;  // unique symbols, nonzero coefficients

  // The coefficient of `sym` (0 when absent).
  std::int64_t coeff_of(const lang::Symbol* sym) const;
  // True when the form is exact and mentions no symbol at all.
  bool is_constant() const { return exact && terms.empty(); }
};

// Decomposes an expression into a LinearForm.  Requires a sema'd tree
// (Ident nodes carry their Symbol annotations).
LinearForm linearize(const lang::Expr& e);

// Arithmetic on forms (inexact operands yield inexact results).
LinearForm linear_sub(const LinearForm& a, const LinearForm& b);
LinearForm linear_scale(const LinearForm& a, std::int64_t k);

}  // namespace uc::xform
