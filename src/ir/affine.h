#ifndef NDP_IR_AFFINE_H
#define NDP_IR_AFFINE_H

/**
 * @file
 * Affine expressions over loop induction variables:
 * sum(coeff_k * loopvar_k) + constant. These are the statically
 * analyzable subscripts of Table 1; everything else (indirect
 * subscripts) resolves through an index array's data (Section 4.5's
 * inspector/executor).
 */

#include <cstdint>
#include <string>
#include <vector>

namespace ndp::ir {

/** A concrete iteration point: one value per loop, outermost first. */
using IterationVector = std::vector<std::int64_t>;

/** Affine function of the enclosing loops' induction variables. */
class AffineExpr
{
  public:
    AffineExpr() = default;

    /** The constant function @p c. */
    static AffineExpr constant(std::int64_t c);

    /** coeff * loopvar(index) (+ 0). */
    static AffineExpr term(int loop_index, std::int64_t coeff = 1);

    /** Add @p coeff * loopvar(index) to this expression. */
    void addTerm(int loop_index, std::int64_t coeff);
    void addConstant(std::int64_t c) { constant_ += c; }

    std::int64_t constantPart() const { return constant_; }

    /** Coefficient of loopvar(index), 0 if absent. */
    std::int64_t coefficient(int loop_index) const;

    /** True when no loop variable appears (pure constant). */
    bool isConstant() const { return terms_.empty(); }

    /** Evaluate at the concrete iteration @p iter. */
    std::int64_t evaluate(const IterationVector &iter) const;

    AffineExpr operator+(const AffineExpr &other) const;
    AffineExpr operator*(std::int64_t scale) const;
    bool operator==(const AffineExpr &other) const;

    /** Render with loop-variable names from @p loop_names. */
    std::string toString(const std::vector<std::string> &loop_names) const;

  private:
    void normalize();

    // Sparse (loop index, coefficient) pairs, sorted by loop index,
    // coefficients never zero.
    std::vector<std::pair<int, std::int64_t>> terms_;
    std::int64_t constant_ = 0;
};

} // namespace ndp::ir

#endif // NDP_IR_AFFINE_H
