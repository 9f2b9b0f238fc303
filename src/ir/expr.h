#ifndef NDP_IR_EXPR_H
#define NDP_IR_EXPR_H

/**
 * @file
 * Expression trees for statement right-hand sides. References carry
 * affine subscripts (statically analyzable, Table 1) or one-level
 * indirect subscripts X[Y[affine]], the may-dependence case of Section
 * 4.5: they resolve through Y's index data, and the partitioner splits
 * them only in a nest with a timing loop (LoopNest::hasTimingLoop) or
 * under the oracle.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/affine.h"
#include "ir/array.h"
#include "ir/ops.h"

namespace ndp::ir {

/**
 * One array subscript: either an affine function of the loop variables
 * or an indirect lookup through an index array.
 */
struct Subscript
{
    /** Affine part; for indirect subscripts this indexes @ref indirect. */
    AffineExpr affine;
    /** Index array for X[Y[...]] patterns; kInvalidArray when affine. */
    ArrayId indirect = kInvalidArray;

    bool isIndirect() const { return indirect != kInvalidArray; }

    static Subscript
    direct(AffineExpr e)
    {
        Subscript s;
        s.affine = std::move(e);
        return s;
    }

    static Subscript
    throughArray(ArrayId index_array, AffineExpr e)
    {
        Subscript s;
        s.affine = std::move(e);
        s.indirect = index_array;
        return s;
    }
};

/** A reference to one array element, e.g. A[i+1][j] or X[Y[i]]. */
struct ArrayRef
{
    ArrayId array = kInvalidArray;
    std::vector<Subscript> subscripts;

    /** All subscripts affine => location derivable at compile time. */
    bool
    isAnalyzable() const
    {
        for (const Subscript &s : subscripts) {
            if (s.isIndirect())
                return false;
        }
        return true;
    }

    std::string toString(const ArrayTable &arrays,
                         const std::vector<std::string> &loop_names) const;
};

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/**
 * Immutable expression node: an array reference, a literal constant, or
 * a binary operation.
 */
class Expr
{
  public:
    enum class Kind
    {
        Ref,
        Const,
        Binary,
    };

    static ExprPtr ref(ArrayRef r);
    static ExprPtr constant(double value);
    static ExprPtr binary(OpKind op, ExprPtr lhs, ExprPtr rhs);

    Kind kind() const { return kind_; }

    double asConstant() const;
    OpKind op() const;
    const Expr &lhs() const;
    const Expr &rhs() const;

    ExprPtr clone() const;

    /** Append pointers to every ArrayRef leaf, left-to-right. */
    void collectRefs(std::vector<const ArrayRef *> &out) const;

    /** Count operations by Table 3 category (AddSub/MulDiv/Other). */
    void countOps(std::int64_t counts[3]) const;

    /** Total load-balancing cost of the operators in this tree. */
    std::int64_t totalOpCost() const;

    std::string toString(const ArrayTable &arrays,
                         const std::vector<std::string> &loop_names) const;

  private:
    Expr() = default;

    Kind kind_ = Kind::Const;
    ArrayRef ref_;
    double value_ = 0.0;
    OpKind op_ = OpKind::Add;
    ExprPtr lhs_;
    ExprPtr rhs_;
};

} // namespace ndp::ir

#endif // NDP_IR_EXPR_H
