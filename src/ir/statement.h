#ifndef NDP_IR_STATEMENT_H
#define NDP_IR_STATEMENT_H

/**
 * @file
 * Program statements and loop nests: the unit the paper's algorithm
 * consumes. A Statement is `lhs = rhs-expression` with an optional
 * guard (a conditional that must be duplicated alongside offloaded
 * subcomputations, Section 4.5). A LoopNest carries the enclosing
 * loops, the statement body, and the inspector/executor hook of an
 * optional outer timing loop.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace ndp::ir {

/** Index of a statement within its loop-nest body. */
using StatementIndex = std::int32_t;

/** One assignment statement. */
class Statement
{
  public:
    Statement(std::string label, ArrayRef lhs, ExprPtr rhs,
              ExprPtr guard = nullptr);

    Statement(Statement &&) = default;
    Statement &operator=(Statement &&) = default;
    Statement(const Statement &other) { *this = other; }
    Statement &operator=(const Statement &other);

    const std::string &label() const { return label_; }
    const ArrayRef &lhs() const { return lhs_; }
    const Expr &rhs() const { return *rhs_; }

    bool hasGuard() const { return guard_ != nullptr; }
    const Expr &guard() const;

    /**
     * The read operands (RHS leaves followed by guard leaves),
     * left-to-right. Pointers remain valid for the statement's
     * lifetime.
     */
    const std::vector<const ArrayRef *> &reads() const { return reads_; }

    /** Number of RHS leaves (excludes guard reads). */
    std::size_t rhsReadCount() const { return rhsReadCount_; }

    /** Operator counts by Table 3 category. */
    void countOps(std::int64_t counts[3]) const { rhs_->countOps(counts); }

    /** Total operator cost (division 10x) of the RHS. */
    std::int64_t totalOpCost() const { return rhs_->totalOpCost(); }

    std::string toString(const ArrayTable &arrays,
                         const std::vector<std::string> &loop_names) const;

  private:
    void rebuildReadCache();

    std::string label_;
    ArrayRef lhs_;
    ExprPtr rhs_;
    ExprPtr guard_;
    std::vector<const ArrayRef *> reads_;
    std::size_t rhsReadCount_ = 0;
};

/** One loop of a nest: for (var = lower; var < upper; var += step). */
struct Loop
{
    std::string var;
    std::int64_t lower = 0;
    std::int64_t upper = 0; ///< exclusive
    std::int64_t step = 1;

    std::int64_t
    tripCount() const
    {
        if (step <= 0 || upper <= lower)
            return 0;
        return (upper - lower + step - 1) / step;
    }
};

/** A perfectly nested loop with a straight-line statement body. */
class LoopNest
{
  public:
    LoopNest(std::string name, std::vector<Loop> loops,
             std::vector<Statement> body);

    const std::string &name() const { return name_; }
    const std::vector<Loop> &loops() const { return loops_; }
    const std::vector<Statement> &body() const { return body_; }
    std::vector<Statement> &body() { return body_; }

    /** Loop variable names, outermost first. */
    std::vector<std::string> loopNames() const;

    /** Product of all trip counts. */
    std::int64_t iterationCount() const;

    /**
     * Write the @p k-th iteration (lexicographic, 0-based) into
     * @p iter, which keeps its capacity across calls.
     */
    void iterationAt(std::int64_t k, IterationVector &iter) const;

    /**
     * The nest sits inside an outer timing loop whose first trips can
     * run Section 4.5's inspector. Nothing runs those trips: the flag
     * only lets the partitioner treat the nest's indirect subscripts
     * as resolved, and so split them; the values those trips would
     * record are the ArrayTable's index data, which resolving any
     * nest requires. The default models a kernel without a timing
     * loop.
     */
    bool hasTimingLoop = false;

    std::string toString(const ArrayTable &arrays) const;

  private:
    std::string name_;
    std::vector<Loop> loops_;
    std::vector<Statement> body_;
};

/**
 * Fraction of a nest's static references (reads + writes) whose
 * location is compile-time analyzable — the quantity of Table 1.
 */
double analyzableFraction(const LoopNest &nest);

} // namespace ndp::ir

#endif // NDP_IR_STATEMENT_H
