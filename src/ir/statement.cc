#include "ir/statement.h"

#include "support/error.h"

namespace ndp::ir {

Statement::Statement(std::string label, ArrayRef lhs, ExprPtr rhs,
                     ExprPtr guard)
    : label_(std::move(label)),
      lhs_(std::move(lhs)),
      rhs_(std::move(rhs)),
      guard_(std::move(guard))
{
    NDP_REQUIRE(rhs_ != nullptr, "statement without RHS");
    NDP_REQUIRE(lhs_.array != kInvalidArray, "statement without LHS");
    rebuildReadCache();
}

Statement &
Statement::operator=(const Statement &other)
{
    if (this == &other)
        return *this;
    label_ = other.label_;
    lhs_ = other.lhs_;
    rhs_ = other.rhs_->clone();
    guard_ = other.guard_ ? other.guard_->clone() : nullptr;
    rebuildReadCache();
    return *this;
}

const Expr &
Statement::guard() const
{
    NDP_CHECK(guard_ != nullptr, "guard() on unguarded statement");
    return *guard_;
}

void
Statement::rebuildReadCache()
{
    reads_.clear();
    rhs_->collectRefs(reads_);
    rhsReadCount_ = reads_.size();
    if (guard_)
        guard_->collectRefs(reads_);
}

std::string
Statement::toString(const ArrayTable &arrays,
                    const std::vector<std::string> &loop_names) const
{
    std::string out;
    if (guard_) {
        out += "if (" + guard_->toString(arrays, loop_names) + ") ";
    }
    out += lhs_.toString(arrays, loop_names) + " = " +
           rhs_->toString(arrays, loop_names);
    return out;
}

LoopNest::LoopNest(std::string name, std::vector<Loop> loops,
                   std::vector<Statement> body)
    : name_(std::move(name)), loops_(std::move(loops)),
      body_(std::move(body))
{
    NDP_REQUIRE(!loops_.empty(), "loop nest '" << name_ << "' has no loops");
    NDP_REQUIRE(!body_.empty(),
                "loop nest '" << name_ << "' has an empty body");
    for (const Loop &l : loops_)
        NDP_REQUIRE(l.step > 0, "loop '" << l.var << "' has step " << l.step);
}

std::vector<std::string>
LoopNest::loopNames() const
{
    std::vector<std::string> names;
    names.reserve(loops_.size());
    for (const Loop &l : loops_)
        names.push_back(l.var);
    return names;
}

std::int64_t
LoopNest::iterationCount() const
{
    std::int64_t n = 1;
    for (const Loop &l : loops_)
        n *= l.tripCount();
    return n;
}

void
LoopNest::iterationAt(std::int64_t k, IterationVector &iter) const
{
    NDP_CHECK(k >= 0 && k < iterationCount(),
              "iteration index " << k << " out of range");
    iter.resize(loops_.size());
    std::int64_t rem = k;
    for (std::size_t d = loops_.size(); d-- > 0;) {
        const std::int64_t trips = loops_[d].tripCount();
        iter[d] = loops_[d].lower + (rem % trips) * loops_[d].step;
        rem /= trips;
    }
}

std::string
LoopNest::toString(const ArrayTable &arrays) const
{
    const std::vector<std::string> names = loopNames();
    std::string out;
    std::string indent;
    for (const Loop &l : loops_) {
        out += indent + "for " + l.var + " = " + std::to_string(l.lower) +
               ".." + std::to_string(l.upper);
        if (l.step != 1)
            out += " step " + std::to_string(l.step);
        out += " {\n";
        indent += "  ";
    }
    for (const Statement &s : body_)
        out += indent + s.label() + ": " + s.toString(arrays, names) + "\n";
    for (std::size_t d = loops_.size(); d-- > 0;) {
        indent.resize(indent.size() - 2);
        out += indent + "}\n";
    }
    return out;
}

double
analyzableFraction(const LoopNest &nest)
{
    std::int64_t total = 0;
    std::int64_t analyzable = 0;
    for (const Statement &stmt : nest.body()) {
        ++total;
        if (stmt.lhs().isAnalyzable())
            ++analyzable;
        for (const ArrayRef *ref : stmt.reads()) {
            ++total;
            if (ref->isAnalyzable())
                ++analyzable;
        }
    }
    return total == 0 ? 1.0
                      : static_cast<double>(analyzable) /
                            static_cast<double>(total);
}

} // namespace ndp::ir
