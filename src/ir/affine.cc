#include "ir/affine.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::ir {

AffineExpr
AffineExpr::constant(std::int64_t c)
{
    AffineExpr e;
    e.constant_ = c;
    return e;
}

AffineExpr
AffineExpr::term(int loop_index, std::int64_t coeff)
{
    AffineExpr e;
    e.addTerm(loop_index, coeff);
    return e;
}

void
AffineExpr::addTerm(int loop_index, std::int64_t coeff)
{
    NDP_CHECK(loop_index >= 0, "negative loop index");
    for (auto &[idx, c] : terms_) {
        if (idx == loop_index) {
            c += coeff;
            normalize();
            return;
        }
    }
    if (coeff != 0) {
        terms_.emplace_back(loop_index, coeff);
        std::sort(terms_.begin(), terms_.end());
    }
}

std::int64_t
AffineExpr::coefficient(int loop_index) const
{
    for (const auto &[idx, c] : terms_) {
        if (idx == loop_index)
            return c;
    }
    return 0;
}

std::int64_t
AffineExpr::evaluate(const IterationVector &iter) const
{
    std::int64_t value = constant_;
    for (const auto &[idx, c] : terms_) {
        NDP_CHECK(static_cast<std::size_t>(idx) < iter.size(),
                  "iteration vector too short for affine term");
        value += c * iter[static_cast<std::size_t>(idx)];
    }
    return value;
}

AffineExpr
AffineExpr::operator+(const AffineExpr &other) const
{
    AffineExpr result = *this;
    result.constant_ += other.constant_;
    for (const auto &[idx, c] : other.terms_)
        result.addTerm(idx, c);
    return result;
}

AffineExpr
AffineExpr::operator*(std::int64_t scale) const
{
    AffineExpr result;
    result.constant_ = constant_ * scale;
    if (scale != 0) {
        for (const auto &[idx, c] : terms_)
            result.terms_.emplace_back(idx, c * scale);
    }
    return result;
}

bool
AffineExpr::operator==(const AffineExpr &other) const
{
    return constant_ == other.constant_ && terms_ == other.terms_;
}

void
AffineExpr::normalize()
{
    std::erase_if(terms_, [](const auto &t) { return t.second == 0; });
    std::sort(terms_.begin(), terms_.end());
}

std::string
AffineExpr::toString(const std::vector<std::string> &loop_names) const
{
    std::string out;
    for (const auto &[idx, c] : terms_) {
        std::string name = "v";
        if (static_cast<std::size_t>(idx) < loop_names.size())
            name = loop_names[static_cast<std::size_t>(idx)];
        else
            name += std::to_string(idx);
        if (!out.empty())
            out += c >= 0 ? "+" : "";
        if (c == 1) {
            out += name;
        } else if (c == -1) {
            out += "-" + name;
        } else {
            out += std::to_string(c) + "*" + name;
        }
    }
    if (constant_ != 0 || out.empty()) {
        if (!out.empty() && constant_ >= 0)
            out += "+";
        out += std::to_string(constant_);
    }
    return out;
}

} // namespace ndp::ir
