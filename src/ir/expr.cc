#include "ir/expr.h"

#include "support/error.h"

namespace ndp::ir {

const char *
toString(OpKind op)
{
    switch (op) {
      case OpKind::Add:
        return "+";
      case OpKind::Sub:
        return "-";
      case OpKind::Mul:
        return "*";
      case OpKind::Div:
        return "/";
      case OpKind::Shl:
        return "<<";
      case OpKind::Shr:
        return ">>";
      case OpKind::And:
        return "&";
      case OpKind::Or:
        return "|";
      case OpKind::Xor:
        return "^";
      case OpKind::Min:
        return "min";
      case OpKind::Max:
        return "max";
    }
    return "?";
}

const char *
toString(OpCategory cat)
{
    switch (cat) {
      case OpCategory::AddSub:
        return "add/sub";
      case OpCategory::MulDiv:
        return "mul/div";
      case OpCategory::Other:
        return "other";
    }
    return "?";
}

std::string
ArrayRef::toString(const ArrayTable &arrays,
                   const std::vector<std::string> &loop_names) const
{
    std::string out = arrays.info(array).name;
    for (const Subscript &s : subscripts) {
        out += "[";
        if (s.isIndirect()) {
            out += arrays.info(s.indirect).name + "[" +
                   s.affine.toString(loop_names) + "]";
        } else {
            out += s.affine.toString(loop_names);
        }
        out += "]";
    }
    return out;
}

ExprPtr
Expr::ref(ArrayRef r)
{
    NDP_CHECK(r.array != kInvalidArray, "ref to invalid array");
    auto e = ExprPtr(new Expr());
    e->kind_ = Kind::Ref;
    e->ref_ = std::move(r);
    return e;
}

ExprPtr
Expr::constant(double value)
{
    auto e = ExprPtr(new Expr());
    e->kind_ = Kind::Const;
    e->value_ = value;
    return e;
}

ExprPtr
Expr::binary(OpKind op, ExprPtr lhs, ExprPtr rhs)
{
    NDP_CHECK(lhs && rhs, "binary expr with null child");
    auto e = ExprPtr(new Expr());
    e->kind_ = Kind::Binary;
    e->op_ = op;
    e->lhs_ = std::move(lhs);
    e->rhs_ = std::move(rhs);
    return e;
}

double
Expr::asConstant() const
{
    NDP_CHECK(kind_ == Kind::Const, "asConstant() on non-const expr");
    return value_;
}

OpKind
Expr::op() const
{
    NDP_CHECK(kind_ == Kind::Binary, "op() on non-binary expr");
    return op_;
}

const Expr &
Expr::lhs() const
{
    NDP_CHECK(kind_ == Kind::Binary, "lhs() on non-binary expr");
    return *lhs_;
}

const Expr &
Expr::rhs() const
{
    NDP_CHECK(kind_ == Kind::Binary, "rhs() on non-binary expr");
    return *rhs_;
}

ExprPtr
Expr::clone() const
{
    switch (kind_) {
      case Kind::Ref:
        return ref(ref_);
      case Kind::Const:
        return constant(value_);
      case Kind::Binary:
        return binary(op_, lhs_->clone(), rhs_->clone());
    }
    ndp::panic("unreachable expr kind");
}

void
Expr::collectRefs(std::vector<const ArrayRef *> &out) const
{
    switch (kind_) {
      case Kind::Ref:
        out.push_back(&ref_);
        return;
      case Kind::Const:
        return;
      case Kind::Binary:
        lhs_->collectRefs(out);
        rhs_->collectRefs(out);
        return;
    }
}

void
Expr::countOps(std::int64_t counts[3]) const
{
    if (kind_ != Kind::Binary)
        return;
    ++counts[static_cast<int>(opCategory(op_))];
    lhs_->countOps(counts);
    rhs_->countOps(counts);
}

std::int64_t
Expr::totalOpCost() const
{
    if (kind_ != Kind::Binary)
        return 0;
    return opCost(op_) + lhs_->totalOpCost() + rhs_->totalOpCost();
}

std::string
Expr::toString(const ArrayTable &arrays,
               const std::vector<std::string> &loop_names) const
{
    switch (kind_) {
      case Kind::Ref:
        return ref_.toString(arrays, loop_names);
      case Kind::Const: {
        std::string s = std::to_string(value_);
        // Trim trailing zeros for readability.
        while (s.size() > 1 && s.back() == '0')
            s.pop_back();
        if (!s.empty() && s.back() == '.')
            s.pop_back();
        return s;
      }
      case Kind::Binary: {
        auto wrap = [&](const Expr &child) {
            std::string text = child.toString(arrays, loop_names);
            if (child.kind() == Kind::Binary &&
                opPrecedence(child.op()) < opPrecedence(op_)) {
                return "(" + text + ")";
            }
            return text;
        };
        return wrap(*lhs_) + " " + ndp::ir::toString(op_) + " " +
               wrap(*rhs_);
      }
    }
    ndp::panic("unreachable expr kind");
}

} // namespace ndp::ir
