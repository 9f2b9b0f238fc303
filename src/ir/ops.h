#ifndef NDP_IR_OPS_H
#define NDP_IR_OPS_H

/**
 * @file
 * Operator kinds appearing in statement right-hand sides, their
 * precedence classes (used to build the paper's nested variable sets),
 * and their costs (Section 4.5: division is 10x costlier than
 * addition/multiplication for load-balancing purposes) and Table 3
 * categories (add/sub vs mul/div vs shift/logical/others).
 */

#include <cstdint>

namespace ndp::ir {

/** Binary operators supported in statement bodies. */
enum class OpKind : std::uint8_t
{
    Add,
    Sub,
    Mul,
    Div,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Min,
    Max,
};

/**
 * Associative precedence class. Runs of operators in the same class
 * flatten into one nested-set level (Section 4.2).
 */
enum class OpClass : std::uint8_t
{
    AddLike, ///< + and -
    MulLike, ///< * and /
    Shift,   ///< << and >>
    Logical, ///< & | ^
    MinMax,  ///< min / max
};

/** Table 3 reporting buckets. */
enum class OpCategory : std::uint8_t
{
    AddSub,
    MulDiv,
    Other, ///< shift, logical, min/max
};

constexpr OpClass
opClass(OpKind op)
{
    switch (op) {
      case OpKind::Add:
      case OpKind::Sub:
        return OpClass::AddLike;
      case OpKind::Mul:
      case OpKind::Div:
        return OpClass::MulLike;
      case OpKind::Shl:
      case OpKind::Shr:
        return OpClass::Shift;
      case OpKind::And:
      case OpKind::Or:
      case OpKind::Xor:
        return OpClass::Logical;
      case OpKind::Min:
      case OpKind::Max:
        return OpClass::MinMax;
    }
    return OpClass::AddLike;
}

constexpr OpCategory
opCategory(OpKind op)
{
    switch (opClass(op)) {
      case OpClass::AddLike:
        return OpCategory::AddSub;
      case OpClass::MulLike:
        return OpCategory::MulDiv;
      default:
        return OpCategory::Other;
    }
}

/**
 * Parser/printer precedence (higher binds tighter). MulLike > AddLike;
 * shifts below AddLike and logical lowest, mirroring C.
 */
constexpr int
opPrecedence(OpKind op)
{
    switch (opClass(op)) {
      case OpClass::MulLike:
        return 5;
      case OpClass::AddLike:
        return 4;
      case OpClass::Shift:
        return 3;
      case OpClass::MinMax:
        return 2;
      case OpClass::Logical:
        return 1;
    }
    return 0;
}

/**
 * Load-balancing cost of performing one operation (Section 4.5
 * footnote: division counts 10x an addition/multiplication).
 */
constexpr std::int64_t
opCost(OpKind op)
{
    return op == OpKind::Div ? 10 : 1;
}

const char *toString(OpKind op);
const char *toString(OpCategory cat);

} // namespace ndp::ir

#endif // NDP_IR_OPS_H
