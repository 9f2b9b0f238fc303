#include "ir/parser.h"

#include <cctype>
#include <optional>
#include <vector>

#include "support/error.h"

namespace ndp::ir {

namespace {

enum class TokKind
{
    End,
    Ident,
    Int,
    Float,
    Symbol, // single or double char punctuation / operator
};

struct Token
{
    TokKind kind = TokKind::End;
    std::string text;
    std::int64_t intValue = 0;
    double floatValue = 0.0;
    int line = 1;
    int col = 1;
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src)
        : src_(src)
    {
        advance();
    }

    const Token &peek() const { return tok_; }

    Token
    next()
    {
        Token t = tok_;
        advance();
        return t;
    }

    [[noreturn]] void
    error(const std::string &msg) const
    {
        fatal("parse error at line " + std::to_string(tok_.line) +
              ", col " + std::to_string(tok_.col) + ": " + msg +
              (tok_.kind == TokKind::End ? " (at end of input)"
                                         : " (near '" + tok_.text + "')"));
    }

  private:
    void
    skipSpace()
    {
        for (;;) {
            while (pos_ < src_.size() &&
                   std::isspace(static_cast<unsigned char>(src_[pos_]))) {
                bump();
            }
            // Line comments: // or #
            if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
                src_[pos_ + 1] == '/') {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    bump();
            } else if (pos_ < src_.size() && src_[pos_] == '#') {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    bump();
            } else {
                return;
            }
        }
    }

    void
    bump()
    {
        if (src_[pos_] == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        ++pos_;
    }

    void
    advance()
    {
        skipSpace();
        tok_ = Token();
        tok_.line = line_;
        tok_.col = col_;
        if (pos_ >= src_.size()) {
            tok_.kind = TokKind::End;
            return;
        }
        const char c = src_[pos_];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            while (pos_ < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '_')) {
                tok_.text += src_[pos_];
                bump();
            }
            tok_.kind = TokKind::Ident;
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            bool is_float = false;
            while (pos_ < src_.size() &&
                   (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '.')) {
                // ".." is the range operator, not a decimal point.
                if (src_[pos_] == '.') {
                    if (pos_ + 1 < src_.size() && src_[pos_ + 1] == '.')
                        break;
                    is_float = true;
                }
                tok_.text += src_[pos_];
                bump();
            }
            // stod/stoll throw std::out_of_range on huge literals;
            // surface that as a located parse error, not a crash.
            try {
                if (is_float) {
                    tok_.kind = TokKind::Float;
                    tok_.floatValue = std::stod(tok_.text);
                } else {
                    tok_.kind = TokKind::Int;
                    tok_.intValue = std::stoll(tok_.text);
                }
            } catch (const std::exception &) {
                error("numeric literal '" + tok_.text +
                      "' out of range");
            }
            return;
        }
        // Two-character symbols first.
        static const char *two_char[] = {"..", "<<", ">>"};
        for (const char *s : two_char) {
            if (src_.compare(pos_, 2, s) == 0) {
                tok_.kind = TokKind::Symbol;
                tok_.text = s;
                bump();
                bump();
                return;
            }
        }
        tok_.kind = TokKind::Symbol;
        tok_.text = std::string(1, c);
        bump();
    }

    const std::string &src_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
    Token tok_;
};

class Parser
{
  public:
    Parser(const std::string &src, const std::string &name,
           ArrayTable &arrays, const ParamMap &params)
        : lex_(src), name_(name), arrays_(arrays), params_(params)
    {}

    LoopNest
    parse()
    {
        while (peekIs("array"))
            parseArrayDecl();
        expectIdent("for");
        parseLoop();
        if (lex_.peek().kind != TokKind::End)
            lex_.error("trailing input after loop nest");
        if (statements_.empty())
            lex_.error("kernel '" + name_ + "' has no statements");
        return LoopNest(name_, std::move(loops_), std::move(statements_));
    }

  private:
    bool
    peekIs(const std::string &text) const
    {
        return lex_.peek().text == text;
    }

    bool
    acceptSymbol(const std::string &text)
    {
        if (lex_.peek().kind == TokKind::Symbol && peekIs(text)) {
            lex_.next();
            return true;
        }
        return false;
    }

    void
    expectSymbol(const std::string &text)
    {
        if (!acceptSymbol(text))
            lex_.error("expected '" + text + "'");
    }

    std::string
    expectAnyIdent()
    {
        if (lex_.peek().kind != TokKind::Ident)
            lex_.error("expected identifier");
        return lex_.next().text;
    }

    void
    expectIdent(const std::string &text)
    {
        if (lex_.peek().kind != TokKind::Ident || !peekIs(text))
            lex_.error("expected '" + text + "'");
        lex_.next();
    }

    /** Integer-valued size expression: ints, params, + - * /. */
    std::int64_t
    parseSizeExpr()
    {
        std::int64_t value = parseSizeTerm();
        for (;;) {
            if (acceptSymbol("+")) {
                value += parseSizeTerm();
            } else if (acceptSymbol("-")) {
                value -= parseSizeTerm();
            } else {
                return value;
            }
        }
    }

    std::int64_t
    parseSizeTerm()
    {
        std::int64_t value = parseSizeAtom();
        for (;;) {
            if (acceptSymbol("*")) {
                value *= parseSizeAtom();
            } else if (acceptSymbol("/")) {
                const std::int64_t d = parseSizeAtom();
                if (d == 0)
                    lex_.error("division by zero in size expression");
                value /= d;
            } else {
                return value;
            }
        }
    }

    std::int64_t
    parseSizeAtom()
    {
        const Token &t = lex_.peek();
        if (t.kind == TokKind::Int)
            return lex_.next().intValue;
        if (t.kind == TokKind::Ident) {
            const auto it = params_.find(t.text);
            if (it == params_.end())
                lex_.error("unknown size parameter '" + t.text + "'");
            lex_.next();
            return it->second;
        }
        if (acceptSymbol("(")) {
            const std::int64_t v = parseSizeExpr();
            expectSymbol(")");
            return v;
        }
        lex_.error("expected integer, parameter, or '('");
    }

    void
    parseArrayDecl()
    {
        expectIdent("array");
        const std::string name = expectAnyIdent();
        // Validate here, not in ArrayTable::create, so the diagnostic
        // carries the source location like every other parse error.
        if (arrays_.find(name) != kInvalidArray)
            lex_.error("duplicate array '" + name + "'");
        std::vector<std::int64_t> extents;
        while (acceptSymbol("[")) {
            extents.push_back(parseSizeExpr());
            if (extents.back() <= 0) {
                lex_.error("array '" + name + "' has non-positive extent " +
                           std::to_string(extents.back()));
            }
            expectSymbol("]");
        }
        if (extents.empty())
            lex_.error("array '" + name + "' needs at least one extent");
        std::uint32_t elem_size = 0; // table default
        if (lex_.peek().kind == TokKind::Ident && peekIs("bytes")) {
            // Optional: "array A[N] bytes 4;"
            lex_.next();
            const std::int64_t bytes = parseSizeExpr();
            if (bytes <= 0 || bytes > (1 << 20))
                lex_.error("array '" + name + "' has bad element size " +
                           std::to_string(bytes));
            elem_size = static_cast<std::uint32_t>(bytes);
        }
        arrays_.create(name, std::move(extents), elem_size);
        expectSymbol(";");
    }

    int
    loopIndexOf(const std::string &var) const
    {
        for (std::size_t i = 0; i < loops_.size(); ++i) {
            if (loops_[i].var == var)
                return static_cast<int>(i);
        }
        return -1;
    }

    void
    parseLoop()
    {
        // "for" already consumed by caller.
        Loop loop;
        loop.var = expectAnyIdent();
        if (loopIndexOf(loop.var) >= 0)
            lex_.error("duplicate loop variable '" + loop.var + "'");
        expectSymbol("=");
        loop.lower = parseSizeExpr();
        expectSymbol("..");
        loop.upper = parseSizeExpr();
        if (lex_.peek().kind == TokKind::Ident && peekIs("step")) {
            lex_.next();
            loop.step = parseSizeExpr();
        }
        if (loop.tripCount() <= 0)
            lex_.error("loop '" + loop.var + "' has an empty range");
        loops_.push_back(loop);
        expectSymbol("{");
        if (lex_.peek().kind == TokKind::Ident && peekIs("for")) {
            lex_.next();
            parseLoop();
        } else {
            while (!peekIs("}"))
                parseStatement();
        }
        expectSymbol("}");
    }

    void
    parseStatement()
    {
        std::string label;
        ExprPtr guard;
        if (lex_.peek().kind == TokKind::Ident && peekIs("if")) {
            lex_.next();
            expectSymbol("(");
            guard = parseExpr(0);
            expectSymbol(")");
        }
        // Lookahead to distinguish "label:" from "ref = ...".
        if (lex_.peek().kind != TokKind::Ident)
            lex_.error("expected statement");
        const std::string first = lex_.next().text;
        if (acceptSymbol(":")) {
            label = first;
        } else {
            // `first` begins the LHS reference; put it back logically by
            // parsing the ref with a pre-read name.
            ArrayRef lhs = parseRefWithName(first);
            finishStatement(std::move(label), std::move(lhs),
                            std::move(guard));
            return;
        }
        if (!guard && lex_.peek().kind == TokKind::Ident && peekIs("if")) {
            lex_.next();
            expectSymbol("(");
            guard = parseExpr(0);
            expectSymbol(")");
        }
        const std::string lhs_name = expectAnyIdent();
        ArrayRef lhs = parseRefWithName(lhs_name);
        finishStatement(std::move(label), std::move(lhs), std::move(guard));
    }

    void
    finishStatement(std::string label, ArrayRef lhs, ExprPtr guard)
    {
        expectSymbol("=");
        ExprPtr rhs = parseExpr(0);
        expectSymbol(";");
        if (label.empty()) {
            label = "S";
            label += std::to_string(statements_.size() + 1);
        }
        statements_.emplace_back(std::move(label), std::move(lhs),
                                 std::move(rhs), std::move(guard));
    }

    ArrayId
    arrayOrError(const std::string &name)
    {
        const ArrayId id = arrays_.find(name);
        if (id == kInvalidArray)
            lex_.error("unknown array '" + name + "'");
        return id;
    }

    /** Parse subscripts for array @p name (already consumed). */
    ArrayRef
    parseRefWithName(const std::string &name)
    {
        ArrayRef ref;
        ref.array = arrayOrError(name);
        while (acceptSymbol("["))
            ref.subscripts.push_back(parseSubscript());
        const std::size_t dims = arrays_.info(ref.array).extents.size();
        if (ref.subscripts.size() != dims) {
            lex_.error("array '" + name + "' expects " +
                       std::to_string(dims) + " subscripts");
        }
        return ref;
    }

    /** One "[...]" body; the ']' is consumed here. */
    Subscript
    parseSubscript()
    {
        // Indirect form: ArrayName [ affine ] — detect by the next
        // identifier naming a known array followed by '['.
        if (lex_.peek().kind == TokKind::Ident &&
            arrays_.find(lex_.peek().text) != kInvalidArray) {
            const std::string inner = lex_.next().text;
            expectSymbol("[");
            AffineExpr idx = parseAffine();
            expectSymbol("]");
            expectSymbol("]");
            return Subscript::throughArray(arrayOrError(inner),
                                           std::move(idx));
        }
        AffineExpr idx = parseAffine();
        expectSymbol("]");
        return Subscript::direct(std::move(idx));
    }

    /** Affine expression over loop variables, params, and integers. */
    AffineExpr
    parseAffine()
    {
        AffineExpr expr = parseAffineTerm(+1);
        for (;;) {
            if (acceptSymbol("+")) {
                expr = expr + parseAffineTerm(+1);
            } else if (acceptSymbol("-")) {
                expr = expr + parseAffineTerm(-1);
            } else {
                return expr;
            }
        }
    }

    AffineExpr
    parseAffineTerm(int sign)
    {
        // term := int | int '*' var | var | var '*' int | param ...
        std::optional<std::int64_t> coeff;
        std::optional<int> var;
        auto absorb = [&](const Token &t) {
            if (t.kind == TokKind::Int) {
                coeff = coeff.value_or(1) * t.intValue;
                return;
            }
            const int li = loopIndexOf(t.text);
            if (li >= 0) {
                if (var)
                    lex_.error("non-affine subscript (var * var)");
                var = li;
                return;
            }
            const auto it = params_.find(t.text);
            if (it == params_.end())
                lex_.error("unknown name '" + t.text + "' in subscript");
            coeff = coeff.value_or(1) * it->second;
        };
        absorb(lex_.next());
        while (acceptSymbol("*"))
            absorb(lex_.next());
        AffineExpr e;
        const std::int64_t c = sign * coeff.value_or(1);
        if (var) {
            e.addTerm(*var, c);
        } else {
            e.addConstant(c);
        }
        return e;
    }

    /** Precedence-climbing RHS expression parser. */
    ExprPtr
    parseExpr(int min_prec)
    {
        ExprPtr lhs = parsePrimary();
        for (;;) {
            const std::optional<OpKind> op = peekBinaryOp();
            if (!op || opPrecedence(*op) < min_prec)
                return lhs;
            lex_.next();
            ExprPtr rhs = parseExpr(opPrecedence(*op) + 1);
            lhs = Expr::binary(*op, std::move(lhs), std::move(rhs));
        }
    }

    std::optional<OpKind>
    peekBinaryOp() const
    {
        const Token &t = lex_.peek();
        if (t.kind != TokKind::Symbol)
            return std::nullopt;
        if (t.text == "+")
            return OpKind::Add;
        if (t.text == "-")
            return OpKind::Sub;
        if (t.text == "*")
            return OpKind::Mul;
        if (t.text == "/")
            return OpKind::Div;
        if (t.text == "<<")
            return OpKind::Shl;
        if (t.text == ">>")
            return OpKind::Shr;
        if (t.text == "&")
            return OpKind::And;
        if (t.text == "|")
            return OpKind::Or;
        if (t.text == "^")
            return OpKind::Xor;
        return std::nullopt;
    }

    ExprPtr
    parsePrimary()
    {
        const Token &t = lex_.peek();
        if (t.kind == TokKind::Int) {
            return Expr::constant(
                static_cast<double>(lex_.next().intValue));
        }
        if (t.kind == TokKind::Float)
            return Expr::constant(lex_.next().floatValue);
        if (acceptSymbol("(")) {
            ExprPtr e = parseExpr(0);
            expectSymbol(")");
            return e;
        }
        if (t.kind == TokKind::Ident) {
            if (t.text == "min" || t.text == "max") {
                const OpKind op =
                    t.text == "min" ? OpKind::Min : OpKind::Max;
                lex_.next();
                expectSymbol("(");
                ExprPtr a = parseExpr(0);
                expectSymbol(",");
                ExprPtr b = parseExpr(0);
                expectSymbol(")");
                return Expr::binary(op, std::move(a), std::move(b));
            }
            const std::string name = lex_.next().text;
            return Expr::ref(parseRefWithName(name));
        }
        lex_.error("expected expression");
    }

    Lexer lex_;
    std::string name_;
    ArrayTable &arrays_;
    const ParamMap &params_;
    std::vector<Loop> loops_;
    std::vector<Statement> statements_;
};

} // namespace

LoopNest
parseKernel(const std::string &source, const std::string &name,
            ArrayTable &arrays, const ParamMap &params)
{
    return Parser(source, name, arrays, params).parse();
}

} // namespace ndp::ir
