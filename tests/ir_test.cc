/**
 * @file
 * Tests for the compiler IR: affine expressions, arrays, expression
 * trees, the kernel parser, the paper's nested variable sets
 * (Section 4.2), the instance resolver, and Table 1's analyzable
 * fraction.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "ir/instance.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "support/error.h"

namespace {

using namespace ndp;
using namespace ndp::ir;

// ----------------------------------------------------------- AffineExpr

TEST(AffineExprTest, EvaluateConstantsAndTerms)
{
    EXPECT_EQ(AffineExpr::constant(7).evaluate({}), 7);
    AffineExpr e = AffineExpr::term(0, 2); // 2*i
    e.addTerm(1, -1);                      // -j
    e.addConstant(5);
    EXPECT_EQ(e.evaluate({3, 4}), 2 * 3 - 4 + 5);
}

TEST(AffineExprTest, AdditionAndScaling)
{
    const AffineExpr a = AffineExpr::term(0) + AffineExpr::constant(1);
    const AffineExpr b = a * 3;
    EXPECT_EQ(b.evaluate({2}), 9);
    const AffineExpr c = a + b; // 4i + 4
    EXPECT_EQ(c.evaluate({1}), 8);
}

TEST(AffineExprTest, ZeroCoefficientsVanish)
{
    AffineExpr e = AffineExpr::term(0, 2);
    e.addTerm(0, -2);
    EXPECT_TRUE(e.isConstant());
    EXPECT_EQ(e.coefficient(0), 0);
}

TEST(AffineExprTest, Equality)
{
    AffineExpr a = AffineExpr::term(0);
    a.addConstant(1);
    AffineExpr b = AffineExpr::constant(1);
    b.addTerm(0, 1);
    EXPECT_TRUE(a == b);
}

TEST(AffineExprTest, ToStringReadable)
{
    AffineExpr e = AffineExpr::term(0, 2);
    e.addConstant(-1);
    EXPECT_EQ(e.toString({"i"}), "2*i-1");
    EXPECT_EQ(AffineExpr::constant(0).toString({}), "0");
    EXPECT_EQ(AffineExpr::term(0).toString({"i"}), "i");
}

// ------------------------------------------------------------ArrayTable

TEST(ArrayTableTest, CreateAndLookup)
{
    ArrayTable arrays;
    const ArrayId a = arrays.create("A", {128});
    const ArrayId b = arrays.create("B", {16, 8});
    EXPECT_EQ(arrays.find("A"), a);
    EXPECT_EQ(arrays.find("B"), b);
    EXPECT_EQ(arrays.find("missing"), kInvalidArray);
    EXPECT_EQ(arrays.info(b).elementCount(), 128);
    EXPECT_EQ(arrays.size(), 2u);
}

TEST(ArrayTableTest, RejectsBadArrays)
{
    ArrayTable arrays;
    arrays.create("A", {8});
    EXPECT_THROW(arrays.create("A", {8}), FatalError);   // duplicate
    EXPECT_THROW(arrays.create("B", {}), FatalError);    // no extents
    EXPECT_THROW(arrays.create("C", {0}), FatalError);   // empty extent
    EXPECT_THROW(arrays.create("", {4}), FatalError);    // no name
}

TEST(ArrayTableTest, ArraysNeverSharePages)
{
    ArrayTable arrays;
    const ArrayId a = arrays.create("A", {3}); // tiny
    const ArrayId b = arrays.create("B", {3});
    const mem::Addr a_last =
        arrays.info(a).base + arrays.info(a).sizeBytes() - 1;
    EXPECT_LT(mem::pageNumber(a_last),
              mem::pageNumber(arrays.info(b).base));
}

TEST(ArrayTableTest, BasesAreLineStaggeredAcrossArrays)
{
    ArrayTable arrays;
    std::set<mem::Addr> offsets;
    for (int i = 0; i < 6; ++i) {
        std::string name = "A";
        name += std::to_string(i);
        const ArrayId id = arrays.create(name, {64});
        offsets.insert(arrays.info(id).base % mem::kPageSize);
    }
    // Not all arrays may start at the same in-page offset (set-conflict
    // avoidance).
    EXPECT_GT(offsets.size(), 1u);
}

TEST(ArrayTableTest, ElementAddressing)
{
    ArrayTable arrays;
    arrays.setDefaultElementSize(8);
    const ArrayId m = arrays.create("M", {4, 5});
    const mem::Addr base = arrays.info(m).base;
    EXPECT_EQ(arrays.flatIndex(m, {2, 3}), 2 * 5 + 3);
    EXPECT_EQ(arrays.elementAddr(m, arrays.flatIndex(m, {2, 3})),
              base + (2 * 5 + 3) * 8);
    // Out-of-range indices wrap (synthetic index tables stay in range).
    EXPECT_EQ(arrays.flatIndex(m, {6, 3}), arrays.flatIndex(m, {2, 3}));
    EXPECT_EQ(arrays.flatIndex(m, {-1, 0}), arrays.flatIndex(m, {3, 0}));
}

TEST(ArrayTableTest, DefaultElementSizeApplies)
{
    ArrayTable arrays;
    arrays.setDefaultElementSize(64);
    const ArrayId a = arrays.create("A", {4});
    EXPECT_EQ(arrays.info(a).elementSize, 64u);
    const ArrayId b = arrays.create("B", {4}, 16);
    EXPECT_EQ(arrays.info(b).elementSize, 16u);
}

TEST(ArrayTableTest, IndexData)
{
    ArrayTable arrays;
    const ArrayId idx = arrays.create("IDX", {4});
    EXPECT_FALSE(arrays.hasIndexData(idx));
    arrays.setIndexData(idx, {3, 1, 2, 0});
    EXPECT_TRUE(arrays.hasIndexData(idx));
    EXPECT_EQ(arrays.indexValue(idx, 0), 3);
    EXPECT_EQ(arrays.indexValue(idx, 3), 0);
    // Size mismatch rejected.
    EXPECT_THROW(arrays.setIndexData(idx, {1, 2}), FatalError);
}

// ------------------------------------------------------------ Expr tree

TEST(ExprTest, CollectRefsLeftToRight)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[8]; array B[8]; array C[8]; array D[8];
        for i = 0..8 { A[i] = B[i] + C[i] * D[i]; })",
                                "t", arrays);
    const Statement &stmt = nest.body().front();
    ASSERT_EQ(stmt.reads().size(), 3u);
    EXPECT_EQ(stmt.reads()[0]->array, arrays.find("B"));
    EXPECT_EQ(stmt.reads()[1]->array, arrays.find("C"));
    EXPECT_EQ(stmt.reads()[2]->array, arrays.find("D"));
}

TEST(ExprTest, CountOpsByCategory)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array d[8]; array x[8];
        for i = 0..8 { x[i] = a[i] + b[i] * c[i] - (d[i] >> 2); })",
                                "t", arrays);
    std::int64_t counts[3] = {0, 0, 0};
    nest.body().front().countOps(counts);
    EXPECT_EQ(counts[static_cast<int>(OpCategory::AddSub)], 2);
    EXPECT_EQ(counts[static_cast<int>(OpCategory::MulDiv)], 1);
    EXPECT_EQ(counts[static_cast<int>(OpCategory::Other)], 1);
}

TEST(ExprTest, OpCostDivisionTenX)
{
    // Section 4.5 footnote: division is 10x add/mul.
    EXPECT_EQ(opCost(OpKind::Div), 10);
    EXPECT_EQ(opCost(OpKind::Add), 1);
    EXPECT_EQ(opCost(OpKind::Mul), 1);
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array x[8];
        for i = 0..8 { x[i] = a[i] / b[i] + a[i]; })",
                                "t", arrays);
    EXPECT_EQ(nest.body().front().totalOpCost(), 11);
}

TEST(ExprTest, ToStringPreservesStructure)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array x[8];
        for i = 0..8 { x[i] = a[i] * (b[i] + c[i]); })",
                                "t", arrays);
    const std::string text =
        nest.body().front().toString(arrays, nest.loopNames());
    EXPECT_NE(text.find("a[i] * (b[i] + c[i])"), std::string::npos);
}

TEST(ExprTest, CloneIsDeep)
{
    ExprPtr c = Expr::constant(2.5);
    ExprPtr clone = c->clone();
    EXPECT_EQ(clone->asConstant(), 2.5);
    EXPECT_NE(c.get(), clone.get());
}

// --------------------------------------------------------------- Parser

TEST(ParserTest, ParsesMultiStatementLoop)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[N]; array B[N]; array C[N]; array X[N]; array Y[N];
        for i = 0..N {
          S1: A[i] = B[i] + C[i];
          S2: X[i] = Y[i] + C[i];
        })",
                                "two", arrays, {{"N", 64}});
    EXPECT_EQ(nest.name(), "two");
    EXPECT_EQ(nest.loops().size(), 1u);
    EXPECT_EQ(nest.iterationCount(), 64);
    ASSERT_EQ(nest.body().size(), 2u);
    EXPECT_EQ(nest.body()[0].label(), "S1");
    EXPECT_EQ(nest.body()[1].label(), "S2");
}

TEST(ParserTest, AutoLabelsWhenOmitted)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[8]; array B[8];
        for i = 0..8 { A[i] = B[i]; B[i] = A[i]; })",
                                "t", arrays);
    EXPECT_EQ(nest.body()[0].label(), "S1");
    EXPECT_EQ(nest.body()[1].label(), "S2");
}

TEST(ParserTest, TwoDimensionalNest)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[M][M]; array B[M][M];
        for i = 1..M-1 { for j = 1..M-1 {
          A[i][j] = B[i-1][j] + B[i+1][j] + B[i][j-1] + B[i][j+1];
        } })",
                                "stencil", arrays, {{"M", 10}});
    EXPECT_EQ(nest.loops().size(), 2u);
    EXPECT_EQ(nest.iterationCount(), 64);
    const Statement &stmt = nest.body().front();
    EXPECT_EQ(stmt.reads().size(), 4u);
    // Subscript B[i-1][j]: first dim affine with coeff 1, const -1.
    const Subscript &s = stmt.reads()[0]->subscripts[0];
    EXPECT_EQ(s.affine.coefficient(0), 1);
    EXPECT_EQ(s.affine.constantPart(), -1);
}

TEST(ParserTest, IndirectSubscripts)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array X[32]; array Y[32]; array Z[32];
        for i = 0..32 { Z[i] = X[Y[i]]; })",
                                "gather", arrays);
    const ArrayRef &ref = *nest.body().front().reads()[0];
    ASSERT_EQ(ref.subscripts.size(), 1u);
    EXPECT_TRUE(ref.subscripts[0].isIndirect());
    EXPECT_EQ(ref.subscripts[0].indirect, arrays.find("Y"));
    EXPECT_FALSE(ref.isAnalyzable());
    EXPECT_TRUE(nest.body().front().lhs().isAnalyzable());
}

TEST(ParserTest, GuardedStatement)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[8]; array B[8]; array H[8];
        for i = 0..8 { S1: if (H[i]) A[i] = B[i]; })",
                                "guard", arrays);
    const Statement &stmt = nest.body().front();
    EXPECT_TRUE(stmt.hasGuard());
    // Guard reads come after RHS reads.
    ASSERT_EQ(stmt.reads().size(), 2u);
    EXPECT_EQ(stmt.rhsReadCount(), 1u);
    EXPECT_EQ(stmt.reads()[1]->array, arrays.find("H"));
}

TEST(ParserTest, PrecedenceAndParentheses)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array x[8];
        for i = 0..8 {
          S1: x[i] = a[i] + b[i] * c[i];
          S2: x[i] = (a[i] + b[i]) * c[i];
        })",
                                "prec", arrays);
    // S1 top-level op is +, S2 is *.
    EXPECT_EQ(nest.body()[0].rhs().op(), OpKind::Add);
    EXPECT_EQ(nest.body()[1].rhs().op(), OpKind::Mul);
}

TEST(ParserTest, MinMaxAndBitwise)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array x[8];
        for i = 0..8 {
          S1: x[i] = min(a[i], b[i]) + max(a[i], b[i]);
          S2: x[i] = (a[i] >> 2) & b[i] | a[i] ^ b[i];
        })",
                                "ops", arrays);
    std::int64_t counts[3] = {0, 0, 0};
    nest.body()[1].countOps(counts);
    EXPECT_EQ(counts[static_cast<int>(OpCategory::Other)], 4);
}

TEST(ParserTest, StepLoops)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[64]; array B[64];
        for i = 0..64 step 4 { A[i] = B[i]; })",
                                "strided", arrays);
    EXPECT_EQ(nest.iterationCount(), 16);
    IterationVector iter;
    nest.iterationAt(2, iter);
    EXPECT_EQ(iter, (IterationVector{8}));
}

TEST(ParserTest, CommentsAndByteSuffix)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        // a comment
        array A[8] bytes 16;  # another comment
        array B[8];
        for i = 0..8 { A[i] = B[i]; })",
                                "c", arrays);
    EXPECT_EQ(arrays.info(arrays.find("A")).elementSize, 16u);
    EXPECT_EQ(nest.body().size(), 1u);
}

TEST(ParserTest, SizeExpressions)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[2*N+1];
        for i = 0..N/2 { A[i] = A[i+1]; })",
                                "sz", arrays, {{"N", 10}});
    EXPECT_EQ(arrays.info(arrays.find("A")).extents[0], 21);
    EXPECT_EQ(nest.iterationCount(), 5);
}

TEST(ParserTest, ErrorDiagnostics)
{
    ArrayTable arrays;
    const ParamMap params = {{"N", 8}};
    // Unknown array.
    EXPECT_THROW(parseKernel("for i = 0..N { A[i] = A[i]; }", "e",
                             arrays, params),
                 FatalError);
    // Wrong subscript count.
    EXPECT_THROW(parseKernel(R"(
        array A[4][4];
        for i = 0..4 { A[i] = A[i]; })",
                             "e2", arrays, params),
                 FatalError);
    // Unknown parameter.
    ArrayTable arrays2;
    EXPECT_THROW(parseKernel("array A[Q]; for i = 0..4 { A[i] = A[i]; }",
                             "e3", arrays2, params),
                 FatalError);
    // Missing semicolon.
    ArrayTable arrays3;
    EXPECT_THROW(parseKernel(R"(
        array A[4];
        for i = 0..4 { A[i] = A[i] })",
                             "e4", arrays3, params),
                 FatalError);
    // Empty loop range.
    ArrayTable arrays4;
    EXPECT_THROW(parseKernel(R"(
        array A[4];
        for i = 4..4 { A[i] = A[i]; })",
                             "e5", arrays4, params),
                 FatalError);
    // Non-affine subscript.
    ArrayTable arrays5;
    EXPECT_THROW(parseKernel(R"(
        array A[16];
        for i = 0..4 { for j = 0..4 { A[i*j] = A[i]; } })",
                             "e6", arrays5, params),
                 FatalError);
}

TEST(ParserTest, ErrorMentionsLine)
{
    ArrayTable arrays;
    try {
        parseKernel("array A[4];\nfor i = 0..4 { A[i] = ; }", "e",
                    arrays);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------- LoopNest

TEST(LoopNestTest, IterationEnumerationLexicographic)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[2][3];
        for i = 0..2 { for j = 0..3 { A[i][j] = A[i][j]; } })",
                                "t", arrays);
    const std::vector<IterationVector> expected = {
        {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}};
    ASSERT_EQ(nest.iterationCount(), 6);
    IterationVector iter;
    for (std::int64_t k = 0; k < 6; ++k) {
        nest.iterationAt(k, iter);
        EXPECT_EQ(iter, expected[static_cast<std::size_t>(k)]) << k;
    }
}

TEST(LoopNestTest, RejectsMoreIterationsThanATaskNumbers)
{
    // Tasks number iterations in 32 bits: 2^31 - 1 iterations are a
    // nest, 2^31 are rejected when the nest is built, before anything
    // resolves it.
    ArrayTable arrays;
    const LoopNest widest = parseKernel(R"(
        array A[4];
        for i = 0..2147483647 { A[0] = A[1]; })",
                                        "widest", arrays);
    EXPECT_EQ(widest.iterationCount(), 2147483647);
    try {
        parseKernel(R"(
            array B[4];
            for i = 0..65536 { for j = 0..32768 { B[0] = B[1]; } })",
                    "too_big", arrays);
        FAIL() << "a nest of 2^31 iterations was built";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'too_big'"), std::string::npos) << what;
        EXPECT_NE(what.find("2147483647"), std::string::npos) << what;
    }
}

TEST(LoopNestTest, ToStringShowsStructure)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[4]; array B[4];
        for i = 0..4 { S1: A[i] = B[i]; })",
                                "t", arrays);
    const std::string text = nest.toString(arrays);
    EXPECT_NE(text.find("for i = 0..4"), std::string::npos);
    EXPECT_NE(text.find("S1: A[i] = B[i]"), std::string::npos);
}

// ------------------------------------------------------ Nested variable sets

TEST(NestedSetsTest, FlatSumIsOneLevel)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[8]; array B[8]; array C[8]; array D[8]; array E[8];
        for i = 0..8 { A[i] = B[i] + C[i] + D[i] + E[i]; })",
                                "t", arrays);
    const VarSet sets = buildVarSets(nest.body().front());
    EXPECT_EQ(sets.cls, OpClass::AddLike);
    EXPECT_EQ(sets.elems.size(), 4u);
    EXPECT_EQ(sets.leafCount(), 4u);
    EXPECT_EQ(sets.depth(), 1u);
    for (const auto &e : sets.elems)
        EXPECT_TRUE(e.isLeaf());
}

TEST(NestedSetsTest, PaperExampleNesting)
{
    // x = a * (b + c) + d * (e + f + g)  — Section 4.2's example.
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array d[8];
        array e[8]; array f[8]; array g[8]; array x[8];
        for i = 0..8 {
          x[i] = a[i] * (b[i] + c[i]) + d[i] * (e[i] + f[i] + g[i]);
        })",
                                "t", arrays);
    const VarSet sets = buildVarSets(nest.body().front());
    // Outermost: AddLike with two MulLike sub-sets.
    EXPECT_EQ(sets.cls, OpClass::AddLike);
    ASSERT_EQ(sets.elems.size(), 2u);
    ASSERT_FALSE(sets.elems[0].isLeaf());
    ASSERT_FALSE(sets.elems[1].isLeaf());
    const VarSet &left = *sets.elems[0].sub;   // a * (b + c)
    const VarSet &right = *sets.elems[1].sub;  // d * (e + f + g)
    EXPECT_EQ(left.cls, OpClass::MulLike);
    ASSERT_EQ(left.elems.size(), 2u);
    EXPECT_TRUE(left.elems[0].isLeaf()); // a
    ASSERT_FALSE(left.elems[1].isLeaf());
    EXPECT_EQ(left.elems[1].sub->elems.size(), 2u); // (b, c)
    EXPECT_EQ(right.cls, OpClass::MulLike);
    ASSERT_EQ(right.elems.size(), 2u);
    EXPECT_EQ(right.elems[1].sub->elems.size(), 3u); // (e, f, g)
    EXPECT_EQ(sets.leafCount(), 7u);
    EXPECT_EQ(sets.depth(), 3u);
}

TEST(NestedSetsTest, SubtractionFlattensWithTags)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array x[8];
        for i = 0..8 { x[i] = a[i] - b[i] + c[i]; })",
                                "t", arrays);
    const VarSet sets = buildVarSets(nest.body().front());
    ASSERT_EQ(sets.elems.size(), 3u);
    EXPECT_EQ(sets.elems[0].op, OpKind::Add);
    EXPECT_EQ(sets.elems[1].op, OpKind::Sub);
    EXPECT_EQ(sets.elems[2].op, OpKind::Add);
}

TEST(NestedSetsTest, ShiftsStayBinary)
{
    // (a << b) << c must not flatten into one 3-element set.
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array x[8];
        for i = 0..8 { x[i] = a[i] << b[i] << c[i]; })",
                                "t", arrays);
    const VarSet sets = buildVarSets(nest.body().front());
    EXPECT_EQ(sets.cls, OpClass::Shift);
    ASSERT_EQ(sets.elems.size(), 2u);
    EXPECT_FALSE(sets.elems[0].isLeaf()); // nested (a << b)
    EXPECT_TRUE(sets.elems[1].isLeaf());  // c
}

TEST(NestedSetsTest, ConstantsAreDropped)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array x[8];
        for i = 0..8 { x[i] = a[i] * 0.5 + b[i] + 1; })",
                                "t", arrays);
    const VarSet sets = buildVarSets(nest.body().front());
    EXPECT_EQ(sets.leafCount(), 2u);
}

TEST(NestedSetsTest, LeafIndicesMatchReadsOrder)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array a[8]; array b[8]; array c[8]; array d[8]; array x[8];
        for i = 0..8 { x[i] = (a[i] + b[i]) * (c[i] - d[i]); })",
                                "t", arrays);
    const VarSet sets = buildVarSets(nest.body().front());
    // Collect leaves in set order; they must be 0,1,2,3.
    std::vector<int> leaves;
    const std::function<void(const VarSet &)> collect =
        [&](const VarSet &s) {
            for (const auto &e : s.elems) {
                if (e.isLeaf())
                    leaves.push_back(e.leaf);
                else
                    collect(*e.sub);
            }
        };
    collect(sets);
    EXPECT_EQ(leaves, (std::vector<int>{0, 1, 2, 3}));
}

// -------------------------------------------------- instance resolution

TEST(InstanceTest, AffineResolution)
{
    ArrayTable arrays;
    arrays.setDefaultElementSize(8);
    LoopNest nest = parseKernel(R"(
        array A[16]; array B[16];
        for i = 0..16 { A[i] = B[i+1]; })",
                                "t", arrays);
    InstanceResolver resolver(nest, arrays);
    resolver.resolve(3, 0);
    ASSERT_EQ(resolver.reads().size(), 1u);
    EXPECT_EQ(resolver.reads()[0].addr,
              arrays.elementAddr(arrays.find("B"), 4));
    EXPECT_EQ(resolver.write().addr,
              arrays.elementAddr(arrays.find("A"), 3));
}

TEST(InstanceTest, IndirectResolutionUsesIndexData)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array X[8]; array Y[8]; array Z[8];
        for i = 0..8 { Z[i] = X[Y[i]]; })",
                                "t", arrays);
    arrays.setIndexData(arrays.find("Y"), {7, 6, 5, 4, 3, 2, 1, 0});
    InstanceResolver resolver(nest, arrays);
    resolver.resolve(2, 0);
    EXPECT_EQ(resolver.reads()[0].addr,
              arrays.elementAddr(arrays.find("X"), 5));
}

TEST(InstanceTest, ResolutionWrapsEachDimension)
{
    ArrayTable arrays;
    arrays.setDefaultElementSize(8);
    LoopNest nest = parseKernel(R"(
        array M[4][5]; array C[4][5];
        for i = 0..4 { C[i][1] = M[i+3][i-1]; })",
                                "t", arrays);
    const ArrayId m = arrays.find("M");
    InstanceResolver resolver(nest, arrays);
    // i = 3 reads M[6][2], the same element as M[2][2]; i = 0 reads
    // M[3][-1], each dimension wrapped on its own: M[3][4], not M[2][4].
    resolver.resolve(3, 0);
    EXPECT_EQ(resolver.reads()[0].addr,
              arrays.elementAddr(m, arrays.flatIndex(m, {2, 2})));
    resolver.resolve(0, 0);
    EXPECT_EQ(resolver.reads()[0].addr,
              arrays.elementAddr(m, arrays.flatIndex(m, {3, 4})));
}

/** Addresses of @p refs, in order. */
std::vector<mem::Addr>
addrsOf(std::span<const ResolvedRef> refs)
{
    std::vector<mem::Addr> out;
    for (const ResolvedRef &r : refs)
        out.push_back(r.addr);
    return out;
}

TEST(InstanceResolverTest, GuardedRefsAreRhsThenGuardThenWrite)
{
    ArrayTable arrays;
    arrays.setDefaultElementSize(8);
    LoopNest nest = parseKernel(R"(
        array A[8]; array B[8]; array C[8]; array H[8];
        for i = 0..8 { S1: if (H[i]) A[i] = B[i] + C[i+1]; })",
                                "guard", arrays);
    auto at = [&](const char *name, std::int64_t flat) {
        return arrays.elementAddr(arrays.find(name), flat);
    };
    InstanceResolver resolver(nest, arrays);
    resolver.resolve(2, 0);
    EXPECT_EQ(addrsOf(resolver.refs()),
              (std::vector<mem::Addr>{at("B", 2), at("C", 3), at("H", 2),
                                      at("A", 2)}));
    EXPECT_EQ(addrsOf(resolver.reads()),
              (std::vector<mem::Addr>{at("B", 2), at("C", 3), at("H", 2)}));
    EXPECT_EQ(resolver.write().addr, at("A", 2));
    EXPECT_EQ(resolver.write().array, arrays.find("A"));
    EXPECT_EQ(resolver.write().size, 8u);
}

TEST(InstanceResolverTest, IterationChangesAreNeverStale)
{
    // Iterations of i = 0..2, j = 0..2: k = 0 is (0, 0), k = 1 is
    // (0, 1), k = 2 is (1, 0). The sequence revisits an earlier k and
    // then skips ahead, so a resolver that kept a stale iteration
    // vector resolves the wrong elements.
    ArrayTable arrays;
    arrays.setDefaultElementSize(8);
    LoopNest nest = parseKernel(R"(
        array A[2][2]; array B[3][3]; array C[2][2];
        for i = 0..2 { for j = 0..2 {
            S0: A[i][j] = B[j][i];
            S1: C[i][j] = A[i][j] + B[i][j+1];
        } })",
                                "two", arrays);
    auto at = [&](const char *name, std::int64_t flat) {
        return arrays.elementAddr(arrays.find(name), flat);
    };
    InstanceResolver resolver(nest, arrays);
    resolver.resolve(1, 0); // B[1][0] -> A[0][1]
    EXPECT_EQ(addrsOf(resolver.refs()),
              (std::vector<mem::Addr>{at("B", 3), at("A", 1)}));
    resolver.resolve(1, 1); // A[0][1] + B[0][2] -> C[0][1]
    EXPECT_EQ(addrsOf(resolver.refs()),
              (std::vector<mem::Addr>{at("A", 1), at("B", 2), at("C", 1)}));
    resolver.resolve(0, 1); // A[0][0] + B[0][1] -> C[0][0]
    EXPECT_EQ(addrsOf(resolver.refs()),
              (std::vector<mem::Addr>{at("A", 0), at("B", 1), at("C", 0)}));
    resolver.resolve(2, 0); // B[0][1] -> A[1][0]
    EXPECT_EQ(addrsOf(resolver.refs()),
              (std::vector<mem::Addr>{at("B", 1), at("A", 2)}));
}

TEST(InstanceResolverTest, OutOfRangeStatementIsFatal)
{
    ArrayTable arrays;
    LoopNest nest = parseKernel(R"(
        array A[8]; array B[8];
        for i = 0..8 { A[i] = B[i]; })",
                                "t", arrays);
    InstanceResolver resolver(nest, arrays);
    EXPECT_THROW(resolver.resolve(0, 1), PanicError);
    EXPECT_THROW(resolver.resolve(0, -1), PanicError);
    EXPECT_THROW(resolver.resolve(-1, 0), PanicError);
    resolver.resolve(7, 0);
    EXPECT_EQ(resolver.write().addr, arrays.elementAddr(arrays.find("A"), 7));
}

// -------------------------------------------------------- analyzability

TEST(DependenceTest, AnalyzableFraction)
{
    ArrayTable arrays;
    LoopNest affine = parseKernel(R"(
        array A[8]; array B[8];
        for i = 0..8 { A[i] = B[i]; })",
                                  "a", arrays);
    EXPECT_DOUBLE_EQ(analyzableFraction(affine), 1.0);

    ArrayTable arrays2;
    LoopNest mixed = parseKernel(R"(
        array X[8]; array Y[8]; array Z[8];
        for i = 0..8 { Z[i] = X[Y[i]] + Z[i]; })",
                                 "m", arrays2);
    // Refs: write Z (analyzable), X[Y[i]] (not), Z[i] (yes) => 2/3.
    EXPECT_NEAR(analyzableFraction(mixed), 2.0 / 3.0, 1e-9);
}

} // namespace
