/**
 * @file
 * Auto-tuner tests: recommendations meet the accuracy target, respect
 * memory budgets, and reproduce the paper's Key Takeaways (CORDIC for
 * tight memory, LUT families for streaming kernels, setup dominating
 * for tiny evaluation counts).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "transpim/harness.h"
#include "transpim/tuner.h"

namespace tpl {
namespace transpim {
namespace {

TEST(Tuner, RecommendationMeetsTarget)
{
    for (double target : {1e-3, 1e-5, 1e-7}) {
        auto rec = recommendSpec(Function::Sin, target);
        ASSERT_TRUE(rec.has_value()) << target;
        EXPECT_LE(rec->best.rmse, target);
        // Independently validate with a fresh evaluator and inputs.
        auto eval = FunctionEvaluator::create(Function::Sin,
                                              rec->best.spec);
        auto inputs = uniformFloats(3000, 0.0f, 6.2831853f, 555);
        ErrorStats stats = evaluateAccuracy(eval, inputs);
        EXPECT_LE(stats.rmse, target * 1.5) << methodLabel(rec->best.spec);
    }
}

TEST(Tuner, CandidatesSortedByScore)
{
    auto rec = recommendSpec(Function::Sin, 1e-5);
    ASSERT_TRUE(rec.has_value());
    ASSERT_GE(rec->candidates.size(), 2u);
    for (size_t i = 1; i < rec->candidates.size(); ++i) {
        EXPECT_LE(rec->candidates[i - 1].secondsPerEval,
                  rec->candidates[i].secondsPerEval);
    }
    EXPECT_EQ(rec->best.secondsPerEval,
              rec->candidates.front().secondsPerEval);
}

TEST(Tuner, TightMemoryPrefersCordicFamily)
{
    // Key Takeaway 3: with the bank needed for data, only the flat-
    // memory CORDIC methods reach high accuracy.
    TunerConstraints tight;
    tight.maxTableBytes = 512;
    auto rec = recommendSpec(Function::Sin, 1e-7, tight);
    ASSERT_TRUE(rec.has_value());
    Method m = rec->best.spec.method;
    EXPECT_TRUE(m == Method::Cordic || m == Method::CordicFixed ||
                m == Method::CordicLut)
        << methodLabel(rec->best.spec);
    EXPECT_LE(rec->best.tableBytes, 512u);
}

TEST(Tuner, RoomyMemoryPrefersLutFamily)
{
    // Key Takeaway 1: with table room, an L-LUT variant wins the
    // streaming case.
    TunerConstraints roomy;
    roomy.maxTableBytes = 1u << 20;
    roomy.expectedEvaluations = 100'000'000;
    auto rec = recommendSpec(Function::Sin, 1e-5, roomy);
    ASSERT_TRUE(rec.has_value());
    Method m = rec->best.spec.method;
    EXPECT_TRUE(m == Method::LLut || m == Method::LLutFixed ||
                m == Method::DlLut || m == Method::DLut)
        << methodLabel(rec->best.spec);
}

TEST(Tuner, NanRmseNeverMeetsTheTarget)
{
    // An interpolated DL-LUT for log measures a NaN rmse on this
    // budget (some outputs below 2^-5 are NaN). A NaN must fail the
    // accuracy target, never pass it.
    TunerConstraints c;
    c.placement = Placement::Mram;
    c.maxTableBytes = 1u << 20;
    auto rec = recommendSpec(Function::Log, 1e-5, c);
    if (!rec)
        return; // no method meets the target: nothing was accepted
    EXPECT_FALSE(std::isnan(rec->best.rmse))
        << methodLabel(rec->best.spec);
    EXPECT_LE(rec->best.rmse, 1e-5);
    for (const auto& cand : rec->candidates)
        EXPECT_FALSE(std::isnan(cand.rmse)) << methodLabel(cand.spec);
}

TEST(Tuner, FixedPointCanBeDisabled)
{
    TunerConstraints c;
    c.allowFixedPoint = false;
    auto rec = recommendSpec(Function::Sin, 1e-5, c);
    ASSERT_TRUE(rec.has_value());
    EXPECT_NE(Method::LLutFixed, rec->best.spec.method);
    for (const auto& cand : rec->candidates)
        EXPECT_NE(Method::LLutFixed, cand.spec.method);
}

TEST(Tuner, MethodFilterRespected)
{
    TunerConstraints c;
    c.methods = {Method::Cordic, Method::Poly};
    auto rec = recommendSpec(Function::Sin, 1e-4, c);
    ASSERT_TRUE(rec.has_value());
    for (const auto& cand : rec->candidates) {
        EXPECT_TRUE(cand.spec.method == Method::Cordic ||
                    cand.spec.method == Method::Poly);
    }
}

TEST(Tuner, SetupAmortizationShiftsScore)
{
    // With very few evaluations the setup share dominates the score,
    // so the chosen candidate's setup must be no worse than what the
    // streaming case picks.
    TunerConstraints fewEvals;
    fewEvals.expectedEvaluations = 10;
    TunerConstraints manyEvals;
    manyEvals.expectedEvaluations = 1'000'000'000;
    auto few = recommendSpec(Function::Sin, 1e-6, fewEvals);
    auto many = recommendSpec(Function::Sin, 1e-6, manyEvals);
    ASSERT_TRUE(few.has_value());
    ASSERT_TRUE(many.has_value());
    EXPECT_LE(few->best.setupSeconds, many->best.setupSeconds * 1.01);
    EXPECT_LE(many->best.instructionsPerEval,
              few->best.instructionsPerEval * 1.01);
}

TEST(Tuner, UnreachableTargetReturnsNothing)
{
    TunerConstraints c;
    c.maxTableBytes = 64; // essentially no tables
    c.methods = {Method::MLut, Method::LLut};
    auto rec = recommendSpec(Function::Sin, 1e-9, c);
    EXPECT_FALSE(rec.has_value());
}

TEST(Tuner, WorksAcrossFunctions)
{
    for (Function f : {Function::Tanh, Function::Exp, Function::Log,
                       Function::Gelu}) {
        auto rec = recommendSpec(f, 1e-4);
        ASSERT_TRUE(rec.has_value()) << functionName(f);
        EXPECT_LE(rec->best.rmse, 1e-4) << functionName(f);
    }
}

TEST(Tuner, EmptyMethodListMeansEveryMethod)
{
    // An empty candidate-method list is "no filter", not "no
    // candidates": the search must behave exactly like the default
    // constraints.
    TunerConstraints empty;
    empty.methods = {};
    auto open = recommendSpec(Function::Sin, 1e-5, empty);
    auto deflt = recommendSpec(Function::Sin, 1e-5);
    ASSERT_TRUE(open.has_value());
    ASSERT_TRUE(deflt.has_value());
    EXPECT_EQ(open->best.spec.method, deflt->best.spec.method);
    EXPECT_EQ(open->candidates.size(), deflt->candidates.size());
    // And it genuinely spans method families, not one survivor.
    bool sawCordicFamily = false;
    bool sawLutFamily = false;
    for (const auto& cand : open->candidates) {
        switch (cand.spec.method) {
        case Method::Cordic:
        case Method::CordicFixed:
        case Method::CordicLut:
            sawCordicFamily = true;
            break;
        default:
            sawLutFamily = true;
            break;
        }
    }
    EXPECT_TRUE(sawCordicFamily);
    EXPECT_TRUE(sawLutFamily);
}

TEST(Tuner, TableBudgetBelowAnyViableTableReturnsNothing)
{
    // LUT-only search with a budget smaller than the smallest table
    // any LUT method can build: there is no feasible candidate at
    // all, so the result must be empty rather than a best-effort
    // over-budget pick.
    TunerConstraints c;
    c.methods = {Method::MLut, Method::LLut, Method::LLutFixed,
                 Method::DLut, Method::DlLut};
    c.maxTableBytes = 8; // two float entries
    auto rec = recommendSpec(Function::Sin, 1e-2, c);
    EXPECT_FALSE(rec.has_value());
}

TEST(Tuner, AutoMetricClassificationCoversEveryFunction)
{
    // ErrorMetric::Auto resolves to Relative exactly for the
    // functions with large output ranges; everything else is
    // Absolute. This is the classification the online AutoTuner
    // scores SLAs against, so lock it for the whole catalog.
    for (Function f :
         {Function::Sin,   Function::Cos,     Function::Tan,
          Function::Sinh,  Function::Cosh,    Function::Tanh,
          Function::Exp,   Function::Log,     Function::Sqrt,
          Function::Gelu,  Function::Sigmoid, Function::Cndf,
          Function::Atan,  Function::Asin,    Function::Acos,
          Function::Atanh, Function::Log2,    Function::Log10,
          Function::Exp2,  Function::Rsqrt,   Function::Erf,
          Function::Silu,  Function::Softplus}) {
        const bool largeRange =
            f == Function::Exp || f == Function::Exp2 ||
            f == Function::Sinh || f == Function::Cosh;
        EXPECT_EQ(resolveMetric(f), largeRange
                                        ? ErrorMetric::Relative
                                        : ErrorMetric::Absolute)
            << functionName(f);
        // Explicit metrics pass through unchanged.
        EXPECT_EQ(resolveMetric(f, ErrorMetric::Absolute),
                  ErrorMetric::Absolute)
            << functionName(f);
        EXPECT_EQ(resolveMetric(f, ErrorMetric::Relative),
                  ErrorMetric::Relative)
            << functionName(f);
    }
}

} // namespace
} // namespace transpim
} // namespace tpl
