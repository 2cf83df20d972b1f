/**
 * @file
 * Public entry point of the library: build an evaluator for a
 * (function, method) pair and run it element-wise on a PIM core.
 *
 * Mirrors TransPimLib's usage model: the host includes a setup header
 * that generates tables and transfers them to the PIM core, and the PIM
 * kernel includes the matching evaluation routine. Here both halves
 * meet in FunctionEvaluator: create() is the host-side setup (timed, as
 * the paper's Figure 6 measures), attach() is the table transfer, and
 * eval() is the C-like kernel-side routine (instrumented, as Figure 5
 * counts).
 *
 * Example:
 * @code
 *   using namespace tpl::transpim;
 *   MethodSpec spec;                       // interpolated L-LUT, WRAM
 *   spec.log2Entries = 12;
 *   auto sine = FunctionEvaluator::create(Function::Sin, spec);
 *   sim::DpuCore dpu;
 *   sine.attach(dpu);
 *   dpu.launch(16, [&](sim::TaskletContext& ctx) {
 *       float y = sine.eval(1.0f, &ctx);   // charges PIM instructions
 *   });
 * @endcode
 */

#ifndef TPL_TRANSPIM_EVALUATOR_H
#define TPL_TRANSPIM_EVALUATOR_H

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "pimsim/dpu.h"
#include "transpim/batch.h"
#include "transpim/placement.h"
#include "transpim/reference.h"

namespace tpl {
namespace transpim {

/** Implementation methods (paper Table 2). */
enum class Method
{
    Cordic,      ///< floating-point CORDIC
    CordicFixed, ///< Q3.28 CORDIC (ablation; trig only)
    CordicLut,   ///< CORDIC with LUT-replaced initial iterations
    MLut,        ///< multiplication-based fuzzy LUT
    LLut,        ///< ldexp-based fuzzy LUT
    LLutFixed,   ///< Q3.28 ldexp-based fuzzy LUT
    DLut,        ///< direct float-conversion LUT
    DlLut,       ///< combined L-LUT + D-LUT
    Poly,        ///< polynomial approximation (the PIM baseline)
};

/** Short name of a method ("L-LUT", "CORDIC", ...). */
std::string_view methodName(Method m);

/** Full configuration of a method instance. */
struct MethodSpec
{
    Method method = Method::LLut;

    /** Interpolate between adjacent entries (LUT methods). */
    bool interpolated = true;

    /** Where tables live on the PIM core. */
    Placement placement = Placement::Wram;

    /** log2 of the LUT entry budget (LUT methods). */
    uint32_t log2Entries = 12;

    /** CORDIC iteration count (accuracy ~ 2^-iterations). */
    uint32_t iterations = 24;

    /** CORDIC+LUT: grid bits g; iterations below g become one lookup. */
    uint32_t gridBits = 8;

    /** Polynomial degree (Poly method). */
    uint32_t polyDegree = 11;

    /** D-LUT: mantissa MSBs kept per exponent. */
    uint32_t dlutMantBits = 6;

    /** D-LUT: smallest covered exponent. */
    int dlutMinExp = -12;

    /**
     * Trigonometric functions: apply the mod-2pi range reduction before
     * evaluating. The paper's microbenchmarks draw inputs from [0, 2pi]
     * and skip this step (its cost is reported separately in Figure 8),
     * so it defaults to off.
     */
    bool reduceRange = false;

    /**
     * Tangent via LUT methods: share one sine table between the sine
     * and cosine queries using cos(x) = sin(x + pi/2) - the table
     * covers [0, 2pi + pi/2] instead of two full periods, cutting the
     * footprint by ~40% for one extra float addition per element.
     */
    bool shareTrigTables = false;
};

/** Human-readable label, e.g. "L-LUT interp. (WRAM, 2^12)". */
std::string methodLabel(const MethodSpec& spec);

/** Thrown when a (function, method) pair is not in the support matrix. */
class UnsupportedCombination : public std::invalid_argument
{
  public:
    UnsupportedCombination(Function f, const MethodSpec& spec);
};

/**
 * A ready-to-run implementation of one function with one method.
 */
class FunctionEvaluator
{
  public:
    FunctionEvaluator() = default;

    /**
     * Host-side setup: generates all tables/constants for evaluating
     * @p f with @p spec and records the wall-clock generation time.
     * @throws UnsupportedCombination per the support matrix.
     */
    static FunctionEvaluator create(Function f, const MethodSpec& spec);

    /** True if the support matrix contains (f, method-of-spec). */
    static bool supports(Function f, const MethodSpec& spec);

    /**
     * Kernel-side evaluation, charging PIM instructions to @p sink.
     * Pass a sim::TaskletContext to also model MRAM-placed table DMA.
     */
    float
    eval(float x, InstrSink* sink = nullptr) const
    {
        return eval_(x, sink);
    }

    float operator()(float x, InstrSink* sink = nullptr) const
    {
        return eval_(x, sink);
    }

    /**
     * Batched kernel-side evaluation over SoA spans: semantically
     * identical to eval() element-by-element — bit-identical outputs
     * and bit-identical charges — but runs the per-element body with
     * the inlined batch sink (no virtual dispatch, softfloat fast-value
     * lane) and flushes the accumulated charges to @p sink once.
     * MRAM-placed table DMA still goes through the tasklet's DMA model
     * per element, so DMA-engine occupancy and fault firing match the
     * scalar path exactly.
     *
     * @param in input elements.
     * @param out outputs; out.size() must equal in.size(); out may
     *        alias in.
     * @param sink instruction sink the batch totals flush to.
     * @param stats when given, accumulates this batch's element count
     *        and charge totals.
     */
    void
    evalBatch(std::span<const float> in, std::span<float> out,
              InstrSink* sink = nullptr,
              BatchStats* stats = nullptr) const
    {
        evalBatch_(in, out, sink, stats);
    }

    /** Batched evaluation collecting per-batch accounting. */
    void
    evalBatch(std::span<const float> in, std::span<float> out,
              BatchStats& stats) const
    {
        evalBatch_(in, out, nullptr, &stats);
    }

    /** Bytes of PIM memory all tables of this evaluator occupy. */
    uint32_t memoryBytes() const { return memoryBytes_; }

    /** Measured host-side table-generation time in seconds. */
    double setupSeconds() const { return setupSeconds_; }

    /**
     * Transfer all tables to a simulated core. One evaluator may be
     * attached to many cores: each gets its own copy of the tables
     * generated once by create(), and a kernel reads the copy on the
     * core its tasklet runs on. Every core must receive the copies at
     * the same WRAM/MRAM offsets, i.e. attach to cores whose
     * allocators are in the same state (a fresh PimSystem, or cores
     * that have seen the same allocations). Attaching is
     * all-or-nothing per core: when it throws, every table it placed
     * on @p core is released again.
     * @throws std::bad_alloc when a table does not fit.
     * @throws std::logic_error when a table's offset on @p core differs
     *         from the cores attached before.
     */
    void
    attach(sim::DpuCore& core)
    {
        if (!attach_)
            return;
        const sim::DpuCore::AllocMark mark = core.allocMark();
        try {
            attach_(core);
        } catch (...) {
            core.releaseTo(mark);
            throw;
        }
    }

    Function function() const { return fn_; }

    const MethodSpec& spec() const { return spec_; }

    /** False only for a default-constructed (empty) evaluator. */
    bool valid() const { return static_cast<bool>(eval_); }

  private:
    Function fn_ = Function::Sin;
    MethodSpec spec_;
    std::function<float(float, InstrSink*)> eval_;
    std::function<void(std::span<const float>, std::span<float>,
                       InstrSink*, BatchStats*)>
        evalBatch_;
    std::function<void(sim::DpuCore&)> attach_;
    uint32_t memoryBytes_ = 0;
    double setupSeconds_ = 0.0;
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_EVALUATOR_H
