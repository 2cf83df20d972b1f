/**
 * @file
 * Per-layer measurement from outside the program: wall-clock spans
 * and counters recorded by wrapping the seams the serve layer
 * already exposes — the TableProvider (table builds), the
 * ShardKernelFactory/Kernel it returns (evaluator kernels), and the
 * AutoTuner hook (routing, observation, and each wave's modeled
 * cycles). No program source changes are needed.
 *
 * The benchmark pins the simulator to one thread, so every wrapped
 * call runs on the thread that drives the pipeline and the recorder
 * needs no locking; those calls never nest, so their spans are
 * disjoint.
 */

#ifndef PERFBENCH_SEAMS_H
#define PERFBENCH_SEAMS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "pimsim/serve/auto_tuner.h"
#include "pimsim/serve/table_cache.h"
#include "transpim/serve_glue.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Spans kept in memory and written out when the benchmark ends. */
class SpanLog
{
  public:
    static constexpr int32_t kNoParent = -1;

    struct Span
    {
        std::string name;
        int64_t startNs = 0; ///< since the log's origin
        int64_t endNs = 0;
        int32_t parent = kNoParent; ///< index into spans()
        int64_t id = -1;            ///< wave/request/shard id, -1 = none
        std::string idKind;         ///< what `id` numbers
    };

    SpanLog() : origin_(Clock::now()) {}

    /** Record a finished span; returns its index. */
    int32_t add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int32_t parent,
                int64_t id = -1, const std::string& idKind = {});

    /** Move the end of span @p index to @p end. */
    void extend(int32_t index, Clock::time_point end);

    const std::vector<Span>& spans() const { return spans_; }
    void clear() { spans_.clear(); }

    /** Seconds covered by the union of the children of @p parent
     * whose names are in @p names. */
    double unionSeconds(int32_t parent,
                        const std::set<std::string>& names) const;

    /** One JSON object per line; false on I/O failure. */
    bool writeJsonl(const std::string& path) const;

  private:
    int64_t ns(Clock::time_point t) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Counters and busy time per layer, for one traced timed phase. */
struct LayerCounters
{
    double kernelSeconds = 0.0;
    uint64_t kernelCalls = 0; ///< tasklet-body invocations
    std::map<tpl::transpim::Method, double> kernelSecondsByMethod;
    std::map<tpl::transpim::Method, uint64_t> kernelElementsByMethod;

    uint64_t providerCalls = 0;
    double buildSeconds = 0.0;

    double routeSeconds = 0.0;
    double observeSeconds = 0.0;
    uint64_t switches = 0;
    /** (tenant, requested hash, routed hash) triples seen. */
    std::set<std::tuple<uint64_t, uint64_t, uint64_t>> routes;

    /** Modeled DPU cycles / elements per method, from WaveOutcome. */
    std::map<tpl::transpim::Method, uint64_t> cyclesByMethod;
    std::map<tpl::transpim::Method, uint64_t> elementsByMethod;
    uint64_t observedCycles = 0;
};

/**
 * The seam wrappers. With a null SpanLog the wrappers only forward
 * (plus a map insert per routed wave), which is how untraced runs of
 * the tuned workload learn which configurations served their waves.
 */
class Seams
{
  public:
    Seams(const tpl::transpim::EvaluatorCatalog& catalog, SpanLog* log)
        : catalog_(catalog), log_(log)
    {
    }

    bool tracing() const { return log_ != nullptr; }

    /** Parent span for spans recorded from now on. */
    void setParent(int32_t span) { parent_ = span; }

    /** Wrap @p inner: time each table build and each kernel call.
     * Traced runs only (needs the SpanLog). */
    tpl::sim::serve::TableProvider
    wrapProvider(tpl::sim::serve::TableProvider inner);

    LayerCounters& counters() { return counters_; }

    /** Configurations routed to, by TableKey hash. */
    const std::map<uint64_t, tpl::sim::serve::TableKey>&
    routed() const
    {
        return routed_;
    }

    /** Forward to an optional real tuner, timing both hooks. A null
     * inner tuner routes every wave to its requested table. */
    class Tuner final : public tpl::sim::serve::AutoTuner
    {
      public:
        Tuner(Seams& seams, tpl::sim::serve::AutoTuner* inner)
            : seams_(seams), inner_(inner)
        {
        }

        Routing route(const tpl::sim::serve::TableKey& requested,
                      uint64_t tenant) override;
        void observe(const tpl::sim::serve::WaveOutcome& outcome) override;
        void bindCache(tpl::sim::serve::TableCache* cache) override;
        std::vector<tpl::sim::serve::TuneDecision>
        decisions() const override;

      private:
        Seams& seams_;
        tpl::sim::serve::AutoTuner* inner_;
    };

  private:
    /** Method of the configuration registered under @p hash. */
    bool methodOf(uint64_t hash, tpl::transpim::Method& m) const;

    const tpl::transpim::EvaluatorCatalog& catalog_;
    SpanLog* log_;
    int32_t parent_ = SpanLog::kNoParent;
    LayerCounters counters_;
    std::map<uint64_t, tpl::sim::serve::TableKey> routed_;
    uint64_t shards_ = 0;      ///< kernels built so far (shard ids)
    uint64_t openShard_ = 0;   ///< shard of the open kernel span
    int32_t openSpan_ = SpanLog::kNoParent;
};

} // namespace perfbench

#endif // PERFBENCH_SEAMS_H
