/**
 * @file
 * The benchmark's three serve workloads: which table configurations
 * they use, which requests arrive in which order, and the seeded
 * input values those requests carry.
 *
 * Every workload is made of closed batches: all requests of a batch
 * arrive at modeled t = 0 and the pipeline drains them to completion
 * before the next batch is pushed. Input values are
 * stratum midpoints, the same set for every seed. On the untuned
 * workloads the seed moves arrival order and which request carries
 * which value; request sizes and each configuration's share of the
 * elements are fixed. The tuned workload's use of the seed is
 * described at its generator.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pimsim/serve/auto_tuner.h"
#include "pimsim/topology.h"
#include "transpim/auto_tuner.h"
#include "transpim/evaluator.h"

namespace perfbench {

using tpl::transpim::Function;
using tpl::transpim::MethodSpec;

/** One table configuration a workload requests. */
struct ConfigDef
{
    Function function = Function::Sin;
    MethodSpec spec;
};

/** One offered request (arrival order = vector order within its
 * batch). */
struct RequestDef
{
    uint32_t config = 0; ///< index into WorkloadDef::configs
    uint64_t tenant = 0;
    uint64_t elements = 0;
    uint64_t offset = 0; ///< first element in WorkloadDef::inputs
};

struct WorkloadDef
{
    std::string name;
    /** Fleet shape; nullopt = flat pipeline over `dpus` DPUs. */
    std::optional<tpl::sim::Topology> topology;
    uint32_t dpus = 0;
    uint32_t perDpuElements = 512; ///< PipelineOptions::perDpuElements
    std::vector<ConfigDef> configs;
    /** Batch-major: `batches` equal closed batches, served back to
     * back through fresh queues in one timed phase. */
    std::vector<RequestDef> requests;
    uint32_t batches = 1;
    std::vector<float> inputs; ///< all request inputs, concatenated
    uint64_t elements = 0;     ///< inputs.size()

    bool journalEvents = false; ///< full event journal + JSONL emit
    bool costBook = false;      ///< calibrate a CostBook at set-up
    bool tuned = false;         ///< attach an OnlineAutoTuner
    tpl::transpim::AutoTunerOptions tunerOptions;
    std::vector<std::pair<uint64_t, tpl::sim::serve::TenantSla>> slas;
};

/** Requests [first, last) of batch @p b. */
inline std::pair<size_t, size_t>
batchRange(const WorkloadDef& w, uint32_t b)
{
    const size_t n = w.requests.size() / w.batches;
    return {b * n, (b + 1) * n};
}

/** 64-bit FNV-1a. */
uint64_t fnv1a(const std::string& s);

/** Names accepted by makeWorkload, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name for @p seed. @p scale shrinks the request
 * count (1.0 = the benchmark size; the smoke test uses less).
 * Returns nullopt for an unknown name.
 */
std::optional<WorkloadDef> makeWorkload(const std::string& name,
                                        uint64_t seed, double scale);

/** Short metric-name form of a method ("l_lut", "cordic_fixed"). */
std::string methodKey(tpl::transpim::Method m);

/** Every method, in metric order. */
const std::vector<tpl::transpim::Method>& allMethods();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
