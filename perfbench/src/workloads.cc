/**
 * @file
 * Workload generators (see workloads.h).
 */

#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "transpim/reference.h"

namespace perfbench {

using tpl::transpim::Method;
using tpl::transpim::Placement;

uint64_t
fnv1a(const std::string& s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

/** fleet_interleaved_small: requests per batch, and batches. */
constexpr uint64_t kInterleavedDepth = 20000;
constexpr uint32_t kInterleavedBatches = 8;

/** SplitMix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t state_;
};

ConfigDef
cfg(Function f, Method m, Placement p = Placement::Wram,
    uint32_t log2Entries = 12)
{
    ConfigDef c;
    c.function = f;
    c.spec.method = m;
    c.spec.placement = p;
    c.spec.log2Entries = log2Entries;
    return c;
}

uint64_t
scaled(uint64_t n, double scale, uint64_t floor)
{
    return std::max<uint64_t>(
        floor, static_cast<uint64_t>(std::llround(n * scale)));
}

/**
 * Fill w.inputs: per configuration, the midpoints of equal-width
 * strata over the function's domain, one per element, shuffled by
 * @p rng across that configuration's requests in arrival order.
 * Fixed values keep per-configuration error and cycle statistics
 * independent of the seed; the shuffle decides which request carries
 * which value.
 */
void
fillInputs(WorkloadDef& w, Rng& rng)
{
    uint64_t off = 0;
    for (RequestDef& r : w.requests) {
        r.offset = off;
        off += r.elements;
    }
    w.elements = off;
    w.inputs.assign(off, 0.0f);
    for (uint32_t c = 0; c < w.configs.size(); ++c) {
        uint64_t total = 0;
        for (const RequestDef& r : w.requests)
            if (r.config == c)
                total += r.elements;
        if (total == 0)
            continue;
        const tpl::transpim::Domain dom =
            tpl::transpim::functionDomain(w.configs[c].function);
        const float lo = static_cast<float>(dom.lo);
        const float hi = static_cast<float>(dom.hi);
        std::vector<float> vals(total);
        for (uint64_t j = 0; j < total; ++j) {
            double x = dom.lo + (dom.hi - dom.lo) *
                                    (static_cast<double>(j) + 0.5) /
                                    static_cast<double>(total);
            vals[j] = std::clamp(static_cast<float>(x), lo, hi);
        }
        rng.shuffle(vals);
        uint64_t k = 0;
        for (const RequestDef& r : w.requests)
            if (r.config == c)
                for (uint64_t e = 0; e < r.elements; ++e)
                    w.inputs[r.offset + e] = vals[k++];
    }
}

/** Many 8..24-element requests over eight LUT configurations with
 * Zipf popularity and four tenants, shuffled together, in batches
 * served back to back. A batch's depth sets what the queue's sweeps
 * cost; the batch count sets how long the rest of the timed phase
 * (scheduling, kernels) runs once those sweeps are cheap. */
WorkloadDef
fleetInterleavedSmall(Rng& rng, double scale)
{
    WorkloadDef w;
    w.name = "fleet_interleaved_small";
    w.topology = tpl::sim::Topology{20, 2, 64};
    w.dpus = w.topology->numDpus();
    w.configs = {
        cfg(Function::Sin, Method::LLut),
        cfg(Function::Cos, Method::LLut),
        cfg(Function::Exp, Method::LLut),
        cfg(Function::Sigmoid, Method::LLut),
        cfg(Function::Tanh, Method::LLut),
        // Every table stays attached on every DPU; the M-LUT tables
        // go to MRAM so the set fits the 64 KiB WRAM.
        cfg(Function::Tanh, Method::MLut, Placement::Mram),
        cfg(Function::Sin, Method::MLut, Placement::Mram),
        cfg(Function::Log, Method::MLut, Placement::Mram),
    };
    w.batches = kInterleavedBatches;
    const uint64_t n = scaled(kInterleavedDepth, scale, 64);
    const size_t k = w.configs.size();
    double harmonic = 0.0;
    for (size_t i = 0; i < k; ++i)
        harmonic += 1.0 / static_cast<double>(i + 1);
    std::vector<uint64_t> quota(k);
    uint64_t assigned = 0;
    for (size_t i = 0; i < k; ++i) {
        quota[i] = static_cast<uint64_t>(
            static_cast<double>(n) / (static_cast<double>(i + 1) * harmonic));
        assigned += quota[i];
    }
    quota[0] += n - assigned;
    for (uint32_t b = 0; b < w.batches; ++b) {
        std::vector<RequestDef> batch;
        for (uint32_t c = 0; c < k; ++c)
            for (uint64_t j = 0; j < quota[c]; ++j)
                batch.push_back({c, j % 4, 8 + j % 17, 0});
        rng.shuffle(batch);
        w.requests.insert(w.requests.end(), batch.begin(), batch.end());
    }
    fillInputs(w, rng);
    return w;
}

/** >= 1,000 requests of 4k..32k elements over every method, on a
 * flat 64-DPU system with a calibrated CostBook. */
WorkloadDef
flatMixedMethods(Rng& rng, double scale)
{
    WorkloadDef w;
    w.name = "flat_mixed_methods";
    w.dpus = 64;
    w.costBook = true;
    w.configs = {
        cfg(Function::Sin, Method::Cordic),
        cfg(Function::Sin, Method::CordicFixed),
        cfg(Function::Cos, Method::CordicLut, Placement::Mram),
        cfg(Function::Exp, Method::Poly),
        cfg(Function::Tanh, Method::MLut),
        cfg(Function::Exp, Method::MLut, Placement::Mram),
        cfg(Function::Log, Method::LLut, Placement::Mram),
        cfg(Function::Sqrt, Method::LLut),
        cfg(Function::Cos, Method::LLutFixed),
        cfg(Function::Gelu, Method::DLut, Placement::Mram),
        cfg(Function::Sigmoid, Method::DlLut),
        // The large MRAM table: its generation (the paper's Fig. 6
        // set-up cost) dominates this workload's set-up.
        cfg(Function::Sin, Method::LLut, Placement::Mram, 18),
    };
    // Per 32 requests: 24 x 4k, 5 x 8k, 2 x 16k, 1 x 32k elements.
    static const uint64_t sizes[32] = {
        4096,  4096,  4096,  4096,  4096,  4096, 4096, 4096,
        4096,  4096,  4096,  4096,  4096,  4096, 4096, 4096,
        4096,  4096,  4096,  4096,  4096,  4096, 4096, 4096,
        8192,  8192,  8192,  8192,  8192,  16384, 16384, 32768};
    const uint64_t n = scaled(1024, scale, w.configs.size());
    const uint32_t k = static_cast<uint32_t>(w.configs.size());
    for (uint64_t i = 0; i < n; ++i)
        w.requests.push_back(
            {static_cast<uint32_t>(i % k), 0, sizes[(i / k) % 32], 0});
    rng.shuffle(w.requests);
    fillInputs(w, rng);
    return w;
}

/** 32..128-element requests in same-(configuration, tenant) phases;
 * three SLA tenants under the online tuner with an MRAM budget that
 * forces evictions; full event journal emitted as JSONL. */
WorkloadDef
fleetJournaledTenants(Rng& rng, double scale)
{
    WorkloadDef w;
    w.name = "fleet_journaled_tenants";
    w.topology = tpl::sim::Topology{20, 2, 64};
    w.dpus = w.topology->numDpus();
    w.journalEvents = true;
    w.tuned = true;
    // MRAM placement: the tuner's candidates inherit it, and tables
    // stay attached for the whole run, so WRAM would overflow.
    w.configs = {
        cfg(Function::Sin, Method::LLut, Placement::Mram),
        cfg(Function::Tanh, Method::LLut, Placement::Mram),
        cfg(Function::Sqrt, Method::LLut, Placement::Mram),
        cfg(Function::Cos, Method::LLut, Placement::Mram),
    };
    // A 24 KiB per-DPU budget holds only a few of the tables the
    // streams route to, so the tuner evicts and the cache rebuilds.
    w.tunerOptions.mramBudgetBytes = 24 * 1024;
    const char* slas[3] = {"rmse<2e-6", "rmse<2e-6;cycles<3000",
                           "rmse<5e-7"};
    for (uint64_t t = 0; t < 3; ++t) {
        tpl::sim::serve::TenantSla sla;
        tpl::sim::serve::TenantSla::parse(slas[t], sla);
        w.slas.emplace_back(t + 1, sla);
    }
    // Small waves (64 elements per DPU slice) give the tuner many
    // observations per stream on a 40-rank fleet.
    w.perDpuElements = 64;
    const uint64_t waveElements = uint64_t{64} * w.topology->dpusPerRank;
    // Rounds of one phase per (configuration, tenant) pair. A phase
    // holds exactly two waves of elements, so a wave never reaches
    // past its phase and every wave is taken from the queue's front.
    //
    // The tuner picks the cheapest candidate that just meets an SLA
    // on its search sample, so its later checks on live outputs sit
    // near the threshold, and its MRAM arbitration depends on the
    // order streams arrive in. So phase order and each stream's
    // element values are the same for every seed; the seed only cuts
    // each phase into requests of 32..128 elements (drawing first the
    // phase's largest size, so request counts per wave, and with them
    // the latency percentiles, move with the seed), and every wave
    // still carries the same elements.
    Rng fixed(fnv1a(w.name));
    const uint64_t rounds = scaled(20, scale, 1);
    for (uint64_t round = 0; round < rounds; ++round)
        for (uint32_t p = 0; p < 4 * 3; ++p) {
            const uint32_t config = p / 3;
            const uint64_t tenant = 1 + p % 3;
            uint64_t left = 2 * waveElements;
            const uint64_t largest = 64 + rng.below(65);
            while (left > 256) {
                const uint64_t size = 32 + rng.below(largest - 31);
                w.requests.push_back({config, tenant, size, 0});
                left -= size;
            }
            w.requests.push_back({config, tenant, left / 2, 0});
            w.requests.push_back({config, tenant, left - left / 2, 0});
        }
    fillInputs(w, fixed);
    return w;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "fleet_interleaved_small", "flat_mixed_methods",
        "fleet_journaled_tenants"};
    return names;
}

std::optional<WorkloadDef>
makeWorkload(const std::string& name, uint64_t seed, double scale)
{
    Rng rng(fnv1a(name) ^ (seed * 0x9e3779b97f4a7c15ull));
    if (name == "fleet_interleaved_small")
        return fleetInterleavedSmall(rng, scale);
    if (name == "flat_mixed_methods")
        return flatMixedMethods(rng, scale);
    if (name == "fleet_journaled_tenants")
        return fleetJournaledTenants(rng, scale);
    return std::nullopt;
}

std::string
methodKey(Method m)
{
    switch (m) {
    case Method::Cordic: return "cordic";
    case Method::CordicFixed: return "cordic_fixed";
    case Method::CordicLut: return "cordic_lut";
    case Method::MLut: return "m_lut";
    case Method::LLut: return "l_lut";
    case Method::LLutFixed: return "l_lut_fixed";
    case Method::DLut: return "d_lut";
    case Method::DlLut: return "dl_lut";
    case Method::Poly: return "poly";
    }
    return "unknown";
}

const std::vector<Method>&
allMethods()
{
    static const std::vector<Method> all = {
        Method::Cordic, Method::CordicFixed, Method::CordicLut,
        Method::MLut,   Method::LLut,        Method::LLutFixed,
        Method::DLut,   Method::DlLut,       Method::Poly};
    return all;
}

} // namespace perfbench
