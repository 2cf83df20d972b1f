/**
 * @file
 * perfbench_driver: one workload, one process, the simulator pinned
 * to one thread.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--scale F] [--spans PATH] [--git-sha SHA]
 *   perfbench_driver --workload NAME --check-replay [--scale F]
 *
 * A run repeats *iterations* until --seconds have passed (at least
 * three). Each iteration builds everything afresh:
 *
 *   set-up  (setup_s)  PimSystem + catalog + CostBook calibration +
 *                      a warm pass serving one request per
 *                      configuration, which builds every table;
 *   timed   (sim_elements_per_s)  first push .. the last batch's
 *                      run() returns, plus JSONL emission on the
 *                      journaled workload.
 *
 * Host metrics are medians over iterations after the first; modeled
 * metrics must be bit-identical across iterations. Outputs are then verified. With
 * --trace 1 iterations alternate untraced/traced, the traced ones
 * wrap the serve seams (see seams.h), and the per-layer metrics are
 * printed instead of the end-to-end ones.
 *
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * is {"metadata": ...}. Exit 0 iff every check passed.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pimsim/obs/journal.h"
#include "pimsim/serve/pipeline.h"
#include "seams.h"
#include "transpim/auto_tuner.h"
#include "transpim/certify.h"
#include "transpim/reference.h"
#include "transpim/serve_glue.h"
#include "transpim/tuner.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace sv = tpl::sim::serve;
namespace tp = tpl::transpim;

/** Warm-pass request size per configuration. */
constexpr uint64_t kWarmElements = 64;
/** Sanity ceiling on any configuration's RMSE against the reference
 * (the configurations used measure <= 3e-6). */
constexpr double kRmseCeiling = 1e-4;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string spansPath;
    std::string gitSha = "unknown";
    bool checkReplay = false;
};

/** Everything one iteration measured. */
struct Iteration
{
    double setupSeconds = 0.0;
    double systemBuildSeconds = 0.0;
    double timedSeconds = 0.0;
    double pushSeconds = 0.0;
    double runSeconds = 0.0;
    double emitSeconds = 0.0;
    double cpuSeconds = 0.0; ///< process CPU time of the timed phase

    sv::ServeReport report;
    tpl::obs::LatencySummary latency;
    std::vector<tpl::obs::RequestLatency> latencies;
    std::vector<tpl::obs::JournalEvent> computeEvents;
    uint64_t journalEvents = 0;
    uint64_t journalBytes = 0;
    uint64_t jsonlHash = 0;
    uint64_t rankBroadcasts = 0;
    uint64_t evictions = 0;
    uint64_t slaViolations = 0;
    bool warmComplete = false;
    std::vector<std::string> tunerStreams; ///< one line per stream
    /** Configurations the tuner routed waves to, by TableKey label. */
    std::map<std::string, std::vector<ConfigDef>> routed;

    // Traced iterations only.
    LayerCounters layers; ///< timed phase
    uint64_t setupProviderCalls = 0;
    double setupBuildSeconds = 0.0;
    double selfSeconds = 0.0;

    /** Free the per-request and per-wave records once only the
     * timings are needed, so peak RSS does not grow with the number
     * of iterations a run fits in. */
    void
    dropDetail()
    {
        std::vector<tpl::obs::RequestLatency>().swap(latencies);
        std::vector<tpl::obs::JournalEvent>().swap(computeEvents);
        std::vector<sv::WaveStats>().swap(report.waveStats);
        routed.clear();
        layers = LayerCounters{};
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Sum of every wave's per-DPU modeled cycles. */
uint64_t
totalCycles(const sv::ServeReport& rep)
{
    uint64_t c = 0;
    for (const sv::WaveStats& s : rep.waveStats)
        c += s.totalCycles;
    return c;
}

/** Process CPU time. Printed beside each iteration's wall time: when
 * the two move together, a slow iteration ran on a slower CPU (a
 * busy shared host), not a preempted one. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** The pipeline's wave element budget (what popWave is asked for). */
uint64_t
waveBudget(const WorkloadDef& w)
{
    uint64_t perWave = w.topology ? w.topology->dpusPerRank : w.dpus;
    return static_cast<uint64_t>(std::max<uint32_t>(w.perDpuElements, 1)) *
           perWave;
}

/** Fold batch report @p r into @p total. Batches run back to back,
 * so modeled times, counts and per-rank makespans add up. */
void
appendBatch(sv::ServeReport& total, sv::ServeReport&& r, bool first)
{
    if (first) {
        total = std::move(r);
        return;
    }
    total.complete = total.complete && r.complete;
    total.requests += r.requests;
    total.elements += r.elements;
    total.waves += r.waves;
    total.cacheHits += r.cacheHits;
    total.cacheMisses += r.cacheMisses;
    total.infeasibleElements += r.infeasibleElements;
    total.droppedElements += r.droppedElements;
    total.modeledSeconds += r.modeledSeconds;
    total.syncSeconds += r.syncSeconds;
    total.failedDpus.insert(total.failedDpus.end(), r.failedDpus.begin(),
                            r.failedDpus.end());
    total.reshardedElements += r.reshardedElements;
    total.computeCycles += r.computeCycles;
    total.anomalousWaves += r.anomalousWaves;
    total.waveStats.insert(total.waveStats.end(), r.waveStats.begin(),
                           r.waveStats.end());
    const size_t ranks = std::min(total.rankStats.size(), r.rankStats.size());
    for (size_t i = 0; i < ranks; ++i) {
        sv::RankStats& t = total.rankStats[i];
        const sv::RankStats& b = r.rankStats[i];
        t.waves += b.waves;
        t.elements += b.elements;
        t.computeCycles += b.computeCycles;
        t.makespanSeconds += b.makespanSeconds;
        t.residentTables = b.residentTables;
        t.broadcasts += b.broadcasts;
    }
}

/**
 * One fresh set-up + timed phase. @p log non-null = traced. Outputs
 * land in @p outputs (pre-filled with NaN).
 */
Iteration
runIteration(const WorkloadDef& w, std::vector<float>& outputs,
             SpanLog* log, bool keepEvents)
{
    Iteration it;
    std::fill(outputs.begin(), outputs.end(),
              std::numeric_limits<float>::quiet_NaN());

    const Clock::time_point s0 = Clock::now();
    auto sys = std::make_unique<tpl::sim::PimSystem>(w.dpus);
    sys->setSimThreads(1);
    const Clock::time_point s1 = Clock::now();
    it.systemBuildSeconds = seconds(s0, s1);

    tp::EvaluatorCatalog catalog;
    std::vector<sv::TableKey> keys;
    for (const ConfigDef& c : w.configs)
        keys.push_back(catalog.add(c.function, c.spec));

    sv::CostBook book;
    if (w.costBook)
        for (size_t c = 0; c < w.configs.size(); ++c) {
            tp::CertifyOptions co;
            co.chunkElements = catalog.chunkElements();
            tp::MethodCostCertificate cert = tp::certifyMethodCost(
                w.configs[c].function, w.configs[c].spec, co);
            if (cert.feasible)
                book.set(keys[c], cert.cost);
        }

    tpl::obs::Journal journal;
    journal.setEventsEnabled(w.journalEvents);

    std::optional<tp::OnlineAutoTuner> tuner;
    if (w.tuned) {
        tuner.emplace(catalog, w.tunerOptions);
        for (const auto& [tenant, sla] : w.slas)
            tuner->setTenantSla(tenant, sla);
    }
    // Seams outlive the pipeline: bindings in its cache capture them.
    Seams seams(catalog, log);
    Seams::Tuner seamTuner(seams, tuner ? &*tuner : nullptr);

    sv::PipelineOptions popts;
    popts.perDpuElements = w.perDpuElements;
    if (w.topology)
        popts.topology = &*w.topology;
    if (w.costBook)
        popts.costBook = &book;
    popts.journal = &journal;
    // Untraced untuned runs attach no tuner; traced runs attach a
    // pass-through one (the serve layer locks that as statistics-
    // neutral) to read each wave's table and modeled cycles.
    if (w.tuned || log)
        popts.autoTuner = &seamTuner;
    sv::ServePipeline pipeline(
        *sys, log ? seams.wrapProvider(catalog.provider())
                  : catalog.provider(),
        popts);

    // Warm pass: one request per configuration from tenant 0, which
    // no SLA covers, so the tuner passes it through untouched.
    int32_t setupSpan = SpanLog::kNoParent;
    if (log) {
        setupSpan = log->add("setup", s0, s0, SpanLog::kNoParent);
        log->add("pimsim.system_build", s0, s1, setupSpan);
        seams.setParent(setupSpan);
    }
    std::vector<float> warmIn(kWarmElements * w.configs.size());
    std::vector<float> warmOut(warmIn.size());
    for (size_t c = 0; c < w.configs.size(); ++c) {
        tp::Domain d = tp::functionDomain(w.configs[c].function);
        for (uint64_t e = 0; e < kWarmElements; ++e)
            warmIn[c * kWarmElements + e] = static_cast<float>(
                d.lo + (d.hi - d.lo) * (static_cast<double>(e) + 0.5) /
                           static_cast<double>(kWarmElements));
    }
    {
        sv::BatchQueue warm;
        for (size_t c = 0; c < w.configs.size(); ++c) {
            sv::Request r;
            r.table = keys[c];
            r.input = warmIn.data() + c * kWarmElements;
            r.output = warmOut.data() + c * kWarmElements;
            r.elements = kWarmElements;
            warm.push(std::move(r));
        }
        warm.close();
        sv::ServeReport wr = pipeline.run(warm);
        it.warmComplete = wr.complete;
    }
    journal.clear();
    const Clock::time_point s2 = Clock::now();
    it.setupSeconds = seconds(s0, s2);
    LayerCounters setupLayers;
    if (log) {
        log->extend(setupSpan, s2);
        setupLayers = seams.counters();
        seams.counters() = LayerCounters{};
    }
    const uint64_t evictionsBefore = pipeline.cache().evictions();

    // ---- timed phase ----
    const double c0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<int32_t> runSpans;
    for (uint32_t b = 0; b < w.batches; ++b) {
        const Clock::time_point p0 = Clock::now();
        sv::BatchQueue queue;
        queue.setJournal(&journal);
        const auto [first, last] = batchRange(w, b);
        for (size_t i = first; i < last; ++i) {
            const RequestDef& rd = w.requests[i];
            sv::Request r;
            r.table = keys[rd.config];
            r.tenant = rd.tenant;
            r.input = w.inputs.data() + rd.offset;
            r.output = outputs.data() + rd.offset;
            r.elements = rd.elements;
            queue.push(std::move(r));
        }
        queue.close();
        const Clock::time_point p1 = Clock::now();
        if (log) {
            log->add("serve.queue.push", p0, p1, SpanLog::kNoParent, b,
                     "batch");
            runSpans.push_back(log->add("serve.sched.run", p1, p1,
                                        SpanLog::kNoParent, b, "batch"));
            seams.setParent(runSpans.back());
        }
        appendBatch(it.report, pipeline.run(queue), b == 0);
        const Clock::time_point p2 = Clock::now();
        if (log)
            log->extend(runSpans.back(), p2);
        it.pushSeconds += seconds(p0, p1);
        it.runSeconds += seconds(p1, p2);
    }
    const Clock::time_point t2 = Clock::now();
    std::string jsonl;
    if (w.journalEvents) {
        jsonl = journal.toJsonl();
        it.jsonlHash = fnv1a(jsonl);
    }
    const Clock::time_point t3 = Clock::now();
    it.cpuSeconds = cpuSeconds() - c0;
    it.emitSeconds = seconds(t2, t3);
    it.timedSeconds = seconds(t0, t3);
    // ---- end of timed phase ----

    it.journalBytes = jsonl.size();
    jsonl.clear();
    jsonl.shrink_to_fit();
    it.latency = journal.summarize(it.report.modeledSeconds);
    it.latencies = journal.latencies();
    std::vector<tpl::obs::JournalEvent> events = journal.events();
    it.journalEvents = events.size();
    if (keepEvents)
        for (tpl::obs::JournalEvent& e : events)
            if (e.kind == "compute")
                it.computeEvents.push_back(std::move(e));
    it.rankBroadcasts = pipeline.cache().rankBroadcasts();
    it.evictions = pipeline.cache().evictions() - evictionsBefore;
    if (tuner)
        for (const tp::StreamReport& s : tuner->streamReports()) {
            it.slaViolations += s.slaViolated ? 1 : 0;
            char line[512];
            std::snprintf(line, sizeof line,
                          "tenant %llu [%s] %s -> %s%s%s: rmse %.3g, "
                          "%.1f cycles/element, %llu switches",
                          static_cast<unsigned long long>(s.tenant),
                          s.sla.c_str(), s.requested.c_str(),
                          s.chosen.c_str(), s.committed ? " committed" : "",
                          s.slaViolated ? " violated" : "", s.rmse,
                          s.cyclesPerElement,
                          static_cast<unsigned long long>(s.switches));
            it.tunerStreams.push_back(line);
        }
    for (const auto& [hash, key] : seams.routed())
        if (auto found = catalog.find(hash))
            it.routed[key.label].push_back({found->first, found->second});

    if (log) {
        it.setupProviderCalls = setupLayers.providerCalls;
        it.setupBuildSeconds = setupLayers.buildSeconds;
        if (w.journalEvents)
            log->add("obs.journal.emit", t2, t3, SpanLog::kNoParent);
        it.layers = seams.counters();
        it.selfSeconds = it.runSeconds;
        for (int32_t span : runSpans)
            it.selfSeconds -= log->unionSeconds(
                span, {"transpim.kernel", "serve.table.build", "tuner.route",
                       "tuner.observe"});
    }
    return it;
}

/** Modeled results that must repeat bit for bit across iterations. */
std::string
modeledFingerprint(const Iteration& it)
{
    std::ostringstream o;
    o.precision(17);
    o << it.report.modeledSeconds << ' ' << it.report.syncSeconds << ' '
      << it.report.waves << ' ' << it.report.elements << ' '
      << totalCycles(it.report) << ' ' << it.latency.p50 << ' '
      << it.latency.p99 << ' ' << it.latency.requests << ' '
      << it.jsonlHash;
    return o.str();
}

struct Verification
{
    uint64_t mismatchedRequests = 0; ///< not bit-identical to evalBatch
    double rmseMax = 0.0;
    std::vector<std::string> problems;
};

/**
 * Every served element must be bit-identical to a direct
 * FunctionEvaluator::evalBatch of the configuration that served it:
 * the requested one, or on the tuned workload the one the journal's
 * compute events name (one event per request per wave, in wave
 * order; the tuned workload is one batch, so journal request ids are
 * request indices + 1). RMSE against the double-precision reference
 * is taken per requested configuration and tenant.
 */
Verification
verify(const WorkloadDef& w, const std::vector<float>& outputs,
       const Iteration& it)
{
    Verification v;
    struct Piece
    {
        uint64_t wave = 0;
        uint64_t elements = 0;
        std::string label;
    };
    // Request ids are assigned 1.. in push order by each batch's queue.
    std::map<uint64_t, std::vector<Piece>> pieces;
    for (const tpl::obs::JournalEvent& e : it.computeEvents)
        pieces[e.request].push_back({e.wave, e.elements, e.table});

    std::map<uint64_t, std::unique_ptr<tp::FunctionEvaluator>> evals;
    auto evalInto = [&](const ConfigDef& c, const float* in, float* out,
                        uint64_t n) {
        auto& ev = evals[tp::batchTableKey(c.function, c.spec).hash];
        if (!ev)
            ev = std::make_unique<tp::FunctionEvaluator>(
                tp::FunctionEvaluator::create(c.function, c.spec));
        ev->evalBatch({in, n}, {out, n});
    };

    std::map<std::pair<uint32_t, uint64_t>, std::pair<double, uint64_t>> sq;
    std::vector<float> expect;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const RequestDef& rd = w.requests[i];
        const ConfigDef& asked = w.configs[rd.config];
        const float* in = w.inputs.data() + rd.offset;
        const float* out = outputs.data() + rd.offset;
        expect.resize(rd.elements);

        bool match = true;
        if (!w.tuned) {
            evalInto(asked, in, expect.data(), rd.elements);
            match = std::memcmp(expect.data(), out,
                                rd.elements * sizeof(float)) == 0;
        } else {
            std::vector<Piece> ps = pieces[i + 1];
            std::sort(ps.begin(), ps.end(),
                      [](const Piece& a, const Piece& b) {
                          return a.wave < b.wave;
                      });
            uint64_t off = 0;
            for (const Piece& p : ps) {
                auto cands = it.routed.find(p.label);
                bool any = false;
                if (cands != it.routed.end() &&
                    off + p.elements <= rd.elements)
                    for (const ConfigDef& c : cands->second) {
                        evalInto(c, in + off, expect.data() + off,
                                 p.elements);
                        if (std::memcmp(expect.data() + off, out + off,
                                        p.elements * sizeof(float)) == 0) {
                            any = true;
                            break;
                        }
                    }
                match = match && any;
                off += p.elements;
            }
            match = match && off == rd.elements;
        }
        if (!match)
            ++v.mismatchedRequests;

        const bool relative =
            tp::resolveMetric(asked.function) == tp::ErrorMetric::Relative;
        auto& acc = sq[{rd.config, rd.tenant}];
        for (uint64_t e = 0; e < rd.elements; ++e) {
            double ref = tp::referenceValue(asked.function, in[e]);
            double err = static_cast<double>(out[e]) - ref;
            if (relative)
                err /= std::max(1.0, std::fabs(ref));
            acc.first += err * err;
        }
        acc.second += rd.elements;
    }
    for (const auto& [k, a] : sq) {
        double rmse = a.second ? std::sqrt(a.first / a.second) : 0.0;
        if (!(rmse <= kRmseCeiling))
            v.problems.push_back(
                "rmse " + std::to_string(rmse) + " over ceiling for " +
                tp::batchTableKey(w.configs[k.first].function,
                                  w.configs[k.first].spec)
                    .label +
                " tenant " + std::to_string(k.second));
        v.rmseMax = std::max(v.rmseMax, rmse);
    }
    if (v.mismatchedRequests)
        v.problems.push_back(std::to_string(v.mismatchedRequests) +
                             " requests differ from direct evalBatch");
    return v;
}

/** Standalone replay of the workload's requests through a BatchQueue
 * per batch, popped with the pipeline's budget: what the queue costs. */
struct QueueReplay
{
    double popSeconds = 0.0;
    uint64_t waves = 0;
    uint64_t requests = 0;
};

QueueReplay
replayQueue(const WorkloadDef& w, SpanLog* log)
{
    // Spans are never dereferenced by popWave; keys need only hash
    // and label, as in the pipeline.
    std::vector<sv::TableKey> keys;
    for (const ConfigDef& c : w.configs)
        keys.push_back(tp::batchTableKey(c.function, c.spec));
    const uint64_t budget = waveBudget(w);
    QueueReplay q;
    int32_t parent = SpanLog::kNoParent;
    if (log)
        parent = log->add("serve.queue.replay", Clock::now(), Clock::now(),
                          SpanLog::kNoParent);
    for (uint32_t b = 0; b < w.batches; ++b) {
        sv::BatchQueue queue;
        const auto [first, last] = batchRange(w, b);
        for (size_t i = first; i < last; ++i) {
            const RequestDef& rd = w.requests[i];
            sv::Request r;
            r.table = keys[rd.config];
            r.tenant = rd.tenant;
            r.input = w.inputs.data() + rd.offset;
            r.elements = rd.elements;
            queue.push(std::move(r));
        }
        queue.close();
        for (;;) {
            const Clock::time_point a = Clock::now();
            std::optional<sv::Wave> wave = queue.popWave(budget);
            const Clock::time_point c = Clock::now();
            if (!wave)
                break;
            q.popSeconds += seconds(a, c);
            q.requests += wave->requestsClosed;
            if (!wave->items.empty())
                ++q.waves;
            if (log)
                log->add("serve.queue.pop", a, c, parent,
                         static_cast<int64_t>(q.waves), "wave");
        }
    }
    if (log)
        log->extend(parent, Clock::now());
    return q;
}

/** Ordered name -> (value, unit) metric list. */
class Metrics
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (size_t i = 0; i < items_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
            s += (i ? ", \"" : "\"") + items_[i].name +
                 "\": {\"value\": " + buf + ", \"unit\": \"" +
                 items_[i].unit + "\"}";
        }
        return s + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Index of the first iteration whose host times count. The first
 * iteration of a process runs on a cold heap, whose page faults make
 * its set-up and timed phase slower, so it counts only when alone. */
size_t
firstWarm(const std::vector<Iteration>& its)
{
    return its.size() > 1 ? 1 : 0;
}

void
addEndToEnd(Metrics& m, const WorkloadDef& w,
            const std::vector<Iteration>& its, double rssMb,
            double rmseMax)
{
    std::vector<double> rate, setup;
    for (size_t i = firstWarm(its); i < its.size(); ++i) {
        rate.push_back(
            ratio(static_cast<double>(w.elements), its[i].timedSeconds));
        setup.push_back(its[i].setupSeconds);
    }
    const Iteration& it = its.front();
    m.add("sim_elements_per_s", median(rate), "1/s");
    m.add("setup_s", median(setup), "s");
    m.add("peak_rss_mb", rssMb, "MB");
    m.add("modeled_requests_per_s", it.latency.requestsPerSecond, "1/s");
    m.add("modeled_p50_latency_s", it.latency.p50, "s");
    m.add("modeled_p99_latency_s", it.latency.p99, "s");
    m.add("modeled_dpu_cycles_per_element",
          ratio(static_cast<double>(totalCycles(it.report)),
                static_cast<double>(it.report.elements)),
          "cycles/element");
    m.add("accuracy_rmse_max", rmseMax, "rmse");
    m.add("served_share",
          ratio(static_cast<double>(it.latency.requests),
                static_cast<double>(w.requests.size())),
          "ratio");
}

void
addPerLayer(Metrics& m, const Iteration& tr, const QueueReplay& q,
            double overheadSeconds)
{
    const LayerCounters& L = tr.layers;
    const sv::ServeReport& rep = tr.report;
    double compute = 0.0, transfer = 0.0;
    uint64_t retried = 0;
    for (const sv::WaveStats& s : rep.waveStats) {
        compute += s.computeSeconds;
        transfer += s.broadcastSeconds + s.scatterSeconds + s.gatherSeconds;
        retried += s.retriedSlices;
    }
    m.add("pimsim.system_build_s", tr.systemBuildSeconds, "s");
    m.add("pimsim.modeled_compute_s", compute, "s");
    m.add("pimsim.modeled_transfer_s", transfer, "s");
    for (tp::Method meth : allMethods()) {
        auto c = L.cyclesByMethod.find(meth);
        auto e = L.elementsByMethod.find(meth);
        m.add("pimsim.dpu_cycles_per_element." + methodKey(meth),
              c == L.cyclesByMethod.end()
                  ? 0.0
                  : ratio(static_cast<double>(c->second),
                          static_cast<double>(e->second)),
              "cycles/element");
    }

    m.add("transpim.kernel_s", L.kernelSeconds, "s");
    m.add("transpim.kernel_calls", static_cast<double>(L.kernelCalls),
          "count");
    for (tp::Method meth : allMethods()) {
        auto s = L.kernelSecondsByMethod.find(meth);
        auto e = L.kernelElementsByMethod.find(meth);
        m.add("transpim.kernel_ns_per_element." + methodKey(meth),
              s == L.kernelSecondsByMethod.end()
                  ? 0.0
                  : ratio(s->second * 1e9, static_cast<double>(e->second)),
              "ns");
    }

    m.add("serve.queue.push_s", tr.pushSeconds, "s");
    m.add("serve.queue.pop_s", q.popSeconds, "s");
    m.add("serve.queue.waves", static_cast<double>(q.waves), "count");
    m.add("serve.queue.requests_per_wave",
          ratio(static_cast<double>(q.requests), static_cast<double>(q.waves)),
          "count");

    m.add("serve.table.provider_calls",
          static_cast<double>(tr.setupProviderCalls + L.providerCalls),
          "count");
    m.add("serve.table.build_s", tr.setupBuildSeconds + L.buildSeconds, "s");
    m.add("serve.table.build_timed_s", L.buildSeconds, "s");
    m.add("serve.table.hit_ratio",
          ratio(static_cast<double>(rep.cacheHits),
                static_cast<double>(rep.cacheHits + rep.cacheMisses)),
          "ratio");
    m.add("serve.table.rank_broadcasts",
          static_cast<double>(tr.rankBroadcasts), "count");
    m.add("serve.table.evictions", static_cast<double>(tr.evictions),
          "count");

    m.add("serve.sched.run_s", tr.runSeconds, "s");
    m.add("serve.sched.self_s", tr.selfSeconds, "s");
    m.add("serve.sched.overlap_fraction", rep.overlapFraction(), "ratio");
    double maxSpan = 0.0, sumSpan = 0.0;
    for (const sv::RankStats& r : rep.rankStats) {
        maxSpan = std::max(maxSpan, r.makespanSeconds);
        sumSpan += r.makespanSeconds;
    }
    m.add("serve.sched.rank_makespan_imbalance",
          rep.rankStats.empty()
              ? 1.0
              : ratio(maxSpan, sumSpan / static_cast<double>(
                                             rep.rankStats.size())),
          "ratio");
    m.add("serve.sched.dropped_elements",
          static_cast<double>(rep.droppedElements), "count");
    m.add("serve.sched.infeasible_elements",
          static_cast<double>(rep.infeasibleElements), "count");
    m.add("serve.sched.retried_slices", static_cast<double>(retried),
          "count");

    double qw = 0, xf = 0, cp = 0, st = 0;
    uint64_t n = 0;
    for (const tpl::obs::RequestLatency& l : tr.latencies)
        if (l.complete) {
            qw += l.queueWaitSeconds;
            xf += l.transferSeconds;
            cp += l.computeSeconds;
            st += l.stallSeconds;
            ++n;
        }
    const double dn = static_cast<double>(n);
    m.add("serve.latency.queue_wait_s_mean", ratio(qw, dn), "s");
    m.add("serve.latency.transfer_s_mean", ratio(xf, dn), "s");
    m.add("serve.latency.compute_s_mean", ratio(cp, dn), "s");
    m.add("serve.latency.stall_s_mean", n ? st / dn : 0.0, "s");

    m.add("obs.journal.events", static_cast<double>(tr.journalEvents),
          "count");
    m.add("obs.journal.bytes", static_cast<double>(tr.journalBytes), "B");
    m.add("obs.journal.emit_s", tr.emitSeconds, "s");

    m.add("tuner.route_s", L.routeSeconds, "s");
    m.add("tuner.observe_s", L.observeSeconds, "s");
    m.add("tuner.switches", static_cast<double>(L.switches), "count");
    m.add("tuner.candidates", static_cast<double>(L.routes.size()),
          "count");
    m.add("tuner.sla_violations", static_cast<double>(tr.slaViolations),
          "count");

    m.add("trace.overhead_s", overheadSeconds, "s");
}

std::string
jsonEscape(const std::string& s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o;
}

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : std::string();
        };
        try {
            if (k == "--workload")
                a.workload = val();
            else if (k == "--seed")
                a.seed = std::stoull(val());
            else if (k == "--seconds")
                a.seconds = std::stod(val());
            else if (k == "--trace")
                a.trace = std::stoi(val()) != 0;
            else if (k == "--scale")
                a.scale = std::stod(val());
            else if (k == "--spans")
                a.spansPath = val();
            else if (k == "--git-sha")
                a.gitSha = val();
            else if (k == "--check-replay")
                a.checkReplay = true;
            else
                return false;
        } catch (const std::exception&) {
            return false;
        }
    }
    return !a.workload.empty() && a.scale > 0.0 && a.seconds >= 0.0;
}

/**
 * The replay check: on a fault-free untuned run without a CostBook
 * (which would split waves), the standalone queue replay must pop
 * exactly as many waves as the pipeline executed — evidence that
 * timing the queue from outside measures what the pipeline did.
 */
int
checkReplay(WorkloadDef w)
{
    w.tuned = false;
    w.costBook = false;
    std::vector<float> out(w.elements);
    Iteration it = runIteration(w, out, nullptr, false);
    QueueReplay q = replayQueue(w, nullptr);
    const bool ok = it.report.complete && q.waves == it.report.waves &&
                    q.requests == w.requests.size();
    std::printf("replay-check %s: pipeline waves %llu, replay waves %llu, "
                "replay requests %llu of %zu: %s\n",
                w.name.c_str(),
                static_cast<unsigned long long>(it.report.waves),
                static_cast<unsigned long long>(q.waves),
                static_cast<unsigned long long>(q.requests),
                w.requests.size(), ok ? "ok" : "MISMATCH");
    return ok ? 0 : 1;
}

int
run(const Args& args)
{
    std::optional<WorkloadDef> wl =
        makeWorkload(args.workload, args.seed, args.scale);
    if (!wl) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const WorkloadDef& w = *wl;
    if (args.checkReplay)
        return checkReplay(w);

    std::printf("perfbench %s: seed %llu, %zu requests in %u batches, "
                "%llu elements, %zu configurations, %s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.requests.size(), w.batches,
                static_cast<unsigned long long>(w.elements),
                w.configs.size(),
                w.topology ? (w.topology->toText() + " fleet").c_str()
                           : (std::to_string(w.dpus) + " DPUs flat").c_str());
    std::fflush(stdout);

    std::vector<float> first(w.elements), outputs(w.elements);
    std::vector<Iteration> plain, traced;
    SpanLog spans;
    std::vector<std::string> problems;
    std::string fingerprint;
    // The high-water mark after the first iteration: what one set-up
    // and timed phase need. Later iterations only add allocator
    // fragmentation, which grows with how many fit in --seconds.
    double rssMb = 0.0;
    const Clock::time_point start = Clock::now();
    for (uint32_t i = 0;; ++i) {
        const bool useTrace = args.trace && i % 2 == 1;
        const bool isFirst = i == 0;
        if (useTrace)
            spans.clear();
        Iteration it = runIteration(w, isFirst ? first : outputs,
                                    useTrace ? &spans : nullptr,
                                    isFirst && w.tuned);
        if (isFirst)
            rssMb = peakRssMb();
        if (!it.warmComplete)
            problems.push_back("warm pass incomplete");
        const std::string fp = modeledFingerprint(it);
        if (isFirst)
            fingerprint = fp;
        else if (fp != fingerprint)
            problems.push_back("modeled results differ across iterations");
        if (!isFirst &&
            std::memcmp(first.data(), outputs.data(),
                        w.elements * sizeof(float)) != 0)
            problems.push_back("outputs differ across iterations");
        std::printf("  iter %u%s: setup %.4f s, timed %.4f s "
                    "(push %.4f, run %.4f, emit %.4f) cpu %.4f\n",
                    i, useTrace ? " traced" : "", it.setupSeconds,
                    it.timedSeconds, it.pushSeconds, it.runSeconds,
                    it.emitSeconds, it.cpuSeconds);
        std::fflush(stdout);
        // Keep detail for the first iteration (verified, reported) and
        // the latest traced one (per-layer metrics) only.
        if (useTrace && !traced.empty())
            traced.back().dropDetail();
        if (!useTrace && !isFirst)
            it.dropDetail();
        (useTrace ? traced : plain).push_back(std::move(it));
        const size_t done = args.trace
                                ? std::min(plain.size(), traced.size())
                                : plain.size();
        if (done >= (args.trace ? 1u : 3u) &&
            seconds(start, Clock::now()) >= args.seconds)
            break;
    }

    const Iteration& base = plain.front();
    for (const std::string& s : base.tunerStreams)
        std::printf("  tuner: %s\n", s.c_str());
    const sv::ServeReport& rep = base.report;
    if (!rep.complete || rep.droppedElements || rep.infeasibleElements)
        problems.push_back("pipeline run incomplete");
    if (base.latency.requests != w.requests.size())
        problems.push_back("served " + std::to_string(base.latency.requests) +
                           " of " + std::to_string(w.requests.size()) +
                           " requests");
    Verification v = verify(w, first, base);
    problems.insert(problems.end(), v.problems.begin(), v.problems.end());

    Metrics m;
    if (args.trace) {
        QueueReplay q = replayQueue(w, &spans);
        std::vector<double> tt, pt;
        for (const Iteration& it : traced)
            tt.push_back(it.timedSeconds);
        for (size_t i = firstWarm(plain); i < plain.size(); ++i)
            pt.push_back(plain[i].timedSeconds);
        const double overhead = median(tt) - median(pt);
        addPerLayer(m, traced.back(), q, overhead);
        if (!args.spansPath.empty() && !spans.writeJsonl(args.spansPath))
            problems.push_back("cannot write spans to " + args.spansPath);
        // The tuner seam saw every wave: per-method cycles are whole.
        if (traced.back().layers.observedCycles !=
            totalCycles(traced.back().report))
            problems.push_back("observed cycles differ from WaveStats");
    } else {
        addEndToEnd(m, w, plain, rssMb, v.rmseMax);
    }

    const uint64_t attempted = plain.size() * w.requests.size();
    uint64_t failed =
        w.requests.size() - std::min<uint64_t>(base.latency.requests,
                                               w.requests.size());
    failed += v.mismatchedRequests;
    const bool correct = problems.empty();
    for (const std::string& p : problems)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());

    std::printf("{\"metadata\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"git_sha\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
                "\"sim_threads\": 1, \"requests\": %zu, \"batches\": %u, "
                "\"elements\": %llu, "
                "\"configurations\": %zu, \"iterations\": %zu, "
                "\"traced_iterations\": %zu, \"latency_samples\": %llu, "
                "\"waves\": %llu, \"jsonl_fnv1a\": \"%016llx\", "
                "\"spans\": \"%s\"}}\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                jsonEscape(args.gitSha).c_str(),
                jsonEscape(__VERSION__).c_str(),
                std::thread::hardware_concurrency(), w.requests.size(),
                w.batches, static_cast<unsigned long long>(w.elements),
                w.configs.size(),
                plain.size(), traced.size(),
                static_cast<unsigned long long>(base.latency.requests),
                static_cast<unsigned long long>(rep.waves),
                static_cast<unsigned long long>(base.jsonlHash),
                jsonEscape(args.trace ? args.spansPath : "").c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    perfbench::Args args;
    if (!perfbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--scale F] [--spans PATH] "
                     "[--git-sha SHA]\n"
                     "       perfbench_driver --workload NAME "
                     "--check-replay [--scale F]\n");
        return 2;
    }
    return perfbench::run(args);
}
