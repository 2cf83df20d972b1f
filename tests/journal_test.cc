/**
 * @file
 * pimjournal tests: per-request causal spans through the serve
 * pipeline, the exact latency-decomposition identity, byte-identity
 * of the journal across simulation thread counts, statistics
 * neutrality, exact percentile extraction, SLO spec grammar and
 * accounting, and straggler-anomaly cross-validation against
 * pimfault-injected stragglers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "pimsim/obs/journal.h"
#include "pimsim/serve/pipeline.h"
#include "transpim/serve_glue.h"

using namespace tpl;
using namespace tpl::sim;
using namespace tpl::transpim;

namespace {

serve::Request
makeRequest(const serve::TableKey& key, const float* in, float* out,
            uint64_t elements, double arrival = 0.0)
{
    serve::Request r;
    r.table = key;
    r.input = in;
    r.output = out;
    r.elements = elements;
    r.arrivalSeconds = arrival;
    return r;
}

/** One pipelined serve run of three sin requests (one multi-wave, two
 * coalescing) with an optional journal attached. */
struct RunResult
{
    serve::ServeReport rep;
    std::string jsonl;
    std::vector<obs::RequestLatency> latencies;
    std::vector<obs::JournalEvent> events;
    std::vector<float> out;
    double makespan = 0.0;
};

RunResult
runServe(uint32_t simThreads, bool withJournal,
         const char* faultPlanText = nullptr, bool events = true)
{
    PimSystem sys(4);
    sys.setSimThreads(simThreads);
    if (faultPlanText) {
        auto plan = fault::FaultPlan::parse(faultPlanText);
        EXPECT_TRUE(plan.has_value());
        sys.armFaults(*plan);
    }
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    const uint32_t big = 4096, small = 512;
    std::vector<float> in(big + 2 * small), out(big + 2 * small, 0.0f);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = 6.28f * static_cast<float>(i) /
                static_cast<float>(in.size());

    obs::Journal journal;
    journal.setEventsEnabled(events);
    serve::BatchQueue queue;
    if (withJournal)
        queue.setJournal(&journal);
    queue.push(makeRequest(key, in.data(), out.data(), big, 0.0));
    queue.push(makeRequest(key, in.data() + big, out.data() + big,
                           small, 1e-6));
    queue.push(makeRequest(key, in.data() + big + small,
                           out.data() + big + small, small, 2e-6));
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = 256; // 4 DPUs -> 1024-element waves
    if (withJournal)
        popts.journal = &journal;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);

    RunResult res;
    res.rep = pipeline.run(queue);
    res.jsonl = journal.toJsonl();
    res.latencies = journal.latencies();
    res.events = journal.events();
    res.out = out;
    res.makespan = res.rep.modeledSeconds;
    return res;
}

uint64_t
countEvents(const std::vector<obs::JournalEvent>& evs,
            const std::string& kind, uint64_t request)
{
    uint64_t n = 0;
    for (const auto& ev : evs)
        if (ev.kind == kind && ev.request == request)
            ++n;
    return n;
}

/** The `latency` lines of a JSONL journal, in order. */
std::string
latencyLines(const std::string& jsonl)
{
    std::string out;
    size_t pos = 0;
    while (pos < jsonl.size()) {
        size_t eol = jsonl.find('\n', pos);
        if (eol == std::string::npos)
            eol = jsonl.size() - 1;
        const std::string line = jsonl.substr(pos, eol + 1 - pos);
        if (line.find("\"kind\": \"latency\"") != std::string::npos)
            out += line;
        pos = eol + 1;
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Causal spans.

TEST(Journal, RequestSpansCoverEveryStage)
{
    RunResult res = runServe(1, true);
    ASSERT_TRUE(res.rep.complete);
    EXPECT_EQ(res.rep.waves, 5u); // 4 waves of req 1 + 1 coalesced

    // Request 1 (4096 elements) rides 4 waves; requests 2 and 3
    // coalesce into the final wave.
    EXPECT_EQ(countEvents(res.events, "enqueue", 1), 1u);
    EXPECT_EQ(countEvents(res.events, "coalesce", 1), 4u);
    EXPECT_EQ(countEvents(res.events, "scatter", 1), 4u);
    EXPECT_EQ(countEvents(res.events, "compute", 1), 4u);
    EXPECT_EQ(countEvents(res.events, "gather", 1), 4u);
    EXPECT_EQ(countEvents(res.events, "done", 1), 1u);
    for (uint64_t r : {2u, 3u}) {
        EXPECT_EQ(countEvents(res.events, "enqueue", r), 1u);
        EXPECT_EQ(countEvents(res.events, "coalesce", r), 1u);
        EXPECT_EQ(countEvents(res.events, "done", r), 1u);
    }
    EXPECT_EQ(countEvents(res.events, "anomaly", 0), 0u);

    ASSERT_EQ(res.latencies.size(), 3u);
    for (const obs::RequestLatency& lat : res.latencies) {
        EXPECT_TRUE(lat.complete);
        EXPECT_NE(lat.table.find("sin"), std::string::npos) << lat.table;
        EXPECT_GT(lat.latencySeconds(), 0.0);
        EXPECT_GE(lat.queueWaitSeconds, 0.0);
        EXPECT_GT(lat.transferSeconds, 0.0);
        EXPECT_GT(lat.computeSeconds, 0.0);
    }
    EXPECT_EQ(res.latencies[0].waves, 4u);
    EXPECT_EQ(res.latencies[0].elements, 4096u);
    EXPECT_EQ(res.latencies[1].waves, 1u);
    EXPECT_EQ(res.latencies[2].waves, 1u);
}

TEST(Journal, DecompositionIdentityIsExact)
{
    RunResult res = runServe(1, true);
    ASSERT_TRUE(res.rep.complete);
    ASSERT_EQ(res.latencies.size(), 3u);
    for (const obs::RequestLatency& lat : res.latencies) {
        const double sum = lat.queueWaitSeconds + lat.transferSeconds +
                           lat.computeSeconds + lat.stallSeconds;
        const double latency = lat.latencySeconds();
        // stall is the residual, so the identity holds to rounding.
        EXPECT_NEAR(latency, sum, 1e-12 + 1e-9 * latency)
            << "request " << lat.request;
        EXPECT_DOUBLE_EQ(lat.queueWaitSeconds,
                         lat.firstScatterSeconds - lat.arrivalSeconds);
    }
    // The multi-wave request overlaps its own waves in the double-
    // buffered schedule: its legs sum past the span, so the residual
    // goes negative — that is the documented signature of overlap.
    EXPECT_LT(res.latencies[0].stallSeconds, 0.0);
}

TEST(Journal, ByteIdenticalAcrossSimThreadCounts)
{
    RunResult ref = runServe(1, true);
    ASSERT_FALSE(ref.jsonl.empty());
    for (uint32_t threads : {4u, 16u}) {
        RunResult res = runServe(threads, true);
        EXPECT_EQ(ref.jsonl, res.jsonl) << "threads=" << threads;
    }
}

TEST(Journal, StatisticsNeutralWhenAttached)
{
    RunResult off = runServe(4, false);
    RunResult on = runServe(4, true);
    ASSERT_TRUE(off.rep.complete);
    ASSERT_TRUE(on.rep.complete);
    // Modeled statistics are bit-identical with the journal on/off.
    EXPECT_EQ(off.rep.modeledSeconds, on.rep.modeledSeconds);
    EXPECT_EQ(off.rep.syncSeconds, on.rep.syncSeconds);
    EXPECT_EQ(off.rep.computeCycles, on.rep.computeCycles);
    EXPECT_EQ(off.rep.waves, on.rep.waves);
    EXPECT_EQ(off.rep.anomalousWaves, on.rep.anomalousWaves);
    ASSERT_EQ(off.out.size(), on.out.size());
    EXPECT_EQ(0, std::memcmp(off.out.data(), on.out.data(),
                             off.out.size() * sizeof(float)));
    // And the off run really recorded nothing.
    EXPECT_TRUE(off.jsonl.empty());
    EXPECT_FALSE(on.jsonl.empty());
}

TEST(Journal, EventsOffRecordsNoEventsAndTheSameLatencies)
{
    // A clean run and one where DPU 1 dies mid-run (its slices retry
    // on the survivors): with events off the journal holds no event,
    // and its latency lines are the events-on run's, byte for byte.
    for (const char* plan :
         {static_cast<const char*>(nullptr),
          "seed 5\nfault kind=dpu-hard-fail dpu=1 prob=1\n"}) {
        RunResult on = runServe(1, true, plan, true);
        RunResult off = runServe(1, true, plan, false);
        ASSERT_TRUE(on.rep.complete);
        ASSERT_TRUE(off.rep.complete);
        EXPECT_FALSE(on.events.empty());
        EXPECT_TRUE(off.events.empty());
        ASSERT_EQ(off.latencies.size(), 3u);
        EXPECT_EQ(off.jsonl, latencyLines(off.jsonl));
        EXPECT_EQ(off.jsonl, latencyLines(on.jsonl));
        EXPECT_EQ(off.makespan, on.makespan);
    }
}

TEST(Journal, InternedStringsResolveAtReadTime)
{
    obs::Journal j;
    EXPECT_EQ(j.intern(""), 0u);
    const uint32_t sin = j.intern("sin table");
    EXPECT_NE(sin, 0u);
    EXPECT_EQ(j.intern("sin table"), sin);
    EXPECT_NE(j.intern("cos table"), sin);

    obs::InternedEvent ev;
    ev.kind = j.intern("compute");
    ev.table = sin;
    ev.request = 7;
    j.record(ev);
    obs::JournalEvent text;
    text.kind = "compute";
    text.table = "sin table";
    text.request = 7;
    text.note = "by text";
    j.record(text);
    obs::InternedLatency lat;
    lat.request = 7;
    lat.table = sin;
    j.recordLatency(lat);

    const std::vector<obs::JournalEvent> evs = j.events();
    ASSERT_EQ(evs.size(), 2u);
    for (const obs::JournalEvent& e : evs) {
        EXPECT_EQ(e.kind, "compute");
        EXPECT_EQ(e.table, "sin table");
        EXPECT_EQ(e.request, 7u);
    }
    EXPECT_EQ(evs[0].note, "");
    EXPECT_EQ(evs[1].note, "by text");
    ASSERT_EQ(j.latencies().size(), 1u);
    EXPECT_EQ(j.latencies()[0].table, "sin table");

    // Ids survive clear(); the records do not.
    j.clear();
    EXPECT_TRUE(j.events().empty());
    EXPECT_EQ(j.intern("sin table"), sin);
}

TEST(Journal, JsonlSortsKindsAsTextNotById)
{
    // "scatter" is interned before "compute", but at equal t the
    // canonical order is by kind text: compute first.
    obs::Journal j;
    for (const char* kind : {"scatter", "compute"}) {
        obs::JournalEvent ev;
        ev.kind = kind;
        ev.t = 1.0;
        j.record(ev);
    }
    const std::string jsonl = j.toJsonl();
    EXPECT_LT(jsonl.find("compute"), jsonl.find("scatter")) << jsonl;
}

TEST(BatchQueue, PushRecordsNoEnqueueEventWhenEventsAreOff)
{
    obs::Journal journal;
    journal.setEventsEnabled(false);
    serve::BatchQueue queue;
    queue.setJournal(&journal);
    serve::TableKey key;
    key.hash = 1;
    key.label = "a label well past the small-string limit";
    float in[4] = {}, out[4] = {};
    queue.push(makeRequest(key, in, out, 4));
    EXPECT_TRUE(journal.events().empty());

    journal.setEventsEnabled(true);
    queue.push(makeRequest(key, in, out, 4, 0.5));
    const std::vector<obs::JournalEvent> evs = journal.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].kind, "enqueue");
    EXPECT_EQ(evs[0].request, 2u);
    EXPECT_EQ(evs[0].table, key.label);
    EXPECT_EQ(evs[0].t, 0.5);
}

TEST(Journal, RetryWaveSplittingOneRequestStillJournalsItOnce)
{
    // One 256-element wave over 4 DPUs x 64: request 2 (192 elements)
    // spans all four slices. DPUs 0 and 2 die at launch, so the
    // retry wave carries two separate items of request 2 (failed,
    // healthy, failed slices). Per request and wave there must still
    // be exactly one coalesce / scatter / compute / gather.
    PimSystem sys(4);
    auto plan = fault::FaultPlan::parse(
        "seed 3\nfault kind=dpu-hard-fail dpu=0 prob=1\n"
        "fault kind=dpu-hard-fail dpu=2 prob=1\n");
    ASSERT_TRUE(plan.has_value());
    sys.armFaults(*plan);
    EvaluatorCatalog catalog;
    serve::TableKey key = catalog.add(Function::Sin, MethodSpec{});
    std::vector<float> in(256), out(256, 0.0f);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = 3.0f * static_cast<float>(i) / in.size();

    obs::Journal journal;
    serve::BatchQueue queue;
    queue.setJournal(&journal);
    queue.push(makeRequest(key, in.data(), out.data(), 32));
    queue.push(makeRequest(key, in.data() + 32, out.data() + 32, 192));
    queue.push(makeRequest(key, in.data() + 224, out.data() + 224, 32));
    queue.close();
    serve::PipelineOptions popts;
    popts.numTasklets = 4;
    popts.perDpuElements = 64;
    popts.journal = &journal;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);
    ASSERT_TRUE(rep.complete);
    ASSERT_EQ(rep.waves, 2u);
    EXPECT_EQ(rep.reshardedElements, 128u);

    std::map<std::tuple<std::string, uint64_t, uint64_t>, int> seen;
    for (const obs::JournalEvent& ev : journal.events())
        if (ev.wave != obs::JournalEvent::kNoWave && ev.request != 0)
            ++seen[{ev.kind, ev.request, ev.wave}];
    for (const char* kind : {"coalesce", "scatter", "compute", "gather"})
        for (uint64_t wave : {0u, 1u})
            for (uint64_t req : {1u, 2u, 3u}) {
                // Request 3 sat on healthy DPU 3: it rode wave 0 only.
                const int want = req == 3 && wave == 1 ? 0 : 1;
                EXPECT_EQ((seen[{kind, req, wave}]), want)
                    << kind << " request " << req << " wave " << wave;
            }
    const std::vector<obs::RequestLatency> lats = journal.latencies();
    ASSERT_EQ(lats.size(), 3u);
    EXPECT_EQ(lats[1].request, 2u);
    EXPECT_EQ(lats[1].waves, 2u);
    EXPECT_EQ(lats[1].elements, 192u);
    for (const obs::RequestLatency& lat : lats)
        EXPECT_TRUE(lat.complete) << lat.request;
    EXPECT_EQ(countEvents(journal.events(), "done", 2), 1u);
}

// ---------------------------------------------------------------------
// Straggler anomaly detection, cross-validated against pimfault.

TEST(Journal, InjectedStragglerWaveIsFlagged)
{
    // DPU 3 runs 8x slow on every launch (pure slowdown, no launch
    // timeout armed, so it is never masked — exactly the anomaly the
    // detector exists for).
    RunResult res = runServe(
        1, true, "seed 1\nfault kind=dpu-straggler dpu=3 prob=1 slowdown=8\n");
    ASSERT_TRUE(res.rep.complete);
    EXPECT_GT(res.rep.anomalousWaves, 0u);
    EXPECT_EQ(res.rep.anomalousWaves, res.rep.waves);
    uint64_t anomalies = 0;
    for (const auto& ev : res.events)
        if (ev.kind == "anomaly") {
            ++anomalies;
            EXPECT_NE(ev.wave, obs::JournalEvent::kNoWave);
            EXPECT_GT(ev.cycles, 0u);
            EXPECT_NE(ev.note.find("median"), std::string::npos);
        }
    EXPECT_EQ(anomalies, res.rep.anomalousWaves);
    for (const serve::WaveStats& ws : res.rep.waveStats) {
        EXPECT_EQ(ws.stragglerDpus, 1u);
        EXPECT_GT(ws.medianCycles, 0u);
        EXPECT_GT(static_cast<double>(ws.maxCycles),
                  4.0 * static_cast<double>(ws.medianCycles));
    }

    // Control: the fault-free run flags nothing (see
    // RequestSpansCoverEveryStage) and a uniform system never
    // trips the detector spuriously.
    RunResult clean = runServe(1, true);
    EXPECT_EQ(clean.rep.anomalousWaves, 0u);
}

// ---------------------------------------------------------------------
// Exact percentiles.

TEST(Journal, SummarizeComputesExactNearestRankPercentiles)
{
    obs::Journal j;
    // 100 completed requests with latencies 1ms..100ms, plus one
    // incomplete straggler that must not pollute the percentiles.
    for (uint64_t i = 1; i <= 100; ++i) {
        obs::RequestLatency lat;
        lat.request = i;
        lat.table = "t";
        lat.complete = true;
        lat.arrivalSeconds = 0.0;
        lat.completedSeconds = static_cast<double>(i) * 1e-3;
        j.recordLatency(lat);
    }
    obs::RequestLatency bad;
    bad.request = 101;
    bad.complete = false;
    j.recordLatency(bad);

    obs::LatencySummary s = j.summarize(2.0);
    EXPECT_EQ(s.requests, 100u);
    EXPECT_EQ(s.incomplete, 1u);
    EXPECT_DOUBLE_EQ(s.p50, 0.050);
    EXPECT_DOUBLE_EQ(s.p90, 0.090);
    EXPECT_DOUBLE_EQ(s.p99, 0.099);
    EXPECT_DOUBLE_EQ(s.p999, 0.100);
    EXPECT_DOUBLE_EQ(s.max, 0.100);
    EXPECT_NEAR(s.mean, 0.0505, 1e-12);
    EXPECT_DOUBLE_EQ(s.requestsPerSecond, 50.0);
}

TEST(Journal, JsonlIsCanonicalAndSorted)
{
    RunResult res = runServe(1, true);
    ASSERT_FALSE(res.jsonl.empty());
    // Every line is one JSON object; event lines come time-sorted,
    // then latency lines sorted by request id.
    double lastT = -1.0;
    bool inLatencies = false;
    size_t lines = 0;
    size_t pos = 0;
    while (pos < res.jsonl.size()) {
        size_t eol = res.jsonl.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        const std::string line = res.jsonl.substr(pos, eol - pos);
        pos = eol + 1;
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        if (line.find("\"kind\": \"latency\"") != std::string::npos) {
            inLatencies = true;
            continue;
        }
        EXPECT_FALSE(inLatencies)
            << "event line after latency lines: " << line;
        const size_t tKey = line.find("\"t\": ");
        ASSERT_NE(tKey, std::string::npos);
        const double t = std::strtod(line.c_str() + tKey + 5, nullptr);
        EXPECT_GE(t, lastT);
        lastT = t;
    }
    EXPECT_GT(lines, 10u);
}

// ---------------------------------------------------------------------
// SLO spec grammar + accounting.

TEST(Slo, SpecGrammarParses)
{
    obs::SloSpec s;
    ASSERT_TRUE(obs::SloSpec::parse("p99<2ms", s));
    EXPECT_DOUBLE_EQ(s.percentile, 99.0);
    EXPECT_DOUBLE_EQ(s.targetSeconds, 2e-3);

    ASSERT_TRUE(obs::SloSpec::parse("p50:150us", s));
    EXPECT_DOUBLE_EQ(s.percentile, 50.0);
    EXPECT_DOUBLE_EQ(s.targetSeconds, 150e-6);

    ASSERT_TRUE(obs::SloSpec::parse("p99.9<1s", s));
    EXPECT_DOUBLE_EQ(s.percentile, 99.9);
    EXPECT_DOUBLE_EQ(s.targetSeconds, 1.0);

    ASSERT_TRUE(obs::SloSpec::parse("p90<500ns", s));
    EXPECT_DOUBLE_EQ(s.targetSeconds, 500e-9);

    // Malformed specs are rejected and leave the spec untouched.
    obs::SloSpec keep;
    keep.percentile = 42.0;
    keep.targetSeconds = 0.042;
    for (const char* bad :
         {"", "99<2ms", "p0<1ms", "p100<1ms", "p99<", "p99<5",
          "p99<5m", "p99>5ms", "p99<5msx", "p<5ms", "p99<-5ms"}) {
        EXPECT_FALSE(obs::SloSpec::parse(bad, keep)) << bad;
        EXPECT_DOUBLE_EQ(keep.percentile, 42.0) << bad;
        EXPECT_DOUBLE_EQ(keep.targetSeconds, 0.042) << bad;
    }

    ASSERT_TRUE(obs::SloSpec::parse("p99<2ms", s));
    EXPECT_EQ(s.toText(), "p99<0.002s");
    EXPECT_NEAR(s.allowedBadFraction(), 0.01, 1e-12);
}

TEST(Slo, TrackerAccountsPerTableAndCountsIncompleteAsBad)
{
    obs::SloSpec spec;
    ASSERT_TRUE(obs::SloSpec::parse("p90<15ms", spec));
    obs::SloTracker tracker(spec);

    // Table A: exactly at the error budget (1 of 10 over target).
    for (int i = 0; i < 9; ++i)
        tracker.observe("a", 0.010, true);
    tracker.observe("a", 0.020, true);
    // Table B: within latency but one answer never arrived.
    tracker.observe("b", 0.001, true);
    tracker.observe("b", 0.0, false); // incomplete => bad

    std::vector<obs::SloResult> results = tracker.results();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].table, "a");
    EXPECT_EQ(results[0].good, 9u);
    EXPECT_EQ(results[0].bad, 1u);
    EXPECT_NEAR(results[0].badFraction, 0.1, 1e-12);
    EXPECT_NEAR(results[0].burnRate, 1.0, 1e-9);
    EXPECT_TRUE(results[0].met);

    EXPECT_EQ(results[1].table, "b");
    EXPECT_EQ(results[1].good, 1u);
    EXPECT_EQ(results[1].bad, 1u);
    EXPECT_FALSE(results[1].met); // burn rate 5 >> 1

    obs::SloResult total = tracker.total();
    EXPECT_EQ(total.table, "*");
    EXPECT_EQ(total.good, 10u);
    EXPECT_EQ(total.bad, 2u);
    EXPECT_NEAR(total.badFraction, 2.0 / 12.0, 1e-12);
}
