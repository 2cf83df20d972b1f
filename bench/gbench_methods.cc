/**
 * @file
 * google-benchmark microbenchmarks: host-side wall-clock throughput of
 * every method's evaluation routine (no cost model, no simulation),
 * the streaming kernel's chunk body per method through scalar eval()
 * and through evalBatch() (BM_Eval / BM_EvalBatch pairs), plus the
 * serve front-end's BatchQueue push/pop at several depths, its
 * table build/placement step (EvaluatorCatalog::provider()), the
 * request journal's record calls, and a whole ServePipeline run of
 * many small requests.
 *
 * These numbers measure the *simulator's* own speed, not the modeled
 * PIM system - useful for tracking regressions in the numeric kernels
 * and for sizing how many simulated elements a bench run can afford.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pimsim/obs/journal.h"
#include "pimsim/serve/batch_queue.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/system.h"
#include "pimsim/topology.h"
#include "transpim/evaluator.h"
#include "transpim/reference.h"
#include "transpim/serve_glue.h"

namespace {

using namespace tpl::transpim;

void
runMethod(benchmark::State& state, Function f, Method m)
{
    MethodSpec spec;
    spec.method = m;
    spec.interpolated = true;
    spec.placement = Placement::Host;
    spec.log2Entries = 12;
    spec.iterations = 24;
    auto eval = FunctionEvaluator::create(f, spec);
    float x = 0.37f;
    for (auto _ : state) {
        float y = eval.eval(x, nullptr);
        benchmark::DoNotOptimize(y);
        x += 0.001f;
        if (x > 6.0f)
            x = 0.1f;
    }
}

void BM_Sin_Cordic(benchmark::State& s)
{
    runMethod(s, Function::Sin, Method::Cordic);
}
void BM_Sin_CordicLut(benchmark::State& s)
{
    runMethod(s, Function::Sin, Method::CordicLut);
}
void BM_Sin_MLut(benchmark::State& s)
{
    runMethod(s, Function::Sin, Method::MLut);
}
void BM_Sin_LLut(benchmark::State& s)
{
    runMethod(s, Function::Sin, Method::LLut);
}
void BM_Sin_LLutFixed(benchmark::State& s)
{
    runMethod(s, Function::Sin, Method::LLutFixed);
}
void BM_Sin_Poly(benchmark::State& s)
{
    runMethod(s, Function::Sin, Method::Poly);
}
void BM_Tanh_DLut(benchmark::State& s)
{
    runMethod(s, Function::Tanh, Method::DLut);
}
void BM_Tanh_DlLut(benchmark::State& s)
{
    runMethod(s, Function::Tanh, Method::DlLut);
}
void BM_Exp_LLut(benchmark::State& s)
{
    runMethod(s, Function::Exp, Method::LLut);
}
void BM_Gelu_DlLut(benchmark::State& s)
{
    runMethod(s, Function::Gelu, Method::DlLut);
}

/**
 * One chunk of the streaming kernel (makeStreamingKernel) on a
 * one-tasklet launch of a core holding the method's tables: 256
 * inputs, evaluated one eval() call per element (@p batch false) or
 * in one evalBatch() call (@p batch true). Both charge the tasklet
 * the same instructions, so the pair's ratio is the batch path's
 * simulator speedup. Items are elements.
 */
void
runChunk(benchmark::State& state, Function f, Method m, bool batch)
{
    constexpr uint32_t kChunk = 256;
    MethodSpec spec;
    spec.method = m;
    spec.interpolated = true;
    spec.log2Entries = 12;
    spec.iterations = 24;
    FunctionEvaluator eval = FunctionEvaluator::create(f, spec);
    tpl::sim::DpuCore core;
    eval.attach(core);
    Domain dom = functionDomain(f);
    std::vector<float> inputs =
        tpl::uniformFloats(kChunk, static_cast<float>(dom.lo),
                           static_cast<float>(dom.hi), 7);
    float buffer[kChunk];
    tpl::sim::Kernel kernel = [&](tpl::sim::TaskletContext& ctx) {
        std::copy(inputs.begin(), inputs.end(), buffer);
        if (batch) {
            ctx.chargeClassN(tpl::InstrClass::IntAlu, 4, kChunk);
            std::span<float> span(buffer, kChunk);
            eval.evalBatch(span, span, &ctx);
        } else {
            for (uint32_t i = 0; i < kChunk; ++i) {
                ctx.charge(4);
                buffer[i] = eval.eval(buffer[i], &ctx);
            }
        }
    };
    for (auto _ : state) {
        core.launch(1, kernel);
        benchmark::DoNotOptimize(buffer);
    }
    state.SetItemsProcessed(state.iterations() * kChunk);
}

void
BM_Eval(benchmark::State& s, Function f, Method m)
{
    runChunk(s, f, m, false);
}

void
BM_EvalBatch(benchmark::State& s, Function f, Method m)
{
    runChunk(s, f, m, true);
}

/**
 * BatchQueue at a steady depth of state.range(0) requests: each
 * iteration pops one wave of at most state.range(1) elements and
 * pushes back as many requests as it closed. Requests of 8-24
 * elements are spread at random over 8 keys x 4 tenants, so every
 * lane interleaves with the others. A 64-element budget takes a few
 * requests from the oldest lane; a 2^20 budget takes the whole lane,
 * as a fleet-sized wave does. Items are requests closed; per-item
 * time should stay flat as the depth grows.
 */
void
BM_BatchQueue_PushPop(benchmark::State& state)
{
    namespace serve = tpl::sim::serve;
    std::vector<serve::TableKey> keys(8);
    for (uint64_t k = 0; k < keys.size(); ++k) {
        keys[k].hash = k + 1;
        keys[k].label = "k" + std::to_string(k);
    }
    tpl::SplitMix64 rng(42);
    float buf[32] = {};
    serve::BatchQueue queue;
    auto pushOne = [&] {
        const uint64_t pick = rng.next();
        serve::Request r;
        r.table = keys[pick % keys.size()];
        r.tenant = (pick >> 8) % 4;
        r.input = buf;
        r.output = buf;
        r.elements = 8 + (pick >> 16) % 17;
        queue.push(std::move(r));
    };
    for (int64_t i = 0; i < state.range(0); ++i)
        pushOne();
    int64_t closed = 0;
    for (auto _ : state) {
        std::optional<serve::Wave> wave = queue.popWave(
            static_cast<uint64_t>(state.range(1)));
        for (uint32_t i = 0; i < wave->requestsClosed; ++i)
            pushOne();
        closed += wave->requestsClosed;
        benchmark::DoNotOptimize(wave);
    }
    state.SetItemsProcessed(closed);
}

/**
 * EvaluatorCatalog::provider() realizing one configuration on a
 * system of state.range(0) DPUs: the table generation plus a copy
 * placed on every core, i.e. the serve layer's table-build/broadcast
 * step on a cache miss. state.range(1) picks the configuration:
 * 0 = interpolated sin L-LUT in WRAM, 1 = interpolated tanh M-LUT in
 * MRAM, both 2^12 entries. The system is built once; its allocators
 * are reset between iterations outside the timed region.
 */
void
BM_TableProvider(benchmark::State& state)
{
    namespace serve = tpl::sim::serve;
    const bool mram = state.range(1) != 0;
    MethodSpec spec;
    spec.method = mram ? Method::MLut : Method::LLut;
    spec.placement = mram ? Placement::Mram : Placement::Wram;
    spec.interpolated = true;
    spec.log2Entries = 12;
    EvaluatorCatalog catalog;
    serve::TableKey key =
        catalog.add(mram ? Function::Tanh : Function::Sin, spec);
    serve::TableProvider provider = catalog.provider();
    tpl::sim::PimSystem sys(static_cast<uint32_t>(state.range(0)));
    for (auto _ : state) {
        serve::TableBinding binding = provider(key, sys);
        if (!binding.valid) {
            state.SkipWithError("configuration is infeasible");
            break;
        }
        benchmark::DoNotOptimize(binding.tableBytes);
        state.PauseTiming();
        binding = {};
        for (uint32_t d = 0; d < sys.numDpus(); ++d)
            sys.dpu(d).resetAllocators();
        state.ResumeTiming();
    }
}

/**
 * One Journal::record per iteration, as a serve run stamps a request
 * event. state.range(0): events off (0) or on (1); state.range(1):
 * the event's kind and ~40-character table label arrive as interned
 * ids (0, what the pipeline records) or as a JournalEvent's strings
 * (1). With events on, the journal is cleared every 2^20 records
 * outside the timed region, so memory stays bounded.
 */
void
BM_Journal_Record(benchmark::State& state)
{
    tpl::obs::Journal journal;
    journal.setEventsEnabled(state.range(0) != 0);
    const bool text = state.range(1) != 0;
    const std::string label = "sin/l_lut/interp/wram/e12/serve-key-01";
    tpl::obs::JournalEvent textEv;
    textEv.kind = "compute";
    textEv.table = label;
    tpl::obs::InternedEvent ev;
    ev.kind = journal.intern(textEv.kind);
    ev.table = journal.intern(label);
    uint64_t n = 0;
    for (auto _ : state) {
        if (text) {
            textEv.request = ++n;
            journal.record(textEv);
        } else {
            ev.request = ++n;
            journal.record(ev);
        }
        if ((n & ((1u << 20) - 1)) == 0) {
            state.PauseTiming();
            journal.clear();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

/** One Journal::recordLatency per iteration, the table label as an
 * interned id (state.range(0) = 0) or as a RequestLatency's string
 * (1); cleared every 2^20 records outside the timed region. */
void
BM_Journal_RecordLatency(benchmark::State& state)
{
    tpl::obs::Journal journal;
    const bool text = state.range(0) != 0;
    tpl::obs::RequestLatency textLat;
    textLat.table = "sin/l_lut/interp/wram/e12/serve-key-01";
    textLat.complete = true;
    tpl::obs::InternedLatency lat;
    lat.table = journal.intern(textLat.table);
    lat.complete = true;
    uint64_t n = 0;
    for (auto _ : state) {
        if (text) {
            textLat.request = ++n;
            journal.recordLatency(textLat);
        } else {
            lat.request = ++n;
            journal.recordLatency(lat);
        }
        if ((n & ((1u << 20) - 1)) == 0) {
            state.PauseTiming();
            journal.clear();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * A ServePipeline run of 20,000 requests of 8-24 elements (one sin
 * L-LUT configuration) on a 1x1x64 system with an events-off
 * journal attached, as perfbench and pimserve run by default: push
 * plus run(), the per-request serve path. The pipeline and its table
 * are built once, outside the timed region; items are requests.
 */
void
BM_ServePipeline_SmallRequests(benchmark::State& state)
{
    namespace serve = tpl::sim::serve;
    constexpr uint32_t kRequests = 20000;
    const tpl::sim::Topology topo{1, 1, 64};
    tpl::sim::PimSystem sys(topo.numDpus());
    sys.setSimThreads(1);
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.interpolated = true;
    EvaluatorCatalog catalog;
    serve::TableKey key = catalog.add(Function::Sin, spec);
    tpl::obs::Journal journal;
    journal.setEventsEnabled(false);
    serve::PipelineOptions popts;
    popts.topology = &topo;
    popts.journal = &journal;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);

    tpl::SplitMix64 rng(7);
    std::vector<uint64_t> sizes(kRequests);
    uint64_t total = 0;
    for (uint64_t& n : sizes) {
        n = 8 + rng.next() % 17;
        total += n;
    }
    std::vector<float> in(total), out(total);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = 6.0f * static_cast<float>(i % 1024) / 1024.0f;
    auto serveAll = [&] {
        serve::BatchQueue queue;
        queue.setJournal(&journal);
        uint64_t off = 0;
        for (uint64_t n : sizes) {
            serve::Request r;
            r.table = key;
            r.input = in.data() + off;
            r.output = out.data() + off;
            r.elements = n;
            queue.push(std::move(r));
            off += n;
        }
        queue.close();
        return pipeline.run(queue);
    };
    serveAll(); // builds the table
    for (auto _ : state) {
        serve::ServeReport rep = serveAll();
        if (!rep.complete) {
            state.SkipWithError("run incomplete");
            break;
        }
        state.PauseTiming();
        journal.clear();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * kRequests);
}

BENCHMARK(BM_Sin_Cordic);
BENCHMARK(BM_Sin_CordicLut);
BENCHMARK(BM_Sin_MLut);
BENCHMARK(BM_Sin_LLut);
BENCHMARK(BM_Sin_LLutFixed);
BENCHMARK(BM_Sin_Poly);
BENCHMARK(BM_Tanh_DLut);
BENCHMARK(BM_Tanh_DlLut);
BENCHMARK(BM_Exp_LLut);
BENCHMARK(BM_Gelu_DlLut);
#define TPL_EVAL_PAIR(name, f, m)                                     \
    BENCHMARK_CAPTURE(BM_Eval, name, Function::f, Method::m);         \
    BENCHMARK_CAPTURE(BM_EvalBatch, name, Function::f, Method::m)
TPL_EVAL_PAIR(CORDIC, Sin, Cordic);
TPL_EVAL_PAIR(CORDIC_fixed, Sin, CordicFixed);
TPL_EVAL_PAIR(CORDIC_LUT, Sin, CordicLut);
TPL_EVAL_PAIR(M_LUT, Sin, MLut);
TPL_EVAL_PAIR(L_LUT, Sin, LLut);
TPL_EVAL_PAIR(L_LUT_fixed, Sin, LLutFixed);
TPL_EVAL_PAIR(D_LUT, Tanh, DLut);
TPL_EVAL_PAIR(DL_LUT, Tanh, DlLut);
TPL_EVAL_PAIR(Poly, Sin, Poly);
BENCHMARK(BM_BatchQueue_PushPop)
    ->ArgNames({"depth", "budget"})
    ->ArgsProduct({{1000, 10000, 100000}, {64, 1 << 20}});
BENCHMARK(BM_TableProvider)
    ->ArgNames({"dpus", "mram"})
    ->ArgsProduct({{64, 20 * 2 * 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Journal_Record)
    ->ArgNames({"events", "text"})
    ->ArgsProduct({{0, 1}, {0, 1}});
BENCHMARK(BM_Journal_RecordLatency)->ArgName("text")->Arg(0)->Arg(1);
BENCHMARK(BM_ServePipeline_SmallRequests)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
