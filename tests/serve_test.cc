/**
 * @file
 * pimserve tests: batch coalescing boundaries, overlap accounting
 * identities of the double-buffered pipeline, LUT-cache behavior,
 * determinism across simulation thread counts, and fault-armed
 * degradation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "pimsim/serve/pipeline.h"
#include "pimsim/topology.h"
#include "transpim/harness.h"
#include "transpim/serve_glue.h"

using namespace tpl;
using namespace tpl::sim;
using namespace tpl::transpim;

namespace {

serve::TableKey
keyOf(uint64_t hash)
{
    serve::TableKey k;
    k.hash = hash;
    k.label = "k" + std::to_string(hash);
    return k;
}

serve::Request
makeRequest(const serve::TableKey& key, const float* in, float* out,
            uint64_t elements)
{
    serve::Request r;
    r.table = key;
    r.input = in;
    r.output = out;
    r.elements = elements;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// BatchQueue coalescing boundaries.

TEST(BatchQueue, ClosedEmptyQueueYieldsNoWave)
{
    serve::BatchQueue q;
    q.close();
    EXPECT_FALSE(q.popWave(1024).has_value());
    // push after close is rejected.
    float x = 0, y = 0;
    EXPECT_EQ(q.push(makeRequest(keyOf(1), &x, &y, 1)), 0u);
    EXPECT_EQ(q.totalPushed(), 0u);
}

TEST(BatchQueue, SingleRequestBecomesOneWave)
{
    serve::BatchQueue q;
    std::vector<float> in(100), out(100);
    uint64_t id =
        q.push(makeRequest(keyOf(7), in.data(), out.data(), 100));
    EXPECT_NE(id, 0u);
    q.close();

    auto w = q.popWave(256);
    ASSERT_TRUE(w.has_value());
    ASSERT_EQ(w->items.size(), 1u);
    EXPECT_EQ(w->items[0].requestId, id);
    EXPECT_EQ(w->items[0].elements, 100u);
    EXPECT_EQ(w->requestsClosed, 1u);
    EXPECT_FALSE(q.popWave(256).has_value());
}

TEST(BatchQueue, OversizedRequestIsConsumedIncrementally)
{
    serve::BatchQueue q;
    std::vector<float> in(1000), out(1000);
    q.push(makeRequest(keyOf(7), in.data(), out.data(), 1000));
    q.close();

    uint64_t seen = 0;
    int waves = 0;
    while (auto w = q.popWave(256)) {
        ASSERT_EQ(w->items.size(), 1u);
        // Spans advance in place over the original buffers.
        EXPECT_EQ(w->items[0].input, in.data() + seen);
        EXPECT_EQ(w->items[0].output, out.data() + seen);
        seen += w->items[0].elements;
        ++waves;
    }
    EXPECT_EQ(seen, 1000u);
    EXPECT_EQ(waves, 4); // 256 + 256 + 256 + 232
}

TEST(BatchQueue, CoalescesOnlyMatchingTables)
{
    serve::BatchQueue q;
    std::vector<float> buf(400);
    q.push(makeRequest(keyOf(1), buf.data(), buf.data(), 100));
    q.push(makeRequest(keyOf(2), buf.data(), buf.data(), 50));
    q.push(makeRequest(keyOf(1), buf.data(), buf.data(), 60));
    q.close();

    auto w1 = q.popWave(256);
    ASSERT_TRUE(w1.has_value());
    EXPECT_EQ(w1->table.hash, 1u);
    ASSERT_EQ(w1->items.size(), 2u); // both key-1 requests coalesce
    EXPECT_EQ(w1->elements(), 160u);

    auto w2 = q.popWave(256);
    ASSERT_TRUE(w2.has_value());
    EXPECT_EQ(w2->table.hash, 2u);
    EXPECT_EQ(w2->elements(), 50u);
    EXPECT_FALSE(q.popWave(256).has_value());
}

TEST(BatchQueue, ZeroBudgetStillMakesProgress)
{
    serve::BatchQueue q;
    std::vector<float> buf(8);
    q.push(makeRequest(keyOf(1), buf.data(), buf.data(), 8));
    q.close();
    auto w = q.popWave(0); // treated as budget 1
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->elements(), 1u);
}

TEST(BatchQueue, ConcurrentProducersLoseNothing)
{
    serve::BatchQueue q;
    constexpr int kProducers = 8;
    constexpr int kPerProducer = 50;
    std::vector<float> buf(64);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&] {
            for (int i = 0; i < kPerProducer; ++i)
                q.push(makeRequest(keyOf(3), buf.data(), buf.data(),
                                   4));
        });
    for (auto& t : producers)
        t.join();
    q.close();

    EXPECT_EQ(q.totalPushed(),
              static_cast<uint64_t>(kProducers) * kPerProducer);
    uint64_t elements = 0;
    uint64_t waves = 0;
    while (auto w = q.popWave(64)) {
        elements += w->elements();
        ++waves;
    }
    EXPECT_EQ(elements, 4u * kProducers * kPerProducer);
    EXPECT_GE(waves, elements / 64);
}

namespace {

/**
 * Reference oracle: the single-deque FIFO sweep the queue used before
 * its per-(table, tenant) lanes. Each wave adopts the front request's
 * key and tenant and sweeps the whole deque, erasing matches from the
 * middle. Kept here so the lane layout is held to the same waves.
 */
class SweepOracle
{
  public:
    void
    push(serve::Request request)
    {
        request.id = nextId_++;
        queue_.push_back(std::move(request));
    }

    std::optional<serve::Wave>
    popWave(uint64_t maxElements)
    {
        if (queue_.empty())
            return std::nullopt;
        const uint64_t budget = std::max<uint64_t>(maxElements, 1);
        serve::Wave wave;
        wave.table = queue_.front().table;
        wave.tenant = queue_.front().tenant;
        uint64_t taken = 0;
        bool partial = false;
        for (auto it = queue_.begin(); it != queue_.end();) {
            if (!(it->table == wave.table) || it->tenant != wave.tenant) {
                ++it;
                continue;
            }
            if (it->elements == 0) {
                ++wave.requestsClosed;
                zerosClosedBehindPartial += partial ? 1 : 0;
                it = queue_.erase(it);
                continue;
            }
            if (taken == budget)
                break;
            uint64_t take = std::min(it->elements, budget - taken);
            const bool wholeTail = take == it->elements;
            wave.items.push_back({it->id, it->input, it->output, take,
                                  it->arrivalSeconds, wholeTail});
            taken += take;
            if (wholeTail) {
                ++wave.requestsClosed;
                it = queue_.erase(it);
            } else {
                it->input += take;
                it->output += take;
                it->elements -= take;
                partial = true;
                ++it;
            }
        }
        return wave;
    }

    size_t depth() const { return queue_.size(); }

    uint64_t
    queuedElements() const
    {
        uint64_t n = 0;
        for (const serve::Request& r : queue_)
            n += r.elements;
        return n;
    }

    /** Zero-element requests closed after a partial take in the same
     * wave: the case a lane must handle behind its partial head. */
    uint64_t zerosClosedBehindPartial = 0;

  private:
    std::deque<serve::Request> queue_;
    uint64_t nextId_ = 1;
};

::testing::AssertionResult
sameWave(const std::optional<serve::Wave>& want,
         const std::optional<serve::Wave>& got)
{
    if (want.has_value() != got.has_value())
        return ::testing::AssertionFailure()
               << "oracle wave " << want.has_value() << ", queue wave "
               << got.has_value();
    if (!want)
        return ::testing::AssertionSuccess();
    if (want->table.hash != got->table.hash ||
        want->table.label != got->table.label ||
        want->tenant != got->tenant)
        return ::testing::AssertionFailure()
               << "wave key " << want->table.label << "/" << want->tenant
               << " vs " << got->table.label << "/" << got->tenant;
    if (want->requestsClosed != got->requestsClosed)
        return ::testing::AssertionFailure()
               << "requestsClosed " << want->requestsClosed << " vs "
               << got->requestsClosed;
    if (want->items.size() != got->items.size())
        return ::testing::AssertionFailure()
               << "items " << want->items.size() << " vs "
               << got->items.size();
    for (size_t i = 0; i < want->items.size(); ++i) {
        const serve::WaveItem& a = want->items[i];
        const serve::WaveItem& b = got->items[i];
        if (a.requestId != b.requestId || a.input != b.input ||
            a.output != b.output || a.elements != b.elements ||
            a.arrivalSeconds != b.arrivalSeconds || a.last != b.last)
            return ::testing::AssertionFailure()
                   << "item " << i << ": request " << a.requestId
                   << " vs " << b.requestId << ", elements "
                   << a.elements << " vs " << b.elements << ", last "
                   << a.last << " vs " << b.last;
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(BatchQueue, LanesMatchTheFifoSweepWaveForWave)
{
    constexpr uint64_t kKeys = 8;
    constexpr uint64_t kTenants = 4;
    constexpr uint64_t kRequests = 12000;
    const uint64_t budgets[] = {0, 1, 7, 64, 4096};

    SplitMix64 rng(0x5eed14);
    std::vector<float> in(16384), out(16384);
    serve::BatchQueue queue;
    SweepOracle oracle;
    uint64_t pushed = 0;
    uint64_t pops = 0;
    uint64_t partialWaves = 0;

    auto pushOne = [&](uint64_t key, uint64_t tenant,
                       uint64_t elements) {
        serve::Request r = makeRequest(
            keyOf(key), in.data() + rng.next() % 4096,
            out.data() + rng.next() % 4096, elements);
        r.tenant = tenant;
        r.arrivalSeconds = rng.nextUnitDouble();
        oracle.push(r);
        ASSERT_EQ(queue.push(std::move(r)), pushed + 1);
        ++pushed;
    };
    auto popBoth = [&] {
        const uint64_t budget = budgets[rng.next() % 5];
        std::optional<serve::Wave> want = oracle.popWave(budget);
        std::optional<serve::Wave> got = queue.popWave(budget);
        ASSERT_TRUE(sameWave(want, got))
            << "pop " << pops << " with budget " << budget;
        if (want && !want->items.empty() && !want->items.back().last)
            ++partialWaves;
        ASSERT_EQ(queue.depth(), oracle.depth()) << "pop " << pops;
        ASSERT_EQ(queue.queuedElements(), oracle.queuedElements())
            << "pop " << pops;
        ++pops;
    };

    while (pushed < kRequests) {
        const uint64_t burst = 1 + rng.next() % 16;
        for (uint64_t i = 0; i < burst; ++i) {
            const uint64_t key = 1 + rng.next() % kKeys;
            const uint64_t tenant = rng.next() % kTenants;
            const uint64_t kind = rng.next() % 20;
            uint64_t elements = 1 + rng.next() % 24;
            if (kind < 3)
                elements = 0;
            else if (kind == 3)
                elements = 4097 + rng.next() % 4096; // over any budget
            pushOne(key, tenant, elements);
            if (kind == 4) {
                // An oversized request with zero-element requests of
                // its own lane right behind it.
                pushOne(key, tenant, 5000);
                pushOne(key, tenant, 0);
                pushOne(key, tenant, 0);
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
        const size_t keep = rng.next() % 512;
        while (oracle.depth() > keep) {
            popBoth();
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    queue.close();
    while (oracle.depth() > 0) {
        popBoth();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_FALSE(queue.popWave(64).has_value());
    EXPECT_EQ(queue.totalPushed(), pushed);
    EXPECT_GT(partialWaves, 0u);
    EXPECT_GT(oracle.zerosClosedBehindPartial, 0u);
}

// ---------------------------------------------------------------------
// Pipeline accounting identities.

TEST(ServePipeline, PipelinedNeverSlowerThanSyncAndSyncMatchesSum)
{
    BatchedOptions opts;
    opts.dpus = 8;
    opts.tasklets = 8;
    opts.perDpuElements = 256;
    opts.requests = 4;
    opts.elementsPerRequest = 2048; // 4 waves of 2048
    MethodSpec spec; // interpolated L-LUT, WRAM
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);

    ASSERT_TRUE(res.feasible);
    EXPECT_TRUE(res.pipelined.complete);
    EXPECT_TRUE(res.sync.complete);
    EXPECT_TRUE(res.outputsMatch);
    EXPECT_GE(res.pipelined.waves, 4u);

    // Overlap can only help: pipelined makespan <= synchronous.
    EXPECT_LE(res.pipelined.modeledSeconds,
              res.sync.modeledSeconds * (1.0 + 1e-12));

    // In sync mode the legs chain back to back, so the makespan is
    // the sum of the leg durations.
    EXPECT_NEAR(res.sync.modeledSeconds, res.sync.syncSeconds,
                res.sync.syncSeconds * 1e-9);

    // Leg durations are schedule-independent, so both runs project
    // the same synchronous time.
    EXPECT_NEAR(res.pipelined.syncSeconds, res.sync.syncSeconds,
                res.sync.syncSeconds * 1e-9);

    // The report's internal overlap estimate agrees with the
    // two-system measurement.
    EXPECT_NEAR(res.pipelined.speedup(), res.speedup(),
                res.speedup() * 1e-9);
}

TEST(ServePipeline, CyclePartitionStaysExactOnPipelinedPath)
{
    // Drive a pipeline directly and check the obs invariant on every
    // core's LaunchStats afterwards: per-class instruction sums equal
    // the instruction total, and adding stalls gives the cycles.
    sim::PimSystem sys(4);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    const uint32_t elements = 4096;
    std::vector<float> in(elements), out(elements, 0.0f);
    for (uint32_t i = 0; i < elements; ++i)
        in[i] = 6.28f * static_cast<float>(i) / elements;

    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), elements));
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = 256; // 4096 / (4*256) = 4 waves
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);
    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.waves, 4u);

    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        const LaunchStats& st = sys.dpu(d).lastLaunch();
        ASSERT_GT(st.cycles, 0u);
        uint64_t classSum = 0;
        for (uint64_t c : st.classInstructions)
            classSum += c;
        EXPECT_EQ(classSum, st.totalInstructions);
        EXPECT_EQ(classSum + st.stallCycles, st.cycles);
    }
}

TEST(ServePipeline, UnknownTableIsDroppedNotServed)
{
    sim::PimSystem sys(2);
    EvaluatorCatalog catalog; // empty: nothing registered
    std::vector<float> in(64), out(64, -1.0f);
    serve::BatchQueue queue;
    queue.push(makeRequest(keyOf(999), in.data(), out.data(), 64));
    queue.close();

    serve::ServePipeline pipeline(sys, catalog.provider());
    serve::ServeReport rep = pipeline.run(queue);
    EXPECT_FALSE(rep.complete);
    EXPECT_EQ(rep.infeasibleElements, 64u);
    EXPECT_EQ(rep.waves, 0u);
    for (float v : out)
        EXPECT_EQ(v, -1.0f); // outputs untouched
}

TEST(ServePipeline, InfeasibleKeyLeavesLaterKeysServedOnEveryDpu)
{
    // tan's L-LUT holds a sin and a cos table in WRAM. At 2^14
    // entries sin's table fits in the 64 KiB scratchpad and cos's
    // then does not. The half-placed key must be rolled back, so the
    // next WRAM table lands at one offset on every core and is served
    // everywhere.
    sim::PimSystem sys(4);
    EvaluatorCatalog catalog;
    MethodSpec big;
    big.method = Method::LLut;
    big.placement = Placement::Wram;
    big.log2Entries = 14;
    MethodSpec small = big;
    small.log2Entries = 10;
    const uint32_t freeWram = CostModel{}.wramBytes;
    const uint32_t tanBytes =
        FunctionEvaluator::create(Function::Tan, big).memoryBytes();
    ASSERT_GT(tanBytes, freeWram);
    ASSERT_LE(tanBytes / 2, freeWram);
    serve::TableKey tanKey = catalog.add(Function::Tan, big);
    serve::TableKey sinKey = catalog.add(Function::Sin, small);

    const uint32_t elements = 1024;
    std::vector<float> in = uniformFloats(elements, -3.0f, 3.0f, 11);
    std::vector<float> tanOut(elements, -1.0f), sinOut(elements);
    serve::BatchQueue queue;
    queue.push(makeRequest(tanKey, in.data(), tanOut.data(), elements));
    queue.push(makeRequest(sinKey, in.data(), sinOut.data(), elements));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 256; // the sin request spans all 4 DPUs
    popts.numTasklets = 4;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep;
    ASSERT_NO_THROW(rep = pipeline.run(queue));
    EXPECT_EQ(rep.infeasibleElements, uint64_t{elements});
    for (float v : tanOut)
        EXPECT_EQ(v, -1.0f); // dropped, outputs untouched

    FunctionEvaluator ref = FunctionEvaluator::create(Function::Sin, small);
    std::vector<float> want(elements);
    ref.evalBatch(in, want);
    EXPECT_EQ(std::memcmp(sinOut.data(), want.data(),
                          elements * sizeof(float)),
              0);
    for (uint32_t d = 0; d < sys.numDpus(); ++d)
        EXPECT_EQ(sys.dpu(d).wramAllocated(),
                  sys.dpu(0).wramAllocated())
            << "DPU " << d;
}

TEST(EvaluatorCatalog, InfeasibleKeyReleasesEveryCore)
{
    // Core 1 has less WRAM free than core 0, so the table fits on
    // core 0 and not on core 1: the binding is invalid and core 0's
    // copy is released again.
    sim::PimSystem sys(2);
    sys.dpu(1).wramAlloc(32 * 1024);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    spec.method = Method::LLut;
    spec.placement = Placement::Wram;
    spec.log2Entries = 14;
    const uint32_t bytes =
        FunctionEvaluator::create(Function::Sin, spec).memoryBytes();
    ASSERT_GT(bytes, 32u * 1024u);
    ASSERT_LE(bytes, CostModel{}.wramBytes);
    serve::TableKey key = catalog.add(Function::Sin, spec);

    serve::TableBinding b = catalog.provider()(key, sys);
    EXPECT_FALSE(b.valid);
    EXPECT_EQ(sys.dpu(0).wramAllocated(), 0u);
    EXPECT_EQ(sys.dpu(1).wramAllocated(), 32u * 1024u);
}

// ---------------------------------------------------------------------
// LUT cache.

TEST(ServePipeline, RepeatedConfigurationHitsTableCache)
{
    sim::PimSystem sys(4);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    const uint32_t elements = 2048; // 2 waves at 4 * 256
    std::vector<float> in(elements, 1.0f), out(elements);
    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), elements));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 256;
    popts.numTasklets = 8;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);

    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.waves, 2u);
    EXPECT_EQ(rep.cacheMisses, 1u); // first wave generates + broadcasts
    EXPECT_EQ(rep.cacheHits, 1u);   // second wave reuses the tables
    // Only the miss pays a broadcast.
    ASSERT_EQ(rep.waveStats.size(), 2u);
    EXPECT_TRUE(rep.waveStats[0].tableMiss);
    EXPECT_GT(rep.waveStats[0].broadcastSeconds, 0.0);
    EXPECT_FALSE(rep.waveStats[1].tableMiss);
    EXPECT_EQ(rep.waveStats[1].broadcastSeconds, 0.0);
}

TEST(ServePipeline, DistinctConfigurationsMissSeparately)
{
    sim::PimSystem sys(2);
    EvaluatorCatalog catalog;
    MethodSpec llut;
    MethodSpec mlut;
    mlut.method = Method::MLut;
    serve::TableKey k1 = catalog.add(Function::Sin, llut);
    serve::TableKey k2 = catalog.add(Function::Sin, mlut);
    ASSERT_NE(k1.hash, k2.hash);

    std::vector<float> in(256, 0.5f), out(256);
    serve::BatchQueue queue;
    queue.push(makeRequest(k1, in.data(), out.data(), 64));
    queue.push(makeRequest(k2, in.data(), out.data() + 64, 64));
    queue.push(makeRequest(k1, in.data(), out.data() + 128, 64));
    queue.push(makeRequest(k2, in.data(), out.data() + 192, 64));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 64; // one wave per key visit
    popts.numTasklets = 4;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);

    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.cacheMisses, 2u);
    EXPECT_EQ(rep.cacheHits + rep.cacheMisses, rep.waves);
}

// ---------------------------------------------------------------------
// Determinism across simulation thread counts.

TEST(ServePipeline, BitIdenticalAcrossSimThreadCounts)
{
    BatchedOptions base;
    base.dpus = 8;
    base.tasklets = 8;
    base.perDpuElements = 128;
    base.requests = 3;
    base.elementsPerRequest = 1024;
    MethodSpec spec;

    BatchedResult ref;
    bool first = true;
    for (uint32_t threads : {1u, 4u, 16u}) {
        BatchedOptions opts = base;
        opts.simThreads = threads;
        BatchedResult res =
            runBatchedThroughput(Function::Sin, spec, opts);
        ASSERT_TRUE(res.pipelined.complete);
        ASSERT_TRUE(res.outputsMatch);
        if (first) {
            ref = res;
            first = false;
            continue;
        }
        // Modeled quantities are bit-identical, not just close.
        EXPECT_EQ(res.pipelined.computeCycles,
                  ref.pipelined.computeCycles);
        EXPECT_EQ(res.pipelined.modeledSeconds,
                  ref.pipelined.modeledSeconds);
        EXPECT_EQ(res.pipelined.syncSeconds,
                  ref.pipelined.syncSeconds);
        EXPECT_EQ(res.sync.modeledSeconds, ref.sync.modeledSeconds);
    }
}

// ---------------------------------------------------------------------
// Fault-armed pipeline: degrade, never deadlock.

TEST(ServePipeline, MaskedDpuMidPipelineReshardsItsWave)
{
    auto plan = fault::FaultPlan::parse(
        "seed 99\nfault kind=dpu-hard-fail dpu=2 prob=1\n");
    ASSERT_TRUE(plan.has_value());

    BatchedOptions opts;
    opts.dpus = 8;
    opts.tasklets = 8;
    opts.perDpuElements = 128;
    opts.requests = 3;
    opts.elementsPerRequest = 1024;
    opts.plan = plan;
    MethodSpec spec;
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);

    // DPU 2 hard-fails its first launch; its slices re-shard onto
    // the seven survivors and the run still completes.
    ASSERT_TRUE(res.pipelined.complete);
    ASSERT_EQ(res.pipelined.failedDpus.size(), 1u);
    EXPECT_EQ(res.pipelined.failedDpus[0], 2u);
    EXPECT_GT(res.pipelined.reshardedElements, 0u);
    EXPECT_EQ(res.pipelined.droppedElements, 0u);

    // Degraded, but correct: every element carries a real result.
    // (Outputs of the two schedules are compared against the
    // reference independently; the schedules may fail different
    // waves, so byte-identity across modes is not required here.)
    EXPECT_TRUE(res.sync.complete);
}

TEST(ServePipeline, AllCoresDeadReportsIncompleteInsteadOfHanging)
{
    auto plan = fault::FaultPlan::parse(
        "seed 7\nfault kind=dpu-hard-fail prob=1\n"); // every DPU
    ASSERT_TRUE(plan.has_value());

    sim::PimSystem sys(2);
    sys.armFaults(*plan);
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey key = catalog.add(Function::Sin, spec);

    std::vector<float> in(512, 0.25f), out(512);
    serve::BatchQueue queue;
    queue.push(makeRequest(key, in.data(), out.data(), 512));
    queue.close();

    serve::PipelineOptions popts;
    popts.perDpuElements = 128;
    popts.numTasklets = 4;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue); // must return
    EXPECT_FALSE(rep.complete);
    EXPECT_GT(rep.droppedElements, 0u);
    EXPECT_EQ(sys.healthyDpus(), 0u);
}

TEST(ServePipeline, DpuFailureInFinalWaveIsReshardedAndServed)
{
    // One 512-element request is a single wave of 64-element slices
    // over 8 DPUs. DPU 2 hard-fails during it, so its slice is
    // re-queued after the queue has already run dry; the seven
    // survivors must still serve it.
    EvaluatorCatalog catalog;
    serve::TableKey key = catalog.add(Function::Sin, MethodSpec{});
    std::vector<float> in(512);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = 3.0f * static_cast<float>(i) / in.size();
    auto serveOnce = [&](const char* planText,
                         std::vector<float>& out) {
        sim::PimSystem sys(8);
        if (planText) {
            auto plan = fault::FaultPlan::parse(planText);
            EXPECT_TRUE(plan.has_value());
            if (plan)
                sys.armFaults(*plan);
        }
        serve::BatchQueue queue;
        queue.push(
            makeRequest(key, in.data(), out.data(), in.size()));
        queue.close();
        serve::PipelineOptions popts;
        popts.numTasklets = 8;
        serve::ServePipeline pipeline(sys, catalog.provider(), popts);
        return pipeline.run(queue);
    };

    std::vector<float> ref(in.size(), 0.0f);
    ASSERT_TRUE(serveOnce(nullptr, ref).complete);
    std::vector<float> out(in.size(), 0.0f);
    serve::ServeReport rep = serveOnce(
        "seed 11\nfault kind=dpu-hard-fail dpu=2 prob=1\n", out);
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.failedDpus, std::vector<uint32_t>{2});
    EXPECT_EQ(rep.reshardedElements, 64u);
    EXPECT_EQ(rep.droppedElements, 0u);
    EXPECT_EQ(out, ref); // every output written, none left at zero
}

TEST(ServePipeline, RepeatedRunsReuseTheirMramBuffers)
{
    // Four 4 MiB buffers per DPU: eight runs would need 128 MiB of
    // the 64 MiB MRAM if each run allocated its own.
    sim::PimSystem sys(2);
    EvaluatorCatalog catalog;
    serve::TableKey key = catalog.add(Function::Sin, MethodSpec{});
    serve::PipelineOptions popts;
    popts.numTasklets = 4;
    popts.perDpuElements = 1u << 20;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);

    std::vector<float> in(256, 0.5f), out(256);
    uint32_t afterFirst = 0;
    for (int run = 0; run < 8; ++run) {
        serve::BatchQueue queue;
        queue.push(
            makeRequest(key, in.data(), out.data(), in.size()));
        queue.close();
        ASSERT_TRUE(pipeline.run(queue).complete) << "run " << run;
        if (run == 0)
            afterFirst = sys.dpu(0).mramAllocated();
        EXPECT_EQ(sys.dpu(0).mramAllocated(), afterFirst)
            << "run " << run;
    }
}

TEST(ServePipeline, FaultFreeOutputsMatchReference)
{
    BatchedOptions opts;
    opts.dpus = 4;
    opts.tasklets = 8;
    opts.perDpuElements = 256;
    opts.requests = 2;
    opts.elementsPerRequest = 2048;
    MethodSpec spec;
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);
    ASSERT_TRUE(res.pipelined.complete);
    EXPECT_TRUE(res.outputsMatch);
    // The serve path evaluates with the same kernels as the
    // microbenchmark; accuracy must be L-LUT-grade, not garbage.
    // (interp. L-LUT 2^12 RMSE is ~2.5e-7; 1e-5 catches data-path
    // bugs like wrong slicing offsets without being flaky.)
    MicrobenchOptions mopts;
    mopts.elements = 1024;
    MicrobenchResult mb =
        runMicrobench(Function::Sin, spec, mopts);
    EXPECT_LT(mb.error.rmse, 1e-5);
}

// ---------------------------------------------------------------------
// Acceptance: pipelined beats synchronous by >= 1.3x on the L-LUT
// sin sweep (>= 4 waves, 64 DPUs).

TEST(ServeAcceptance, PipelinedBeatsSyncByThirtyPercent)
{
    BatchedOptions opts; // defaults: 64 DPUs, 5 x 32768 elements
    MethodSpec spec;     // interpolated L-LUT (WRAM, 2^12)
    BatchedResult res =
        runBatchedThroughput(Function::Sin, spec, opts);

    ASSERT_TRUE(res.feasible);
    ASSERT_TRUE(res.pipelined.complete);
    ASSERT_TRUE(res.sync.complete);
    EXPECT_TRUE(res.outputsMatch);
    EXPECT_GE(res.pipelined.waves, 4u);
    EXPECT_EQ(res.pipelined.failedDpus.size(), 0u);

    EXPECT_GE(res.speedup(), 1.3);
    EXPECT_GT(res.overlapPercent(), 0.0);
    EXPECT_GT(res.pipelined.elementsPerSecond(), 0.0);
    EXPECT_GT(res.cyclesPerElement, 0.0);
}

// ---------------------------------------------------------------------
// Fleet property: with a topology armed, the fleet clock is exactly
// the slowest rank's clock, and the per-rank rows partition the
// report's cycle totals — cross-checked against every core's own
// LaunchStats partition.

TEST(ServePipeline, FleetMakespanIsMaxOfRankTimelines)
{
    sim::Topology topo{2, 2, 2}; // 4 ranks x 2 DPUs on 2 channels
    sim::PimSystem sys(topo.numDpus());
    EvaluatorCatalog catalog;
    MethodSpec spec;
    serve::TableKey sin = catalog.add(Function::Sin, spec);
    serve::TableKey cos = catalog.add(Function::Cos, spec);

    const uint32_t elements = 6144;
    std::vector<float> in(elements), out(elements, 0.0f);
    for (uint32_t i = 0; i < elements; ++i)
        in[i] = 3.0f * static_cast<float>(i) / elements;

    serve::BatchQueue queue;
    queue.push(
        makeRequest(sin, in.data(), out.data(), elements / 2));
    queue.push(makeRequest(cos, in.data() + elements / 2,
                           out.data() + elements / 2,
                           elements / 2));
    queue.close();

    serve::PipelineOptions popts;
    popts.numTasklets = 8;
    popts.perDpuElements = 128;
    popts.topology = &topo;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);
    serve::ServeReport rep = pipeline.run(queue);
    ASSERT_TRUE(rep.complete);
    ASSERT_EQ(rep.rankStats.size(), topo.numRanks());

    double maxSpan = 0.0;
    uint64_t rankCycles = 0;
    uint64_t rankElements = 0;
    for (const serve::RankStats& r : rep.rankStats) {
        maxSpan = std::max(maxSpan, r.makespanSeconds);
        rankCycles += r.computeCycles;
        rankElements += r.elements;
        EXPECT_LE(r.makespanSeconds, rep.modeledSeconds);
    }
    // Exactly ==, not NEAR: both sides read the same timeline.
    EXPECT_EQ(rep.modeledSeconds, maxSpan);
    EXPECT_EQ(rankCycles, rep.computeCycles);
    EXPECT_EQ(rankElements, rep.elements);

    // Per-core cross-check: each core's last launch still satisfies
    // the exact cycle partition under the fleet schedule.
    for (uint32_t d = 0; d < sys.numDpus(); ++d) {
        const LaunchStats& st = sys.dpu(d).lastLaunch();
        if (st.cycles == 0)
            continue; // a core the placement never used
        uint64_t classSum = 0;
        for (uint64_t c : st.classInstructions)
            classSum += c;
        EXPECT_EQ(classSum, st.totalInstructions);
        EXPECT_EQ(classSum + st.stallCycles, st.cycles);
    }
}
