/**
 * @file
 * Host memory of the serve path's per-request state: a run's
 * per-request bookkeeping is sized by the requests it serves, not by
 * how large their ids have grown. The test counts the bytes the
 * process allocates through operator new, so it lives in a binary of
 * its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "pimsim/obs/journal.h"
#include "pimsim/serve/pipeline.h"
#include "transpim/serve_glue.h"

namespace {

std::atomic<uint64_t> gAllocatedBytes{0};

} // namespace

void*
operator new(std::size_t n)
{
    gAllocatedBytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with
// operator new and warns about a mismatch.
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace tpl;
using namespace tpl::sim;
using namespace tpl::transpim;

namespace {

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

TEST(ServePipeline, RequestStateFollowsRequestsServedNotTheirIds)
{
    constexpr uint64_t kEarlier = 200000; ///< ids used up before the run
    constexpr uint64_t kServed = 16;
    constexpr uint64_t kElements = 8;

    PimSystem sys(4);
    EvaluatorCatalog catalog;
    serve::TableKey key = catalog.add(Function::Sin, MethodSpec{});
    obs::Journal journal;
    journal.setEventsEnabled(false); // latency records only
    serve::PipelineOptions popts;
    popts.numTasklets = 4;
    popts.perDpuElements = 64;
    popts.journal = &journal;
    serve::ServePipeline pipeline(sys, catalog.provider(), popts);

    std::vector<float> in(kServed * kElements, 0.5f);
    std::vector<float> out(in.size(), 0.0f);
    {
        // Warm run: builds the table, so the measured run allocates
        // only its own per-run and per-request state.
        serve::BatchQueue warm;
        warm.push(makeRequest(key, in.data(), out.data(), kElements));
        warm.close();
        ASSERT_TRUE(pipeline.run(warm).complete);
    }

    // Push and drain kEarlier requests first, so the served requests'
    // ids start far above 1.
    serve::BatchQueue queue;
    for (uint64_t i = 0; i < kEarlier; ++i)
        queue.push(makeRequest(key, in.data(), out.data(), 0));
    while (queue.depth() > 0)
        queue.popWave(64);
    EXPECT_EQ(queue.oldestId(), kEarlier + 1);
    for (uint64_t k = 0; k < kServed; ++k)
        queue.push(makeRequest(key, in.data() + k * kElements,
                               out.data() + k * kElements, kElements));
    queue.close();
    journal.clear();

    const uint64_t before = gAllocatedBytes.load();
    serve::ServeReport rep = pipeline.run(queue);
    const uint64_t allocated = gAllocatedBytes.load() - before;
    ASSERT_TRUE(rep.complete);
    EXPECT_EQ(rep.requests, kServed);
    // State indexed by raw request id would hold kEarlier slots of
    // dozens of bytes each; the run's own allocations stay far below
    // 8 bytes per earlier id.
    EXPECT_LT(allocated, kEarlier * 8) << allocated << " bytes";

    const std::vector<obs::RequestLatency> lats = journal.latencies();
    ASSERT_EQ(lats.size(), kServed);
    for (uint64_t k = 0; k < kServed; ++k) {
        EXPECT_EQ(lats[k].request, kEarlier + 1 + k);
        EXPECT_TRUE(lats[k].complete);
        EXPECT_EQ(lats[k].elements, kElements);
    }
}
