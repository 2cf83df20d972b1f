/**
 * @file
 * Multi-DPU system implementation.
 *
 * All multi-DPU loops (kernel launches, bulk MRAM copies) run on the
 * process-wide ThreadPool. Each DpuCore owns its entire state, so the
 * loops are embarrassingly parallel and the modeled numbers they
 * produce are independent of the thread count (see the determinism
 * test in tests/concurrency_test.cc).
 */

#include "pimsim/system.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <type_traits>

#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "pimsim/thread_pool.h"

namespace tpl {
namespace sim {

namespace fault {

/**
 * The armed plan plus every per-DPU fault state and the health mask.
 * Created by PimSystem::armFaults; the DpuFaultState pointers handed
 * to the cores point into this object. Mask slots are written only by
 * the thread simulating that DPU (or sequentially by the host side),
 * and reads happen after the pool joins, so plain bytes suffice; the
 * retry/failure tallies cross threads and are atomic.
 */
class SystemFaultState
{
  public:
    SystemFaultState(const FaultPlan& plan,
                     std::vector<std::unique_ptr<DpuCore>>& dpus)
        : plan_(plan), masked_(dpus.size(), 0)
    {
        states_.reserve(dpus.size());
        for (uint32_t i = 0; i < dpus.size(); ++i)
            states_.push_back(std::make_unique<DpuFaultState>(
                plan_, i, dpus[i].get()));
    }

    const FaultPlan& plan() const { return plan_; }
    DpuFaultState& dpu(uint32_t i) { return *states_[i]; }
    bool masked(uint32_t i) const { return masked_[i] != 0; }
    void mask(uint32_t i) { masked_[i] = 1; }

    std::atomic<uint32_t> transferRetries{0};
    std::atomic<uint32_t> transferFailures{0};

  private:
    FaultPlan plan_;
    std::vector<std::unique_ptr<DpuFaultState>> states_;
    std::vector<uint8_t> masked_;
};

} // namespace fault

namespace {

/**
 * Per-DPU copies below this size are cheaper than a pool dispatch;
 * run them serially. Launches always go parallel — a kernel launch is
 * orders of magnitude more work than a pool handoff.
 */
constexpr uint64_t kParallelCopyThresholdBytes = 4096;

} // namespace

PimSystem::PimSystem(uint32_t numDpus, const CostModel& model)
    : model_(model)
{
    dpus_.reserve(numDpus);
    for (uint32_t i = 0; i < numDpus; ++i)
        dpus_.push_back(std::make_unique<DpuCore>(model));
}

PimSystem::~PimSystem() = default;

void
PimSystem::armFaults(const fault::FaultPlan& plan)
{
    faults_ = std::make_unique<fault::SystemFaultState>(plan, dpus_);
    for (uint32_t i = 0; i < numDpus(); ++i)
        dpus_[i]->setFaultState(&faults_->dpu(i));
}

void
PimSystem::disarmFaults()
{
    for (auto& d : dpus_)
        d->setFaultState(nullptr);
    faults_.reset();
}

const fault::FaultPlan*
PimSystem::faultPlan() const
{
    return faults_ ? &faults_->plan() : nullptr;
}

bool
PimSystem::isMasked(uint32_t dpu) const
{
    return faults_ && faults_->masked(dpu);
}

uint32_t
PimSystem::healthyDpus() const
{
    uint32_t n = 0;
    for (uint32_t i = 0; i < numDpus(); ++i)
        n += isMasked(i) ? 0 : 1;
    return n;
}

void
PimSystem::maskDpu(uint32_t dpu)
{
    if (faults_)
        faults_->mask(dpu);
}

void
PimSystem::forEachIndex(size_t n, bool parallel,
                        const std::function<void(size_t)>& fn) const
{
    if (!parallel || simThreads_ == 1 || n <= 1) {
        for (size_t k = 0; k < n; ++k)
            fn(k);
        return;
    }
    ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
    pool.parallelFor(n, [&](uint64_t k) { fn(k); });
}

double
PimSystem::legOnEveryDpu(const std::function<double(uint32_t)>& leg,
                         uint64_t bytesPerDpu)
{
    // Fault-retry overhead lands in a pre-sized slot per DPU and is
    // summed sequentially, so the modeled seconds are independent of
    // the thread count (all slots are 0.0 with no plan armed).
    std::vector<double> extra(numDpus(), 0.0);
    forEachIndex(extra.size(),
                 bytesPerDpu >= kParallelCopyThresholdBytes,
                 [&](size_t i) {
                     extra[i] = leg(static_cast<uint32_t>(i));
                 });
    double sum = 0.0;
    for (double e : extra)
        sum += e;
    return sum;
}

double
PimSystem::parallelTransferSeconds(uint64_t totalBytes) const
{
    return rankParallelTransferSeconds(totalBytes, numDpus());
}

double
PimSystem::serialTransferSeconds(uint64_t totalBytes) const
{
    if (model_.hostSerialBandwidth <= 0.0)
        return 0.0;
    return static_cast<double>(totalBytes) / model_.hostSerialBandwidth;
}

double
PimSystem::rankParallelTransferSeconds(uint64_t totalBytes,
                                       uint32_t dpusInRank) const
{
    // Parallel transfers stream at the per-rank bandwidth, overlapped
    // across the hardware ranks the span covers, capped by host
    // memory bandwidth.
    uint32_t ranks =
        model_.dpusPerRank
            ? std::max(1u, dpusInRank / model_.dpusPerRank)
            : 1u;
    double bw = std::min(model_.hostParallelBandwidth * ranks,
                         model_.hostAggregateBandwidthCap);
    if (bw <= 0.0)
        return 0.0;
    return static_cast<double>(totalBytes) / bw;
}

double
PimSystem::accountTransfer(TransferStats::Cell (&cells)[2],
                           const char* direction, TransferMode mode,
                           uint64_t streamBytes, double extraSeconds)
{
    double seconds = (mode == TransferMode::Parallel
                          ? parallelTransferSeconds(streamBytes)
                          : serialTransferSeconds(streamBytes)) +
                     extraSeconds;
    return accountTransferSeconds(cells, direction, mode, streamBytes,
                                  seconds);
}

double
PimSystem::accountTransferSeconds(TransferStats::Cell (&cells)[2],
                                  const char* direction,
                                  TransferMode mode,
                                  uint64_t streamBytes, double seconds)
{
    TransferStats::Cell& cell = cells[static_cast<int>(mode)];
    ++cell.transfers;
    cell.bytes += streamBytes;
    cell.seconds += seconds;

    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled()) {
        std::string base = std::string("pimsim/host/") + direction +
                           "/" + toString(mode);
        reg.counter(base + "/transfers").add(1);
        reg.counter(base + "/bytes").add(streamBytes);
        reg.real(base + "/modeled_seconds").add(seconds);
    }
    return seconds;
}

double
PimSystem::transferLeg(uint32_t dpu, uint64_t bytes,
                       const std::function<void()>& copy,
                       uint8_t* corruptTarget, uint64_t corruptSize)
{
    if (!faults_) {
        copy();
        return 0.0;
    }
    if (faults_->masked(dpu))
        return 0.0; // skipped: the core is already dead

    fault::DpuFaultState& state = faults_->dpu(dpu);
    obs::Registry& reg = obs::Registry::global();
    double extra = 0.0;
    uint32_t attempts = policy_.maxTransferRetries + 1;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            // Capped exponential backoff before each retry.
            double backoff =
                std::min(policy_.backoffBaseSeconds *
                             static_cast<double>(1ull << (attempt - 1)),
                         policy_.backoffCapSeconds);
            extra += backoff;
            faults_->transferRetries.fetch_add(
                1, std::memory_order_relaxed);
            if (reg.enabled()) {
                reg.counter("fault/transfer/retries").add(1);
                reg.real("fault/transfer/backoff_seconds").add(backoff);
            }
        }
        fault::TransferOutcome outcome = state.onTransferAttempt();
        if (outcome == fault::TransferOutcome::Ok) {
            copy();
            return extra;
        }
        if (outcome == fault::TransferOutcome::Corrupt) {
            // The bytes made it across the link, but damaged.
            copy();
            if (!policy_.detectTransferCorruption) {
                // No CRC on this runtime: the flip lands silently.
                if (corruptTarget && corruptSize)
                    state.corruptRegion(corruptTarget, corruptSize);
                return extra;
            }
            // Detected: the streamed bytes were wasted; retry.
            extra += serialTransferSeconds(bytes);
        }
        // Timeout: nothing arrived; the attempt cost the leg's stream
        // time before the host gave up.
        if (outcome == fault::TransferOutcome::Timeout)
            extra += serialTransferSeconds(bytes);
    }
    // Out of retries: this core's link is considered dead.
    maskDpu(dpu);
    faults_->transferFailures.fetch_add(1, std::memory_order_relaxed);
    if (reg.enabled())
        reg.counter("fault/transfer/failures").add(1);
    return extra;
}

double
PimSystem::broadcastToMram(uint32_t mramAddr, const void* src,
                           uint32_t size, TransferMode mode)
{
    obs::TraceSpan span(
        std::string("broadcast ") + toString(mode), "xfer",
        obs::argKv("bytes", static_cast<uint64_t>(size)));
    double extraSeconds = legOnEveryDpu(
        [&](uint32_t i) {
            return transferLeg(
                i, size,
                [&, i] { dpus_[i]->hostWriteMram(mramAddr, src, size); },
                dpus_[i]->mramData() + mramAddr, size);
        },
        size);
    // Parallel broadcast writes the same buffer to each rank
    // overlapped, costing one parallel pass of the table bytes;
    // serialized it streams the buffer once per DPU.
    uint64_t streamBytes =
        mode == TransferMode::Parallel
            ? size
            : static_cast<uint64_t>(size) * numDpus();
    return accountTransfer(transferStats_.broadcast, "broadcast", mode,
                           streamBytes, extraSeconds);
}

double
PimSystem::scatterToMram(uint32_t mramAddr, const void* data,
                         uint32_t bytesPerDpu, TransferMode mode)
{
    uint64_t total = static_cast<uint64_t>(bytesPerDpu) * numDpus();
    obs::TraceSpan span(std::string("scatter ") + toString(mode),
                        "xfer", obs::argKv("bytes", total));
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    double extraSeconds = legOnEveryDpu(
        [&](uint32_t i) {
            return transferLeg(
                i, bytesPerDpu,
                [&, i] {
                    dpus_[i]->hostWriteMram(
                        mramAddr,
                        bytes + static_cast<uint64_t>(i) * bytesPerDpu,
                        bytesPerDpu);
                },
                dpus_[i]->mramData() + mramAddr, bytesPerDpu);
        },
        bytesPerDpu);
    return accountTransfer(transferStats_.scatter, "scatter", mode,
                           total, extraSeconds);
}

double
PimSystem::gatherFromMram(uint32_t mramAddr, void* data,
                          uint32_t bytesPerDpu, TransferMode mode)
{
    uint64_t total = static_cast<uint64_t>(bytesPerDpu) * numDpus();
    obs::TraceSpan span(std::string("gather ") + toString(mode),
                        "xfer", obs::argKv("bytes", total));
    uint8_t* bytes = static_cast<uint8_t*>(data);
    double extraSeconds = legOnEveryDpu(
        [&](uint32_t i) {
            uint8_t* dst = bytes + static_cast<uint64_t>(i) * bytesPerDpu;
            return transferLeg(
                i, bytesPerDpu,
                [&, i, dst] {
                    dpus_[i]->hostReadMram(mramAddr, dst, bytesPerDpu);
                },
                dst, bytesPerDpu);
        },
        bytesPerDpu);
    return accountTransfer(transferStats_.gather, "gather", mode,
                           total, extraSeconds);
}

std::vector<uint8_t>
PimSystem::launchShards(const char* spanName, uint32_t numTasklets,
                        std::span<const ShardTask> shards,
                        const ShardKernelFactory& makeKernel)
{
    const size_t m = shards.size();
    obs::TraceSpan span(
        spanName, "sim",
        obs::argsObject(
            {obs::argKv("dpus", static_cast<uint64_t>(m)),
             obs::argKv("tasklets",
                        static_cast<uint64_t>(numTasklets))}));
    obs::Tracer& tracer = obs::Tracer::global();
    const bool tracing = tracer.enabled();

    // Build the kernels on the host thread, in shard order. Shards on
    // cores masked by an earlier failure are skipped; the mask is
    // read up front, so a core failing *during* this launch still
    // counts as attempted.
    std::vector<uint8_t> ran(m, 0);
    std::vector<Kernel> kernels(m);
    for (size_t k = 0; k < m; ++k) {
        if (isMasked(shards[k].dpu))
            continue;
        kernels[k] = makeKernel(shards[k]);
        ran[k] = 1;
    }

    // Per-shard cycles land in a pre-sized slot each, then reduce
    // sequentially: no cross-thread accumulation, so the result is
    // identical to the serial loop bit for bit.
    std::vector<uint64_t> cycles(m, 0);
    auto runOne = [&](size_t k) {
        if (!ran[k])
            return;
        const uint32_t d = shards[k].dpu;
        // The per-DPU slice lands on whichever pool thread ran it,
        // exercising the tracer's per-thread buffers.
        const double t0 = tracing ? tracer.nowUs() : 0.0;
        cycles[k] = dpus_[d]->execute(numTasklets, kernels[k]).cycles;
        if (tracing)
            tracer.complete("dpu " + std::to_string(d), "dpu", t0,
                            tracer.nowUs() - t0,
                            obs::argKv("cycles", cycles[k]));
    };
    forEachIndex(m, true, runOne);

    // Sequential failure sweep: apply the launch timeout, mask newly
    // failed cores, and cap their cycle contribution (the host fences
    // a straggler at the timeout; a hard-failed core contributed 0).
    // Each shard's energy is added here, in shard order, so the
    // real-valued sum is the same at any thread count.
    obs::Registry& reg = obs::Registry::global();
    obs::RealAccum* energy = nullptr;
    LaunchReport report;
    for (size_t k = 0; k < m; ++k) {
        if (!ran[k]) {
            ++report.masked;
            continue;
        }
        ++report.attempted;
        const uint32_t d = shards[k].dpu;
        const LaunchStats& st = dpus_[d]->lastLaunch();
        if (reg.enabled() && !st.failed) {
            if (!energy)
                energy = &reg.real("pimsim/dpu/energy_joules");
            energy->add(st.energyJoules);
        }
        if (!faults_)
            continue;
        report.faultEvents += st.faultEvents;
        bool failed = st.failed;
        if (!failed && policy_.launchTimeoutCycles > 0 &&
            st.cycles > policy_.launchTimeoutCycles) {
            failed = true;
            cycles[k] = policy_.launchTimeoutCycles;
            if (reg.enabled())
                reg.counter("fault/launch/timeout").add(1);
        }
        if (failed) {
            report.failedDpus.push_back(d);
            faults_->mask(d);
        }
    }
    if (reg.enabled() && report.masked)
        reg.counter("fault/launch/masked_skips").add(report.masked);
    for (uint64_t c : cycles)
        report.maxCycles = std::max(report.maxCycles, c);
    report.shardCycles = std::move(cycles);
    lastReport_ = std::move(report);
    return ran;
}

double
PimSystem::launchAll(uint32_t numTasklets, const Kernel& kernel)
{
    std::vector<ShardTask> shards(numDpus());
    for (uint32_t i = 0; i < numDpus(); ++i)
        shards[i].dpu = i;
    launchShards("launchAll", numTasklets, shards,
                 [&](const ShardTask&) { return kernel; });
    const uint64_t maxCycles = lastReport_.maxCycles;

    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled()) {
        reg.counter("pimsim/system/launches").add(1);
        reg.counter("pimsim/system/max_cycles").add(maxCycles);
        reg.histogram("pimsim/system/max_cycles_per_launch")
            .observe(maxCycles);
    }

    if (model_.frequencyHz <= 0.0)
        return 0.0;
    double seconds = static_cast<double>(maxCycles) / model_.frequencyHz;
    if (reg.enabled())
        reg.real("pimsim/system/modeled_seconds").add(seconds);
    return seconds;
}

namespace {

/** Reserve @p seconds on @p rank's transfer lane; the event starts
 * when the lane actually frees up (not end - seconds, which can be
 * off by an ulp). */
PipelineEvent
reserveOnRank(PipelineTimeline& timeline, uint32_t rank,
              double readyAt, double seconds)
{
    double start = std::max(readyAt, timeline.rankFree(rank));
    double end = timeline.reserveRank(rank, readyAt, seconds);
    return {start, end};
}

} // namespace

template <typename Slice>
double
PimSystem::serialLegs(TransferStats::Cell (&cells)[2],
                      const char* direction,
                      std::span<const Slice> slices)
{
    // One retryable leg per slice, sequentially: the slices have
    // distinct sizes, so the host interface serializes them anyway,
    // and sequential legs keep the per-DPU fault-event order (and
    // thus the modeled numbers) independent of the thread count.
    uint64_t streamBytes = 0;
    double extra = 0.0;
    for (const Slice& s : slices) {
        DpuCore& d = *dpus_[s.dpu];
        if constexpr (std::is_same_v<Slice, ScatterSlice>) {
            extra += transferLeg(
                s.dpu, s.bytes,
                [&] { d.hostWriteMram(s.mramAddr, s.src, s.bytes); },
                d.mramData() + s.mramAddr, s.bytes);
        } else {
            uint8_t* dst = static_cast<uint8_t*>(s.dst);
            extra += transferLeg(
                s.dpu, s.bytes,
                [&] { d.hostReadMram(s.mramAddr, dst, s.bytes); }, dst,
                s.bytes);
        }
        if (!isMasked(s.dpu))
            streamBytes += s.bytes;
    }
    return accountTransfer(cells, direction, TransferMode::Serial,
                           streamBytes, extra);
}

PipelineEvent
PimSystem::broadcastAsync(PipelineTimeline& timeline, double readyAt,
                          uint64_t tableBytes, uint32_t rank)
{
    obs::TraceSpan span("broadcastAsync", "xfer",
                        obs::argKv("bytes", tableBytes));
    // One single-rank parallel pass, reserved on the rank's transfer
    // lane (serializing with any sibling rank on the same channel).
    double seconds = accountTransferSeconds(
        transferStats_.broadcast, "broadcast", TransferMode::Parallel,
        tableBytes,
        rankParallelTransferSeconds(tableBytes, timeline.dpusPerRank()));
    return reserveOnRank(timeline, rank, readyAt, seconds);
}

PipelineEvent
PimSystem::scatterAsync(PipelineTimeline& timeline, double readyAt,
                        std::span<const ScatterSlice> slices,
                        uint32_t rank)
{
    uint64_t total = 0;
    for (const ScatterSlice& s : slices)
        total += s.bytes;
    obs::TraceSpan span("scatterAsync", "xfer",
                        obs::argKv("bytes", total));
    double seconds = serialLegs(transferStats_.scatter, "scatter", slices);
    return reserveOnRank(timeline, rank, readyAt, seconds);
}

PipelineEvent
PimSystem::gatherAsync(PipelineTimeline& timeline, double readyAt,
                       std::span<const GatherSlice> slices,
                       uint32_t rank)
{
    uint64_t total = 0;
    for (const GatherSlice& s : slices)
        total += s.bytes;
    obs::TraceSpan span("gatherAsync", "xfer",
                        obs::argKv("bytes", total));
    double seconds = serialLegs(transferStats_.gather, "gather", slices);
    return reserveOnRank(timeline, rank, readyAt, seconds);
}

PipelineEvent
PimSystem::launchAsync(PipelineTimeline& timeline, double readyAt,
                       uint32_t numTasklets,
                       std::span<const ShardTask> slices,
                       const ShardKernelFactory& makeKernel)
{
    std::vector<uint8_t> ran =
        launchShards("launchAsync", numTasklets, slices, makeKernel);
    const std::vector<uint64_t>& cycles = lastReport_.shardCycles;

    // Merge each participating core's modeled cycles onto its own
    // timeline lane; the wave's event spans the earliest lane start
    // to the latest lane end.
    PipelineEvent ev{readyAt, readyAt};
    bool first = true;
    for (size_t k = 0; k < slices.size(); ++k) {
        if (!ran[k])
            continue;
        const uint32_t d = slices[k].dpu;
        double secs = model_.frequencyHz > 0.0
                          ? static_cast<double>(cycles[k]) /
                                model_.frequencyHz
                          : 0.0;
        double start = std::max(readyAt, timeline.dpuFree(d));
        double end = timeline.reserveDpu(d, readyAt, secs);
        ev.start = first ? start : std::min(ev.start, start);
        ev.end = std::max(ev.end, end);
        first = false;
    }

    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled()) {
        reg.counter("pimsim/system/async_launches").add(1);
        reg.counter("pimsim/system/max_cycles").add(lastMaxCycles());
        reg.histogram("pimsim/system/max_cycles_per_launch")
            .observe(lastMaxCycles());
        reg.real("pimsim/system/modeled_seconds")
            .add(ev.end - ev.start);
    }
    return ev;
}

ShardedRunReport
PimSystem::runSharded(const void* input, void* output,
                      uint64_t elements, uint32_t elemBytes,
                      uint32_t numTasklets,
                      const ShardKernelFactory& makeKernel)
{
    ShardedRunReport rep;
    if (elements == 0) {
        rep.complete = true;
        return rep;
    }
    obs::TraceSpan span(
        "runSharded", "sim",
        obs::argsObject(
            {obs::argKv("elements", elements),
             obs::argKv("dpus", static_cast<uint64_t>(numDpus()))}));
    obs::Registry& reg = obs::Registry::global();
    const uint32_t retries0 =
        faults_ ? faults_->transferRetries.load() : 0;
    const uint32_t failures0 =
        faults_ ? faults_->transferFailures.load() : 0;

    const uint8_t* in = static_cast<const uint8_t*>(input);
    uint8_t* out = static_cast<uint8_t*>(output);

    // The shard buffers of every wave are freed when the call
    // returns, not between waves, so MRAM addresses (and the faults
    // keyed on them) within one call do not depend on the release.
    std::vector<DpuCore::AllocMark> marks;
    marks.reserve(numDpus());
    for (const auto& d : dpus_)
        marks.push_back(d->allocMark());

    // Pending contiguous element ranges (first, count). Failed shards
    // put their range back here and the next wave re-distributes it
    // over whatever cores are still healthy.
    std::vector<std::pair<uint64_t, uint64_t>> pending{{0, elements}};

    auto noteFailed = [&rep](uint32_t d) {
        if (std::find(rep.failedDpus.begin(), rep.failedDpus.end(),
                      d) == rep.failedDpus.end())
            rep.failedDpus.push_back(d);
    };

    while (!pending.empty() && rep.waves < kRetryWaves) {
        std::vector<uint32_t> healthy;
        for (uint32_t i = 0; i < numDpus(); ++i)
            if (!isMasked(i))
                healthy.push_back(i);
        if (healthy.empty())
            break;
        ++rep.waves;

        uint64_t total = 0;
        for (const auto& r : pending)
            total += r.second;
        // Even split over the healthy cores; each core gets at most
        // one shard per wave, so leftover fragments roll over to the
        // next wave (pending shrinks every wave — this terminates).
        const uint64_t per =
            (total + healthy.size() - 1) / healthy.size();

        std::vector<ShardTask> tasks;
        std::vector<std::pair<uint64_t, uint64_t>> next;
        {
            size_t h = 0;
            for (const auto& r : pending) {
                uint64_t first = r.first, count = r.second;
                while (count > 0) {
                    if (h == healthy.size()) {
                        next.emplace_back(first, count);
                        break;
                    }
                    uint64_t take = std::min(count, per);
                    ShardTask t;
                    t.dpu = healthy[h++];
                    t.firstElement = first;
                    t.elements = static_cast<uint32_t>(take);
                    tasks.push_back(t);
                    first += take;
                    count -= take;
                }
            }
        }
        pending.clear();

        // Scatter each shard into fresh MRAM buffers. A leg that
        // kills its core drops the shard back into the pending set
        // before launch.
        std::vector<ScatterSlice> scatter;
        for (ShardTask& t : tasks) {
            DpuCore& d = *dpus_[t.dpu];
            const uint32_t bytes = t.elements * elemBytes;
            t.inAddr = d.mramAlloc(bytes);
            t.outAddr = d.mramAlloc(bytes);
            scatter.push_back(
                {t.dpu, t.inAddr, in + t.firstElement * elemBytes, bytes});
        }
        rep.modeledSeconds += serialLegs<ScatterSlice>(
            transferStats_.scatter, "scatter", scatter);
        std::vector<ShardTask> live;
        for (const ShardTask& t : tasks) {
            if (isMasked(t.dpu)) {
                next.emplace_back(t.firstElement, t.elements);
                noteFailed(t.dpu);
            } else {
                live.push_back(t);
            }
        }

        launchShards("runSharded wave", numTasklets, live, makeKernel);
        const uint64_t waveMax = lastReport_.maxCycles;

        // Gather the survivors' outputs into the host array. A shard
        // whose core failed its launch or its gather leg recomputes
        // elsewhere in the next wave.
        std::vector<GatherSlice> gather;
        for (const ShardTask& t : live)
            if (!isMasked(t.dpu))
                gather.push_back({t.dpu, t.outAddr,
                                  out + t.firstElement * elemBytes,
                                  t.elements * elemBytes});
        rep.modeledSeconds += serialLegs<GatherSlice>(
            transferStats_.gather, "gather", gather);
        for (const ShardTask& t : live) {
            if (isMasked(t.dpu)) {
                noteFailed(t.dpu);
                next.emplace_back(t.firstElement, t.elements);
            }
        }
        if (model_.frequencyHz > 0.0)
            rep.modeledSeconds +=
                static_cast<double>(waveMax) / model_.frequencyHz;

        for (const auto& r : next)
            rep.reshardedElements += r.second;
        pending = std::move(next);
    }

    for (uint32_t i = 0; i < numDpus(); ++i)
        dpus_[i]->releaseTo(marks[i]);

    rep.complete = pending.empty();
    if (faults_) {
        rep.transferRetries =
            faults_->transferRetries.load() - retries0;
        rep.transferFailures =
            faults_->transferFailures.load() - failures0;
    }
    if (reg.enabled()) {
        reg.counter("fault/shard/waves").add(rep.waves);
        if (rep.reshardedElements)
            reg.counter("fault/shard/resharded_elements")
                .add(rep.reshardedElements);
        if (!rep.complete)
            reg.counter("fault/shard/incomplete").add(1);
    }
    return rep;
}

double
PimSystem::projectedSystemSeconds(uint64_t perDpuCycles,
                                  uint64_t simulatedElementsPerDpu,
                                  uint64_t totalElements,
                                  uint32_t systemDpus) const
{
    if (simulatedElementsPerDpu == 0 || systemDpus == 0 ||
        model_.frequencyHz <= 0.0)
        return 0.0;
    double cyclesPerElement = static_cast<double>(perDpuCycles) /
                              static_cast<double>(simulatedElementsPerDpu);
    uint64_t elementsPerDpu =
        (totalElements + systemDpus - 1) / systemDpus;
    return cyclesPerElement * static_cast<double>(elementsPerDpu) /
           model_.frequencyHz;
}

} // namespace sim
} // namespace tpl
