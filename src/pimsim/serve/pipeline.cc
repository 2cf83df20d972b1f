/**
 * @file
 * ServePipeline implementation: the one serve drive loop.
 *
 * Every run is a fleet run. A system without a matching topology is
 * one rank of all its DPUs (Topology{1, 1, N}), so the flat
 * single-system schedule is the one-rank case of the rank-aware
 * loop below. Each wave executes on one rank, and each rank runs a
 * two-deep software pipeline over the modeled timeline: while wave
 * N computes on the rank's DPU lanes, the rank's transfer lane
 * already streams wave N+1's scatter, and wave N's gather queues up
 * behind it. The wall-clock simulation is eager — each leg
 * simulates fully when issued — so issue order only decides how legs
 * queue on the modeled lanes, never what they compute; results are
 * bit-identical between pipelined and synchronous modes (fault-free)
 * and across TPL_SIM_THREADS, and all bookkeeping runs on the
 * consumer thread against modeled times.
 */

#include "pimsim/serve/pipeline.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <deque>
#include <optional>
#include <string>

#include "pimsim/obs/journal.h"
#include "pimsim/obs/metrics.h"
#include "pimsim/obs/trace.h"
#include "pimsim/serve/auto_tuner.h"

namespace tpl {
namespace sim {
namespace serve {

namespace {

/** A wave waiting to execute: fresh from the queue (generation 0) or
 * re-queued after failures. */
struct PendingWave
{
    Wave wave;
    uint32_t generation = 0;
    /** Set when the auto-tuner rerouted this wave to another table;
     * the driver stamps it as a `tune` journal event at scatter
     * start. Empty on the untuned path. */
    std::string tuneNote;
};

/** One request's share of a wave (journal/flow bookkeeping). */
struct WaveReq
{
    uint64_t id = 0;
    uint64_t elements = 0; ///< this request's elements in the wave
    bool last = false;     ///< wave carries the request's tail
};

/** One request's span accounting over a run (journal/flow
 * bookkeeping). */
struct ReqAcc
{
    static constexpr uint32_t kNotInWave = UINT32_MAX;

    uint32_t label = 0; ///< journal id of the table label
    /** Index into the shares being collected; kNotInWave between
     * collect() calls. */
    uint32_t waveReq = kNotInWave;
    bool seen = false;    ///< some wave carried the request this run
    bool sawLast = false; ///< a wave carried the request's tail
    bool complete = false;
    double arrival = 0.0;
    double firstScatter = -1.0; ///< <0 = not scattered yet
    double completed = 0.0;
    double transferSeconds = 0.0;
    double computeSeconds = 0.0;
    uint64_t elementsTotal = 0; ///< gen-0 elements issued
    uint64_t elementsDone = 0;  ///< healthy gathered elements
    uint64_t waves = 0;
};

/**
 * Every request's ReqAcc for one run, in a dense vector indexed by
 * slot = id - base. The base is BatchQueue::oldestId() when the run
 * starts and queue ids are dense from there, so the vector holds as
 * many slots as the run serves requests (plus any consumed before
 * the run from the middle of that id range), however large the ids.
 * Slots are in id order.
 */
class RequestSlots
{
  public:
    explicit RequestSlots(uint64_t base) : base_(base) {}

    ReqAcc& operator[](uint64_t id)
    {
        assert(id >= base_ && id - base_ < accs_.size());
        return accs_[id - base_];
    }

    /**
     * Collapse a wave's items into per-request shares, in order of
     * first appearance, deduplicating through the slots. A request
     * seen for the first time takes @p label and its first item's
     * arrival. With @p itemReq, also record each item's index into
     * the returned shares.
     */
    std::vector<WaveReq>
    collect(const Wave& w, uint32_t label,
            std::vector<uint32_t>* itemReq = nullptr)
    {
        std::vector<WaveReq> reqs;
        if (itemReq)
            itemReq->clear();
        for (const WaveItem& it : w.items) {
            assert(it.requestId >= base_);
            const uint64_t slot = it.requestId - base_;
            if (slot >= accs_.size())
                accs_.resize(slot + 1);
            ReqAcc& acc = accs_[slot];
            if (!acc.seen) {
                acc.seen = true;
                acc.label = label;
                acc.arrival = it.arrivalSeconds;
            }
            if (acc.waveReq == ReqAcc::kNotInWave) {
                acc.waveReq = static_cast<uint32_t>(reqs.size());
                reqs.push_back({it.requestId, 0, false});
            }
            if (itemReq)
                itemReq->push_back(acc.waveReq);
            WaveReq& r = reqs[acc.waveReq];
            r.elements += it.elements;
            r.last = r.last || it.last;
        }
        for (const WaveReq& r : reqs)
            (*this)[r.id].waveReq = ReqAcc::kNotInWave;
        return reqs;
    }

    uint64_t base() const { return base_; }
    const std::vector<ReqAcc>& slots() const { return accs_; }

  private:
    uint64_t base_;
    std::vector<ReqAcc> accs_;
};

/** Everything one in-flight wave carries between its begin (scatter)
 * and finish (gather + distribute) steps. */
struct WaveExec
{
    Wave wave;
    uint32_t generation = 0;
    uint32_t parity = 0;
    uint64_t waveIndex = 0; ///< execution-order wave number
    const TableBinding* binding = nullptr;
    std::vector<float> stagingIn;  ///< packed item inputs
    std::vector<ShardTask> slices; ///< one per participating DPU
    std::vector<uint64_t> itemStart; ///< wave-relative item offsets
    uint32_t label = 0; ///< journal id of the wave's table label
    std::vector<WaveReq> reqs; ///< unique requests, item order
    std::vector<uint32_t> itemReq; ///< each item's index into reqs
    WaveStats stats;
    PipelineEvent scatterEv;
    PipelineEvent computeEv;
};

/** Move the first @p budget elements of @p w into the returned wave;
 * @p w keeps the remainder. Items crossing the cut are split against
 * the original request memory, and the `last` flag follows the
 * request's tail (it stays on the remainder, never the head). */
Wave
takeWaveHead(Wave& w, uint64_t budget)
{
    Wave head;
    head.table = w.table;
    head.tenant = w.tenant;
    std::vector<WaveItem> tail;
    uint64_t off = 0;
    for (WaveItem& it : w.items) {
        if (off >= budget) {
            tail.push_back(it);
        } else if (off + it.elements <= budget) {
            head.items.push_back(it);
        } else {
            uint64_t take = budget - off;
            // The `last` flag follows the request's tail: it stays on
            // the remainder, never the split-off head.
            head.items.push_back({it.requestId, it.input, it.output,
                                  take, it.arrivalSeconds, false});
            tail.push_back({it.requestId, it.input + take,
                            it.output + take, it.elements - take,
                            it.arrivalSeconds, it.last});
        }
        off += it.elements;
    }
    w.items = std::move(tail);
    return head;
}

/**
 * Predicted double-buffered makespan of one popped wave run as @p k
 * equal sub-waves over @p healthy cores of @p cap element slices: a
 * mirror of the reservation sequence the drive loop issues (scatter
 * 0; then compute i, scatter i+1, gather i), against the same serial
 * transfer model and per-slice compute envelope. Only the *ranking*
 * across k matters — common shifts (the table broadcast, lanes still
 * busy from earlier waves) move every candidate equally.
 */
double
predictSplitMakespan(uint64_t elems, uint32_t k, uint32_t healthy,
                     uint32_t cap, const WaveCost& cost,
                     PimSystem& sys, double freq)
{
    std::vector<uint64_t> part(k);
    uint64_t base = elems / k, rem = elems % k;
    for (uint32_t i = 0; i < k; ++i)
        part[i] = base + (i < rem ? 1 : 0);

    auto xferSeconds = [&](uint64_t e) {
        return sys.serialTransferSeconds(e * sizeof(float));
    };
    auto computeSeconds = [&](uint64_t e) {
        uint64_t perSlice =
            std::min<uint64_t>(cap, (e + healthy - 1) / healthy);
        return freq > 0.0 ? static_cast<double>(
                                cost.sliceCycles(perSlice)) /
                                freq
                          : 0.0;
    };

    double host = 0.0, dpuFree = 0.0;
    double computeByParity[2] = {0.0, 0.0};
    double gatherByParity[2] = {0.0, 0.0};
    std::vector<double> scatterEnd(k, 0.0);
    host = std::max(computeByParity[0], host) + xferSeconds(part[0]);
    scatterEnd[0] = host;
    double makespan = host;
    for (uint32_t i = 0; i < k; ++i) {
        uint32_t parity = i % 2;
        double ready =
            std::max(scatterEnd[i], gatherByParity[parity]);
        dpuFree = std::max(ready, dpuFree) + computeSeconds(part[i]);
        computeByParity[parity] = dpuFree;
        if (i + 1 < k) {
            double sStart =
                std::max(computeByParity[(i + 1) % 2], host);
            host = sStart + xferSeconds(part[i + 1]);
            scatterEnd[i + 1] = host;
        }
        host = std::max(dpuFree, host) + xferSeconds(part[i]);
        gatherByParity[parity] = host;
        makespan = std::max(makespan, host);
    }
    return makespan;
}

} // namespace

ServePipeline::ServePipeline(PimSystem& system, TableProvider provider,
                             const PipelineOptions& options)
    : sys_(system), cache_(system, std::move(provider)), opts_(options)
{
}

ServeReport
ServePipeline::run(BatchQueue& queue)
{
    // Auto-tuner (kill switch): give the tuner this pipeline's cache
    // so MRAM-budget arbitration can evict and re-broadcast tables.
    if (opts_.autoTuner)
        opts_.autoTuner->bindCache(&cache_);

    ServeReport report;
    const uint32_t n = sys_.numDpus();
    if (n == 0) {
        report.complete = queue.closed() && queue.depth() == 0;
        return report;
    }
    const uint32_t cap = std::max<uint32_t>(opts_.perDpuElements, 1);
    const double freq = sys_.model().frequencyHz;
    // A flat system is a one-rank fleet: without a valid topology
    // describing exactly this system, all n DPUs form one rank.
    const Topology topo = opts_.topology && opts_.topology->valid() &&
                                  opts_.topology->numDpus() == n
                              ? *opts_.topology
                              : Topology{1, 1, n};
    const uint32_t ranks = topo.numRanks();
    // Residency is re-armed per run: every run re-broadcasts the
    // tables it uses, once per holding rank.
    cache_.setRankCount(ranks);

    obs::TraceSpan runSpan(
        "serve run", "serve",
        obs::argsObject(
            {obs::argKv("dpus", static_cast<uint64_t>(n)),
             obs::argKv("ranks", static_cast<uint64_t>(ranks)),
             obs::argKv("per_dpu_elements",
                        static_cast<uint64_t>(cap))}));
    obs::Registry& reg = obs::Registry::global();
    obs::Tracer& tracer = obs::Tracer::global();

    // Double-buffered per-DPU MRAM: two input and two output buffers
    // of `cap` floats each, allocated by the first run and reused by
    // every later one.
    if (inAddr_.empty()) {
        const uint32_t bufBytes =
            cap * static_cast<uint32_t>(sizeof(float));
        std::vector<std::array<uint32_t, 2>> in(n), out(n);
        for (uint32_t d = 0; d < n; ++d)
            for (uint32_t p = 0; p < 2; ++p) {
                in[d][p] = sys_.dpu(d).mramAlloc(bufBytes);
                out[d][p] = sys_.dpu(d).mramAlloc(bufBytes);
            }
        inAddr_ = std::move(in);
        outAddr_ = std::move(out);
    }

    PipelineTimeline timeline(n);
    timeline.configureRanks(ranks, topo.dpusPerRank, topo.channelMap());

    // Per-rank buffer-reuse fences (parity = per-rank wave count mod
    // 2): ranks use disjoint DPUs, so the fences are independent.
    std::vector<std::array<double, 2>> computeEndByParity(
        ranks, {0.0, 0.0});
    std::vector<std::array<double, 2>> gatherEndByParity(
        ranks, {0.0, 0.0});
    std::vector<uint64_t> rankWaves(ranks, 0); ///< parity source
    // Synchronous mode chains every leg on the previous one, across
    // all ranks — the baseline has no overlap to measure.
    double chain = 0.0;
    std::deque<PendingWave> retries;
    bool outOfCores = false;
    uint64_t waveSeq = 0; ///< execution-order wave numbering

    report.rankStats.resize(ranks);
    for (uint32_t r = 0; r < ranks; ++r)
        report.rankStats[r].rank = r;

    // ---- Request-span bookkeeping (journal / flow events) ----
    // All of it runs on this (consumer) thread against modeled times
    // read off the timeline, so the journal's content is a pure
    // function of the workload — bit-identical at any thread count —
    // and none of it feeds back into the modeled schedule. Labels,
    // kinds and notes travel as journal string ids; with events off
    // no event is built at all, only the latency records.
    obs::Journal* const journal = opts_.journal;
    const bool trackReqs = journal != nullptr || tracer.enabled();
    const bool events = journal && journal->eventsEnabled();
    RequestSlots reqAccs(queue.oldestId());

    struct Kinds
    {
        uint32_t coalesce = 0, scatter = 0, broadcast = 0, compute = 0,
                 anomaly = 0, gather = 0, done = 0, drop = 0, tune = 0;
    } kind;
    if (events)
        kind = {journal->intern("coalesce"), journal->intern("scatter"),
                journal->intern("broadcast"), journal->intern("compute"),
                journal->intern("anomaly"),  journal->intern("gather"),
                journal->intern("done"),     journal->intern("drop"),
                journal->intern("tune")};

    auto labelOf = [&](const TableKey& table) -> uint32_t {
        return journal ? journal->intern(table.label) : 0;
    };

    auto jev = [&](uint32_t kindId, double t, double dur,
                   uint64_t request, uint64_t wave, uint64_t elements,
                   uint64_t cycles, int32_t rank, uint32_t label,
                   std::string_view note = {}) {
        if (!events)
            return;
        obs::InternedEvent ev;
        ev.kind = kindId;
        ev.t = t;
        ev.dur = dur;
        ev.request = request;
        ev.wave = wave;
        ev.elements = elements;
        ev.cycles = cycles;
        ev.rank = rank;
        ev.table = label;
        ev.note = note.empty() ? 0 : journal->intern(note);
        journal->record(ev);
    };

    auto noteFailedDpu = [&](uint32_t d) {
        if (std::find(report.failedDpus.begin(),
                      report.failedDpus.end(),
                      d) == report.failedDpus.end())
            report.failedDpus.push_back(d);
    };

    /** Healthy DPUs of one rank, ascending. */
    auto healthyOfRank = [&](uint32_t r) {
        std::vector<uint32_t> out;
        const uint32_t lo = topo.firstDpuOfRank(r);
        const uint32_t hi = std::min(n, lo + topo.dpusPerRank);
        for (uint32_t d = lo; d < hi; ++d)
            if (!sys_.isMasked(d))
                out.push_back(d);
        return out;
    };

    /** Largest healthy-DPU count of any rank (wave pop budget). */
    auto maxHealthyPerRank = [&]() {
        uint32_t best = 0;
        for (uint32_t r = 0; r < ranks; ++r)
            best = std::max(
                best,
                static_cast<uint32_t>(healthyOfRank(r).size()));
        return best;
    };

    /** Next wave to execute: pending retries first, then the queue.
     * Waves are sized for one rank — the placement step later picks
     * which. */
    auto nextWave = [&]() -> std::optional<PendingWave> {
        for (;;) {
            if (!retries.empty()) {
                PendingWave pw = std::move(retries.front());
                retries.pop_front();
                return pw;
            }
            uint32_t healthy = maxHealthyPerRank();
            if (healthy == 0) {
                outOfCores = true;
                return std::nullopt;
            }
            auto w = queue.popWave(
                static_cast<uint64_t>(cap) * healthy);
            if (!w)
                return std::nullopt;
            report.requests += w->requestsClosed;
            if (tracer.enabled())
                tracer.counterValue(
                    "serve/queue_depth", "serve",
                    static_cast<double>(queue.depth()));
            if (reg.enabled())
                reg.histogram("serve/queue/depth")
                    .observe(queue.depth());
            if (w->items.empty())
                continue; // zero-element requests only
            report.elements += w->elements();

            // Auto-tuner routing: only fresh generation-0 waves are
            // routed — retries and cost-book split pieces keep the
            // table they were issued with.
            std::string tuneNote;
            if (opts_.autoTuner) {
                AutoTuner::Routing tr =
                    opts_.autoTuner->route(w->table, w->tenant);
                // `switched` only marks the first wave after a route
                // change (it drives the `tune` journal event); every
                // wave runs whatever table route() picked.
                if (tr.table.hash != w->table.hash &&
                    reg.enabled())
                    reg.counter("tuner/rerouted_waves").add(1);
                w->table = tr.table;
                if (tr.switched)
                    tuneNote = std::move(tr.note);
            }

            // Cost-aware wave sizing: with a certified compute
            // envelope for this table, rank the candidate sub-wave
            // splits on the predicted double-buffered makespan of
            // one rank and issue the fastest shape. Splits land at
            // the front of the retry deque (generation 0) so they
            // pop in order.
            if (opts_.costBook && opts_.pipelined) {
                const WaveCost* wc = opts_.costBook->find(w->table);
                uint64_t waveElems = w->elements();
                if (wc && healthy > 0 && waveElems > 1) {
                    uint32_t bestK = 1;
                    double best = predictSplitMakespan(
                        waveElems, 1, healthy, cap, *wc, sys_, freq);
                    for (uint32_t k : {2u, 4u, 8u}) {
                        if (waveElems / k < healthy)
                            break; // sub-slices would degenerate
                        double m = predictSplitMakespan(
                            waveElems, k, healthy, cap, *wc, sys_,
                            freq);
                        if (m < best * (1.0 - 1e-9)) {
                            best = m;
                            bestK = k;
                        }
                    }
                    if (bestK > 1) {
                        uint64_t base = waveElems / bestK;
                        uint64_t rem = waveElems % bestK;
                        Wave rest = std::move(*w);
                        std::vector<Wave> pieces;
                        for (uint32_t i = 0; i + 1 < bestK; ++i)
                            pieces.push_back(takeWaveHead(
                                rest, base + (i < rem ? 1 : 0)));
                        pieces.push_back(std::move(rest));
                        for (auto it = pieces.rbegin();
                             it != pieces.rend(); ++it)
                            retries.push_front(
                                PendingWave{std::move(*it), 0, {}});
                        // Retries was empty here; the tune note
                        // rides on the first split piece.
                        retries.front().tuneNote =
                            std::move(tuneNote);
                        if (reg.enabled())
                            reg.counter("serve/cost/split_waves")
                                .add(1);
                        continue;
                    }
                }
            }
            return PendingWave{std::move(*w), 0, std::move(tuneNote)};
        }
    };

    /**
     * Placement: pick the rank a wave of @p key runs on.
     *   1. Only ranks with a healthy DPU are candidates (none ->
     *      nullopt, the fleet is out of cores).
     *   2. A known valid table prefers the least-busy rank already
     *      holding it — unless the least-busy rank overall is ahead
     *      by more than one single-rank broadcast, in which case the
     *      table replicates there (the broadcast pays for itself).
     *   3. A table with no holder (or unknown/infeasible) goes to
     *      the candidate with the fewest resident tables, ties
     *      broken by load then rank id — first sightings spread.
     * Busy-ness is the rank's modeled makespan so far; everything
     * here is a pure function of modeled state (deterministic).
     */
    auto placeRank =
        [&](const TableKey& key) -> std::optional<uint32_t> {
        std::optional<uint32_t> bestAll;
        double bestAllBusy = 0.0;
        std::optional<uint32_t> bestRes;
        double bestResBusy = 0.0;
        std::optional<uint32_t> bestFresh;
        size_t bestFreshRes = 0;
        double bestFreshBusy = 0.0;
        const TableBinding* binding = cache_.peek(key);
        const bool known = binding && binding->valid;
        for (uint32_t r = 0; r < ranks; ++r) {
            if (healthyOfRank(r).empty())
                continue;
            double busy = timeline.rankMakespan(r);
            if (!bestAll || busy < bestAllBusy) {
                bestAll = r;
                bestAllBusy = busy;
            }
            if (known && cache_.residentOnRank(key, r)) {
                if (!bestRes || busy < bestResBusy) {
                    bestRes = r;
                    bestResBusy = busy;
                }
            } else {
                size_t res = cache_.residency(r);
                if (!bestFresh || res < bestFreshRes ||
                    (res == bestFreshRes && busy < bestFreshBusy)) {
                    bestFresh = r;
                    bestFreshRes = res;
                    bestFreshBusy = busy;
                }
            }
        }
        if (!bestAll)
            return std::nullopt;
        if (!known)
            return bestAll;
        if (!bestRes)
            return bestFresh ? bestFresh : bestAll;
        double bcast =
            sys_.rankParallelTransferSeconds(binding->tableBytes,
                                             topo.dpusPerRank);
        if (bestResBusy - bestAllBusy > bcast)
            return bestAll; // replicate: the broadcast pays off
        return bestRes;
    };

    /** Resolve the binding on @p rank and reserve scatter (+ one
     * single-rank table broadcast when the rank does not hold the
     * table yet). Returns false when the wave cannot run at all. */
    auto beginWave = [&](uint32_t rank, PendingWave&& pw,
                         WaveExec& ex) -> bool {
        std::string tuneNote = std::move(pw.tuneNote);
        ex.wave = std::move(pw.wave);
        ex.generation = pw.generation;
        ex.parity = static_cast<uint32_t>(rankWaves[rank] % 2);

        TableCache::RankLookup found =
            cache_.lookupOnRank(ex.wave.table, rank);
        ex.binding = found.binding;
        ex.stats.tableMiss = found.rankMiss;
        ex.label = labelOf(ex.wave.table);
        uint64_t waveElems = ex.wave.elements();
        if (!ex.binding || !ex.binding->valid) {
            report.infeasibleElements += waveElems;
            if (trackReqs)
                for (const WaveReq& r :
                     reqAccs.collect(ex.wave, ex.label)) {
                    ReqAcc& acc = reqAccs[r.id];
                    if (ex.generation == 0) {
                        acc.elementsTotal += r.elements;
                        acc.sawLast = acc.sawLast || r.last;
                    }
                    jev(kind.drop, chain, 0.0, r.id,
                        obs::JournalEvent::kNoWave, r.elements, 0, rank,
                        ex.label, "no valid table binding");
                }
            return false;
        }
        PipelineEvent bcastEv{};
        if (found.rankMiss && ex.binding->tableBytes > 0) {
            PipelineEvent ev = sys_.broadcastAsync(
                timeline, opts_.pipelined ? 0.0 : chain,
                ex.binding->tableBytes, rank);
            ex.stats.broadcastSeconds = ev.seconds();
            bcastEv = ev;
            chain = ev.end;
            ++report.rankStats[rank].broadcasts;
        }

        // Slice across the rank's currently healthy cores. If cores
        // died since the wave was sized, the tail that no longer
        // fits is split off and re-queued ahead of everything else.
        std::vector<uint32_t> healthy = healthyOfRank(rank);
        if (healthy.empty()) {
            retries.push_front(
                PendingWave{std::move(ex.wave), ex.generation, {}});
            if (maxHealthyPerRank() == 0)
                outOfCores = true;
            return false;
        }
        uint64_t budget =
            static_cast<uint64_t>(cap) * healthy.size();
        if (waveElems > budget) {
            Wave head = takeWaveHead(ex.wave, budget);
            retries.push_front(
                PendingWave{std::move(ex.wave), ex.generation, {}});
            ex.wave = std::move(head);
            waveElems = ex.wave.elements();
        }

        // Pack the item inputs into one staging buffer (wave slices
        // cross item boundaries) and record the item offsets.
        ex.stagingIn.resize(waveElems);
        ex.itemStart.resize(ex.wave.items.size());
        uint64_t off = 0;
        for (size_t i = 0; i < ex.wave.items.size(); ++i) {
            const WaveItem& it = ex.wave.items[i];
            ex.itemStart[i] = off;
            std::memcpy(ex.stagingIn.data() + off, it.input,
                        it.elements * sizeof(float));
            off += it.elements;
        }

        const uint64_t per = std::min<uint64_t>(
            cap,
            (waveElems + healthy.size() - 1) / healthy.size());
        std::vector<ScatterSlice> scatter;
        uint64_t first = 0;
        for (uint32_t d : healthy) {
            if (first >= waveElems)
                break;
            uint32_t count = static_cast<uint32_t>(
                std::min<uint64_t>(per, waveElems - first));
            ShardTask t;
            t.dpu = d;
            t.inAddr = inAddr_[d][ex.parity];
            t.outAddr = outAddr_[d][ex.parity];
            t.firstElement = first;
            t.elements = count;
            ex.slices.push_back(t);
            scatter.push_back(
                {d, t.inAddr, ex.stagingIn.data() + first,
                 count * static_cast<uint32_t>(sizeof(float))});
            first += count;
        }
        ex.stats.elements = waveElems;
        ex.stats.slices = static_cast<uint32_t>(ex.slices.size());

        double readyAt =
            opts_.pipelined ? computeEndByParity[rank][ex.parity]
                            : chain;
        ex.scatterEv =
            sys_.scatterAsync(timeline, readyAt, scatter, rank);
        chain = ex.scatterEv.end;
        ex.stats.scatterSeconds = ex.scatterEv.seconds();
        ex.waveIndex = waveSeq++;

        // Tuner redirect: stamp the decision on the wave it first
        // applies to, at scatter start, tagged with the tenant and
        // the executing rank.
        if (events && !tuneNote.empty()) {
            obs::InternedEvent ev;
            ev.kind = kind.tune;
            ev.t = ex.scatterEv.start;
            ev.wave = ex.waveIndex;
            ev.elements = ex.stats.elements;
            ev.rank = rank;
            ev.tenant = ex.wave.tenant;
            ev.table = ex.label;
            ev.note = journal->intern(tuneNote);
            journal->record(ev);
        }

        // Per-request span accounting (post-split, so every element
        // is attributed to exactly the wave that carries it).
        if (trackReqs) {
            ex.reqs = reqAccs.collect(ex.wave, ex.label, &ex.itemReq);
            const double waveXfer =
                ex.stats.broadcastSeconds + ex.stats.scatterSeconds;
            for (const WaveReq& r : ex.reqs) {
                ReqAcc& acc = reqAccs[r.id];
                ++acc.waves;
                if (acc.firstScatter < 0.0)
                    acc.firstScatter = ex.scatterEv.start;
                acc.transferSeconds += waveXfer;
                if (ex.generation == 0) {
                    acc.elementsTotal += r.elements;
                    acc.sawLast = acc.sawLast || r.last;
                }
                if (tracer.enabled()) {
                    const std::string flowName =
                        "req " + std::to_string(r.id);
                    if (acc.waves == 1)
                        tracer.flowBegin(flowName, "serve", r.id);
                    else
                        tracer.flowStep(flowName, "serve", r.id);
                }
                jev(kind.coalesce, ex.scatterEv.start, 0.0, r.id,
                    ex.waveIndex, r.elements, 0, rank, ex.label);
                jev(kind.scatter, ex.scatterEv.start,
                    ex.scatterEv.seconds(), r.id, ex.waveIndex,
                    r.elements, 0, rank, ex.label);
            }
            if (ex.stats.tableMiss && ex.stats.broadcastSeconds > 0.0)
                jev(kind.broadcast, bcastEv.start, bcastEv.seconds(), 0,
                    ex.waveIndex, 0, 0, rank, ex.label);
        }
        ++rankWaves[rank];
        report.rankStats[rank].waves += 1;
        report.rankStats[rank].elements += waveElems;
        return true;
    };

    /** Launch the wave's kernels (the rank's DPU lanes). */
    auto computeWave = [&](uint32_t rank, WaveExec& ex) {
        double readyAt =
            opts_.pipelined
                ? std::max(ex.scatterEv.end,
                           gatherEndByParity[rank][ex.parity])
                : chain;
        ex.computeEv =
            sys_.launchAsync(timeline, readyAt, opts_.numTasklets,
                             ex.slices, ex.binding->makeKernel);
        chain = ex.computeEv.end;
        computeEndByParity[rank][ex.parity] = ex.computeEv.end;
        ex.stats.maxCycles = sys_.lastMaxCycles();
        ex.stats.computeSeconds =
            freq > 0.0
                ? static_cast<double>(ex.stats.maxCycles) / freq
                : 0.0;
        report.computeCycles += ex.stats.maxCycles;
        report.rankStats[rank].computeCycles += ex.stats.maxCycles;

        // Straggler detection: a pure function of the per-slice cycle
        // counts, which the sequential failure sweep recorded, so it
        // is deterministic at any thread count and costs nothing on
        // the modeled schedule.
        std::vector<uint64_t> sliceCycles =
            sys_.lastLaunchReport().shardCycles;
        for (uint64_t c : sliceCycles)
            ex.stats.totalCycles += c;
        std::sort(sliceCycles.begin(), sliceCycles.end());
        if (!sliceCycles.empty())
            ex.stats.medianCycles =
                sliceCycles[sliceCycles.size() / 2];
        if (sliceCycles.size() >= 2 && ex.stats.medianCycles > 0) {
            const double limit =
                kStragglerFactor *
                static_cast<double>(ex.stats.medianCycles);
            uint32_t stragglers = 0;
            for (uint64_t c : sliceCycles)
                if (static_cast<double>(c) > limit)
                    ++stragglers;
            if (stragglers > 0) {
                ex.stats.stragglerDpus = stragglers;
                ++report.anomalousWaves;
                if (reg.enabled()) {
                    reg.counter("serve/anomaly/straggler_waves")
                        .add(1);
                    reg.counter("serve/anomaly/straggler_dpus")
                        .add(stragglers);
                }
                if (events)
                    jev(kind.anomaly, ex.computeEv.start,
                        ex.computeEv.seconds(), 0, ex.waveIndex,
                        ex.stats.elements, sliceCycles.back(), rank,
                        ex.label,
                        "max " + std::to_string(sliceCycles.back()) +
                            " cycles vs median " +
                            std::to_string(ex.stats.medianCycles) +
                            " across " +
                            std::to_string(sliceCycles.size()) +
                            " slices");
            }
        }

        if (trackReqs)
            for (const WaveReq& r : ex.reqs) {
                reqAccs[r.id].computeSeconds += ex.computeEv.seconds();
                jev(kind.compute, ex.computeEv.start,
                    ex.computeEv.seconds(), r.id, ex.waveIndex,
                    r.elements, ex.stats.maxCycles, rank, ex.label);
            }
    };

    /** Gather, distribute outputs, and re-queue failed slices (the
     * retry wave is free to land on any healthy rank). */
    auto finishWave = [&](uint32_t rank, WaveExec& ex) {
        uint64_t waveElems = ex.stats.elements;
        std::vector<float> stagingOut(waveElems);
        std::vector<GatherSlice> gather;
        for (const ShardTask& t : ex.slices)
            gather.push_back(
                {t.dpu, t.outAddr,
                 stagingOut.data() + t.firstElement,
                 t.elements *
                     static_cast<uint32_t>(sizeof(float))});
        double readyAt =
            opts_.pipelined ? ex.computeEv.end : chain;
        PipelineEvent gatherEv =
            sys_.gatherAsync(timeline, readyAt, gather, rank);
        chain = gatherEv.end;
        gatherEndByParity[rank][ex.parity] = gatherEv.end;
        ex.stats.gatherSeconds = gatherEv.seconds();

        // Distribute healthy slice ranges to the item outputs; turn
        // failed slice ranges into retry items against the original
        // request memory (the staging buffers die with this wave).
        Wave retry;
        retry.table = ex.wave.table;
        retry.tenant = ex.wave.tenant;
        // Slices and items both run in wave-offset order, so one
        // two-pointer walk visits every (slice, item) overlap: `first`
        // is the first item that ends after the current slice starts.
        const std::vector<WaveItem>& items = ex.wave.items;
        std::vector<uint64_t> gathered(trackReqs ? ex.reqs.size() : 0);
        std::vector<WaveOutcome::Span> tuneSpans;
        size_t first = 0;
        for (const ShardTask& t : ex.slices) {
            const uint64_t lo = t.firstElement;
            const uint64_t hi = lo + t.elements;
            const bool failed = sys_.isMasked(t.dpu);
            if (failed) {
                ++ex.stats.retriedSlices;
                noteFailedDpu(t.dpu);
            }
            while (first < items.size() &&
                   ex.itemStart[first] + items[first].elements <= lo)
                ++first;
            for (size_t i = first;
                 i < items.size() && ex.itemStart[i] < hi; ++i) {
                const WaveItem& it = items[i];
                const uint64_t a = ex.itemStart[i];
                const uint64_t s = std::max(lo, a);
                const uint64_t e = std::min(hi, a + it.elements);
                if (s >= e)
                    continue; // zero-element item
                const uint64_t itemOff = s - a;
                const uint64_t count = e - s;
                if (!failed) {
                    std::memcpy(it.output + itemOff,
                                stagingOut.data() + s,
                                count * sizeof(float));
                    if (trackReqs)
                        gathered[ex.itemReq[i]] += count;
                    if (opts_.autoTuner)
                        tuneSpans.push_back({it.input + itemOff,
                                             it.output + itemOff,
                                             count});
                } else {
                    // The tail flag survives a retry only if the
                    // retried range still covers the item's tail.
                    retry.items.push_back(
                        {it.requestId, it.input + itemOff,
                         it.output + itemOff, count, it.arrivalSeconds,
                         it.last && itemOff + count == it.elements});
                }
            }
        }

        if (trackReqs)
            for (size_t k = 0; k < ex.reqs.size(); ++k) {
                const WaveReq& r = ex.reqs[k];
                ReqAcc& acc = reqAccs[r.id];
                acc.transferSeconds += gatherEv.seconds();
                jev(kind.gather, gatherEv.start, gatherEv.seconds(),
                    r.id, ex.waveIndex, r.elements, 0, rank, ex.label);
                acc.elementsDone += gathered[k];
                if (!acc.complete && acc.sawLast &&
                    acc.elementsTotal > 0 &&
                    acc.elementsDone == acc.elementsTotal) {
                    acc.complete = true;
                    acc.completed = gatherEv.end;
                    jev(kind.done, gatherEv.end, 0.0, r.id,
                        ex.waveIndex, acc.elementsTotal, 0, rank,
                        ex.label);
                    if (tracer.enabled())
                        tracer.flowEnd("req " + std::to_string(r.id),
                                       "serve", r.id);
                }
            }
        uint64_t retryElems = retry.elements();
        if (retryElems > 0) {
            if (ex.generation + 1 > kRetryWaves) {
                report.droppedElements += retryElems;
                if (events)
                    for (const WaveReq& r :
                         reqAccs.collect(retry, ex.label))
                        jev(kind.drop, gatherEv.end, 0.0, r.id,
                            ex.waveIndex, r.elements, 0, rank,
                            ex.label, "retry budget exhausted");
                if (reg.enabled())
                    reg.counter("serve/retry/dropped_elements")
                        .add(retryElems);
            } else {
                report.reshardedElements += retryElems;
                retries.push_back(PendingWave{
                    std::move(retry), ex.generation + 1, {}});
                if (reg.enabled()) {
                    reg.counter("serve/retry/waves").add(1);
                    reg.counter("serve/retry/elements")
                        .add(retryElems);
                }
            }
        }

        // Close the tuner's loop with what this wave actually did:
        // exact gathered outputs (healthy ranges only) plus the
        // summed modeled cycles — all consumer-thread, all modeled,
        // so tuned runs stay deterministic at any thread count.
        if (opts_.autoTuner) {
            WaveOutcome oc;
            oc.table = ex.wave.table;
            oc.tenant = ex.wave.tenant;
            oc.waveIndex = ex.waveIndex;
            oc.elements = ex.stats.elements;
            oc.totalCycles = ex.stats.totalCycles;
            oc.spans = std::move(tuneSpans);
            opts_.autoTuner->observe(oc);
        }

        report.syncSeconds +=
            ex.stats.broadcastSeconds + ex.stats.scatterSeconds +
            ex.stats.computeSeconds + ex.stats.gatherSeconds;
        if (reg.enabled())
            reg.histogram("serve/wave/elements").observe(waveElems);
        report.waveStats.push_back(ex.stats);
    };

    // Drive loop: one in-flight wave per rank. Beginning a second
    // wave on a rank first finishes the rank's previous wave, so the
    // rank lane interleaves ... scatter(k+1), gather(k) ... while
    // the rank's DPU lanes run compute(k): the two-deep per-rank
    // software pipeline.
    std::vector<std::optional<WaveExec>> inflight(ranks);
    /** Finish every rank's in-flight wave; @return whether any was. */
    auto drainInflight = [&]() {
        bool drained = false;
        for (uint32_t r = 0; r < ranks; ++r)
            if (inflight[r]) {
                finishWave(r, *inflight[r]);
                inflight[r].reset();
                drained = true;
            }
        return drained;
    };
    for (;;) {
        auto pw = nextWave();
        if (!pw) {
            // Stream exhausted *for now*: finishing the in-flight
            // waves may re-queue retry waves (a failed DPU's slices
            // re-shard), so drain and re-check before concluding the
            // run is over.
            if (drainInflight())
                continue;
            break;
        }
        auto rank = placeRank(pw->wave.table);
        if (!rank) {
            outOfCores = true;
            retries.push_front(std::move(*pw));
            break;
        }
        obs::TraceSpan waveSpan(
            "wave " + std::to_string(waveSeq), "serve",
            obs::argKv("rank", static_cast<uint64_t>(*rank)));
        WaveExec ex;
        if (!beginWave(*rank, std::move(*pw), ex)) {
            if (outOfCores)
                break;
            continue; // infeasible wave: try the next one
        }
        if (opts_.pipelined) {
            if (inflight[*rank]) {
                finishWave(*rank, *inflight[*rank]);
                inflight[*rank].reset();
            }
            computeWave(*rank, ex);
            inflight[*rank] = std::move(ex);
        } else {
            computeWave(*rank, ex);
            finishWave(*rank, ex);
        }
    }
    drainInflight();

    // Anything still pending when we ran out of cores is dropped.
    const double drainT = timeline.makespan();
    for (const PendingWave& pw : retries) {
        report.droppedElements += pw.wave.elements();
        if (trackReqs) {
            const uint32_t label = labelOf(pw.wave.table);
            for (const WaveReq& r : reqAccs.collect(pw.wave, label)) {
                ReqAcc& acc = reqAccs[r.id];
                if (pw.generation == 0) {
                    acc.elementsTotal += r.elements;
                    acc.sawLast = acc.sawLast || r.last;
                }
                jev(kind.drop, drainT, 0.0, r.id,
                    obs::JournalEvent::kNoWave, r.elements, 0, -1,
                    label, "out of cores");
            }
        }
    }
    retries.clear();

    report.waves = report.waveStats.size();
    report.cacheHits = cache_.hits();
    report.cacheMisses = cache_.misses();
    report.modeledSeconds = timeline.makespan();
    for (uint32_t r = 0; r < ranks; ++r) {
        report.rankStats[r].makespanSeconds = timeline.rankMakespan(r);
        report.rankStats[r].residentTables = cache_.residency(r);
    }
    report.complete = !outOfCores && report.droppedElements == 0 &&
                      report.infeasibleElements == 0 &&
                      queue.closed() && queue.depth() == 0;

    // Finalize one latency record per tracked request. Slots run in
    // request-id order, and every timestamp came off the modeled
    // timeline — the journal serializes byte-identically at any
    // thread count. Decomposition identity (complete requests):
    //   latency = queueWait + transfer + compute + stall
    // holds exactly because stall is defined as the residual; it goes
    // negative when a multi-wave request's legs overlap in the
    // double-buffered schedule (legs then sum past the span).
    if (journal) {
        const std::vector<ReqAcc>& slots = reqAccs.slots();
        for (size_t slot = 0; slot < slots.size(); ++slot) {
            const ReqAcc& acc = slots[slot];
            if (!acc.seen)
                continue;
            obs::InternedLatency lat;
            lat.request = reqAccs.base() + slot;
            lat.table = acc.label;
            lat.elements = acc.elementsTotal;
            lat.waves = acc.waves;
            lat.complete = acc.complete;
            lat.arrivalSeconds = acc.arrival;
            lat.firstScatterSeconds = acc.firstScatter < 0.0
                                          ? acc.arrival
                                          : acc.firstScatter;
            lat.completedSeconds = acc.completed;
            lat.queueWaitSeconds =
                lat.firstScatterSeconds - acc.arrival;
            lat.transferSeconds = acc.transferSeconds;
            lat.computeSeconds = acc.computeSeconds;
            lat.stallSeconds =
                acc.complete
                    ? (acc.completed - acc.arrival) -
                          lat.queueWaitSeconds - acc.transferSeconds -
                          acc.computeSeconds
                    : 0.0;
            journal->recordLatency(lat);
        }
    }

    if (reg.enabled()) {
        reg.counter("serve/waves").add(report.waves);
        reg.counter("serve/requests").add(report.requests);
        reg.counter("serve/elements").add(report.elements);
        reg.real("serve/modeled_seconds").add(report.modeledSeconds);
        reg.real("serve/sync_seconds").add(report.syncSeconds);
        if (report.droppedElements)
            reg.counter("serve/dropped_elements")
                .add(report.droppedElements);
    }
    if (tracer.enabled())
        tracer.counterValue("serve/queue_depth", "serve", 0.0);
    return report;
}

} // namespace serve
} // namespace sim
} // namespace tpl
