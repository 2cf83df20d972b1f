/**
 * @file
 * Seam wrappers and the span log (see seams.h).
 */

#include "seams.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace sv = tpl::sim::serve;

int64_t
SpanLog::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

int32_t
SpanLog::add(const std::string& name, Clock::time_point start,
             Clock::time_point end, int32_t parent, int64_t id,
             const std::string& idKind)
{
    spans_.push_back({name, ns(start), ns(end), parent, id, idKind});
    return static_cast<int32_t>(spans_.size() - 1);
}

void
SpanLog::extend(int32_t index, Clock::time_point end)
{
    spans_[index].endNs = ns(end);
}

double
SpanLog::unionSeconds(int32_t parent,
                      const std::set<std::string>& names) const
{
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Span& s : spans_)
        if (s.parent == parent && names.count(s.name))
            iv.emplace_back(s.startNs, s.endNs);
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t curStart = 0, curEnd = -1;
    for (const auto& [a, b] : iv) {
        if (a > curEnd) {
            if (curEnd >= curStart)
                covered += curEnd - curStart;
            curStart = a;
            curEnd = b;
        } else {
            curEnd = std::max(curEnd, b);
        }
    }
    if (curEnd >= curStart)
        covered += curEnd - curStart;
    return static_cast<double>(covered) * 1e-9;
}

bool
SpanLog::writeJsonl(const std::string& path) const
{
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
    if (!f)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f.get(),
                     "{\"span\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d",
                     i, s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent);
        if (s.id >= 0)
            std::fprintf(f.get(), ",\"%s\":%lld", s.idKind.c_str(),
                         static_cast<long long>(s.id));
        std::fprintf(f.get(), "}\n");
    }
    return std::ferror(f.get()) == 0;
}

bool
Seams::methodOf(uint64_t hash, tpl::transpim::Method& m) const
{
    auto found = catalog_.find(hash);
    if (!found)
        return false;
    m = found->second.method;
    return true;
}

sv::TableProvider
Seams::wrapProvider(sv::TableProvider inner)
{
    return [this, inner = std::move(inner)](const sv::TableKey& key,
                                            tpl::sim::PimSystem& sys) {
        const Clock::time_point t0 = Clock::now();
        sv::TableBinding binding = inner(key, sys);
        const Clock::time_point t1 = Clock::now();
        ++counters_.providerCalls;
        counters_.buildSeconds += seconds(t0, t1);
        log_->add("serve.table.build", t0, t1, parent_,
                  static_cast<int64_t>(counters_.providerCalls), "call");

        tpl::transpim::Method method{};
        if (!binding.valid || !binding.makeKernel ||
            !methodOf(key.hash, method))
            return binding;
        binding.makeKernel = [this, method,
                              make = std::move(binding.makeKernel)](
                                 const tpl::sim::ShardTask& task) {
            tpl::sim::Kernel kernel = make(task);
            const uint64_t shard = ++shards_;
            counters_.kernelElementsByMethod[method] += task.elements;
            return tpl::sim::Kernel(
                [this, method, shard,
                 kernel = std::move(kernel)](tpl::sim::TaskletContext& ctx) {
                    const Clock::time_point a = Clock::now();
                    kernel(ctx);
                    const Clock::time_point b = Clock::now();
                    const double s = seconds(a, b);
                    counters_.kernelSeconds += s;
                    counters_.kernelSecondsByMethod[method] += s;
                    ++counters_.kernelCalls;
                    // One span per shard: its tasklets run back to
                    // back, so extend the open span while they do.
                    if (openSpan_ != SpanLog::kNoParent &&
                        openShard_ == shard) {
                        log_->extend(openSpan_, b);
                    } else {
                        openSpan_ = log_->add(
                            "transpim.kernel", a, b, parent_,
                            static_cast<int64_t>(shard), "shard");
                        openShard_ = shard;
                    }
                });
        };
        return binding;
    };
}

sv::AutoTuner::Routing
Seams::Tuner::route(const sv::TableKey& requested, uint64_t tenant)
{
    const bool timed = seams_.tracing();
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    Routing r = inner_ ? inner_->route(requested, tenant)
                       : Routing{requested, false, {}};
    seams_.routed_.try_emplace(r.table.hash, r.table);
    if (timed) {
        const Clock::time_point t1 = Clock::now();
        LayerCounters& c = seams_.counters_;
        c.routeSeconds += seconds(t0, t1);
        c.switches += r.switched ? 1 : 0;
        c.routes.emplace(tenant, requested.hash, r.table.hash);
        seams_.log_->add("tuner.route", t0, t1, seams_.parent_);
    }
    return r;
}

void
Seams::Tuner::observe(const sv::WaveOutcome& outcome)
{
    const bool timed = seams_.tracing();
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    if (inner_)
        inner_->observe(outcome);
    if (!timed)
        return;
    const Clock::time_point t1 = Clock::now();
    LayerCounters& c = seams_.counters_;
    c.observeSeconds += seconds(t0, t1);
    c.observedCycles += outcome.totalCycles;
    tpl::transpim::Method m{};
    if (seams_.methodOf(outcome.table.hash, m)) {
        c.cyclesByMethod[m] += outcome.totalCycles;
        c.elementsByMethod[m] += outcome.elements;
    }
    seams_.log_->add("tuner.observe", t0, t1, seams_.parent_,
                     static_cast<int64_t>(outcome.waveIndex), "wave");
}

void
Seams::Tuner::bindCache(sv::TableCache* cache)
{
    if (inner_)
        inner_->bindCache(cache);
}

std::vector<sv::TuneDecision>
Seams::Tuner::decisions() const
{
    return inner_ ? inner_->decisions() : std::vector<sv::TuneDecision>{};
}

} // namespace perfbench
