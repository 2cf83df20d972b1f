/**
 * @file
 * TableCache implementation.
 */

#include "pimsim/serve/table_cache.h"

#include "pimsim/obs/metrics.h"

namespace tpl {
namespace sim {
namespace serve {

void
TableCache::setRankCount(uint32_t ranks)
{
    rankCount_ = ranks;
    resident_.clear();
    rankBroadcasts_ = 0;
}

TableCache::RankLookup
TableCache::lookupOnRank(const TableKey& key, uint32_t rank)
{
    obs::Registry& reg = obs::Registry::global();
    RankLookup out;
    auto it = entries_.find(key.hash);
    if (it != entries_.end()) {
        ++hits_;
        if (reg.enabled())
            reg.counter("serve/lut_cache/hits").add(1);
    } else {
        ++misses_;
        if (reg.enabled())
            reg.counter("serve/lut_cache/misses").add(1);
        TableBinding binding =
            provider_ ? provider_(key, system_) : TableBinding{};
        it = entries_
                 .emplace(key.hash, std::make_unique<TableBinding>(
                                        std::move(binding)))
                 .first;
        out.providerMiss = true;
    }
    out.binding = it->second.get();
    std::vector<bool>& res = resident_[key.hash];
    if (res.size() < rankCount_)
        res.resize(rankCount_, false);
    if (out.binding->valid && rank < res.size() && !res[rank]) {
        res[rank] = true;
        out.rankMiss = true;
        ++rankBroadcasts_;
        if (reg.enabled())
            reg.counter("serve/lut_cache/rank_broadcasts").add(1);
    }
    return out;
}

const TableBinding*
TableCache::peek(const TableKey& key) const
{
    auto it = entries_.find(key.hash);
    return it == entries_.end() ? nullptr : it->second.get();
}

uint32_t
TableCache::evict(const TableKey& key)
{
    auto it = entries_.find(key.hash);
    if (it == entries_.end())
        return 0;
    const uint32_t bytes = it->second->tableBytes;
    // Retire, don't destroy: in-flight waves may still reference the
    // binding (kernels capture evaluator state by shared_ptr, but
    // the pipeline holds the raw binding pointer).
    retired_.push_back(std::move(it->second));
    entries_.erase(it);
    resident_.erase(key.hash);
    ++evictions_;
    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled())
        reg.counter("serve/lut_cache/evictions").add(1);
    return bytes;
}

bool
TableCache::residentOnRank(const TableKey& key, uint32_t rank) const
{
    auto it = resident_.find(key.hash);
    return it != resident_.end() && rank < it->second.size() &&
           it->second[rank];
}

size_t
TableCache::residency(uint32_t rank) const
{
    size_t n = 0;
    for (const auto& [hash, res] : resident_)
        if (rank < res.size() && res[rank])
            ++n;
    return n;
}

} // namespace serve
} // namespace sim
} // namespace tpl
