/**
 * @file
 * pimserve piece 2: the table/LUT cache.
 *
 * Maps a TableKey to a TableBinding: the per-core kernel factory plus
 * the modeled footprint of the tables the configuration needs on each
 * DPU. The first lookup of a key calls the caller-supplied
 * TableProvider, which generates the tables and stages them onto
 * every core (an evaluator attach); subsequent lookups are hits. Per
 * rank, the cache also tracks which tables are resident, so a rank
 * that already holds a table skips the modeled MRAM re-broadcast —
 * the cache is what makes repeated configurations cheap in a mixed
 * request stream.
 *
 * The serve layer is generic over what a "table" is: the provider is
 * the only place that knows about transpim evaluators (see
 * transpim::EvaluatorCatalog for the standard one), which keeps
 * tpl_pimserve dependent on tpl_pimsim alone.
 */

#ifndef TPL_PIMSIM_SERVE_TABLE_CACHE_H
#define TPL_PIMSIM_SERVE_TABLE_CACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "pimsim/serve/batch_queue.h"
#include "pimsim/system.h"

namespace tpl {
namespace sim {
namespace serve {

/**
 * Everything the pipeline needs to run waves of one configuration.
 * An invalid binding (valid == false) marks a configuration the
 * provider could not realize (unsupported combination, tables too
 * large); it is cached too, so a stream of infeasible requests fails
 * fast instead of re-generating tables.
 */
struct TableBinding
{
    bool valid = false;

    /** Per-core table footprint in bytes. A rank that does not hold
     * the table yet pays one single-rank parallel broadcast of this
     * footprint (lookupOnRank) — a table is broadcast once per rank
     * that hosts it, never once per DPU. */
    uint32_t tableBytes = 0;

    /** Builds the kernel evaluating one wave slice (reuses the
     * ShardTask shape: dpu, in/out MRAM addresses, element count). */
    ShardKernelFactory makeKernel;

    /** Opaque owner of whatever the kernels reference (evaluators,
     * tables); kept alive as long as the cache entry lives. */
    std::shared_ptr<void> state;
};

/**
 * Resolves a key to a binding, staging any tables onto the cores of
 * @p system. Called once per distinct key per TableCache; must return
 * an invalid binding (not throw) for infeasible configurations.
 */
using TableProvider =
    std::function<TableBinding(const TableKey&, PimSystem&)>;

/** The per-pipeline cache. Single-consumer, like the pipeline. */
class TableCache
{
  public:
    TableCache(PimSystem& system, TableProvider provider)
        : system_(system), provider_(std::move(provider))
    {
    }

    /**
     * Arm per-rank residency tracking for a fleet of @p ranks ranks.
     * Resets any prior residency state; rank 0..ranks-1 become valid
     * arguments to lookupOnRank/residentOnRank/residency.
     */
    void setRankCount(uint32_t ranks);

    /** Result of a lookup: the binding, whether the provider had to
     * generate tables (first sighting fleet-wide),
     * and whether this rank still had to receive its broadcast
     * (first sighting on the rank — the caller charges one
     * single-rank broadcast). */
    struct RankLookup
    {
        const TableBinding* binding = nullptr;
        bool providerMiss = false;
        bool rankMiss = false;
    };

    /**
     * Resolve @p key (consulting the provider on first sighting; the
     * binding is cached, valid or not) and mark the table resident
     * on @p rank. rankMiss is set — and one rank broadcast counted —
     * when a valid binding was not yet resident there.
     */
    RankLookup lookupOnRank(const TableKey& key, uint32_t rank);

    /** Binding for @p key if cached, else nullptr. No counters move:
     * this is the scheduler's placement peek, not a lookup. */
    const TableBinding* peek(const TableKey& key) const;

    /**
     * Drop @p key from the cache (MRAM-budget arbitration): the next
     * lookup re-consults the provider and pays the table broadcast
     * again, and any per-rank residency is cleared so every holding
     * rank re-broadcasts too. The old binding object stays alive
     * until the cache is destroyed — an in-flight wave still holding
     * its pointer (one-wave decision lag in pipelined mode) keeps a
     * valid table. @return the evicted footprint in bytes (0 when
     * the key was not cached).
     */
    uint32_t evict(const TableKey& key);

    /** Evictions performed so far. */
    uint64_t evictions() const { return evictions_; }

    /** Whether @p key's table is resident on @p rank. */
    bool residentOnRank(const TableKey& key, uint32_t rank) const;

    /** Number of distinct valid tables resident on @p rank. */
    size_t residency(uint32_t rank) const;

    /** Total single-rank broadcasts charged by lookupOnRank. */
    uint64_t rankBroadcasts() const { return rankBroadcasts_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    size_t size() const { return entries_.size(); }

  private:
    PimSystem& system_;
    TableProvider provider_;
    // Bindings live behind stable pointers: evict() retires the
    // entry instead of destroying it, so pointers handed out by
    // lookupOnRank stay valid for the cache's lifetime.
    std::map<uint64_t, std::unique_ptr<TableBinding>> entries_;
    std::vector<std::unique_ptr<TableBinding>> retired_;
    // Fleet residency: per cached table, which ranks hold it. Sized
    // lazily to rankCount_ on first touch of each entry.
    std::map<uint64_t, std::vector<bool>> resident_;
    uint32_t rankCount_ = 0;
    uint64_t rankBroadcasts_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace serve
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_SERVE_TABLE_CACHE_H
