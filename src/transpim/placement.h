/**
 * @file
 * Table storage with WRAM/MRAM placement and access-cost accounting.
 *
 * Every LUT-based method (and the CORDIC angle tables) stores its
 * entries through LutStore. The store owns the one authoritative
 * host-side copy generated at setup time; attach() places a copy into
 * a simulated DPU's scratchpad (WRAM) or DRAM bank (MRAM). As in the
 * paper's usage model, the host generates a table once and transfers
 * it to every PIM core: one store may be attached to any number of
 * cores, each of which then holds its own copy at the same offset
 * (attach() enforces that common-offset rule). Kernel-side reads
 * resolve the core through the running tasklet, so a tasklet reads its
 * own core's copy, and charge the placement's access cost:
 *
 *  - WRAM: one pipelined load plus address arithmetic.
 *  - MRAM: an 8-byte-aligned DMA transfer through the DPU's DMA model
 *    (engine occupancy + tasklet stall), which is how a real DPU reads
 *    a random table entry from its bank.
 *
 * Placing a LUT in WRAM limits its size (the paper's Section 4.2.1
 * observation that scratchpad capacity caps the accuracy of
 * non-interpolated methods); attach() throws std::bad_alloc when a
 * table does not fit, and the benchmark harness reports the
 * configuration as infeasible.
 */

#ifndef TPL_TRANSPIM_PLACEMENT_H
#define TPL_TRANSPIM_PLACEMENT_H

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/instr_sink.h"
#include "pimsim/dpu.h"

namespace tpl {
namespace transpim {

/** Where a method's tables live on the PIM core. */
enum class Placement
{
    Host, ///< not attached; host-side evaluation (tests, references)
    Wram, ///< PIM core scratchpad (fast, 64 KB)
    Mram, ///< PIM core DRAM bank (large, DMA accessed)
};

/** Name for reports. */
inline const char*
placementName(Placement p)
{
    switch (p) {
      case Placement::Host: return "host";
      case Placement::Wram: return "WRAM";
      case Placement::Mram: return "MRAM";
    }
    return "?";
}

/**
 * Resolve the simulator tasklet behind a Sink, for placed table reads.
 * Batch sinks resolve their TaskletContext* once per batch; SinkRef
 * asks the wrapped InstrSink (one virtual call); sinks with no
 * InstrSink behind them (NullSink, BatchTally) have no tasklet.
 */
template <class S>
inline sim::TaskletContext*
lutTasklet(S& sink)
{
    if constexpr (requires { sink.tasklet(); })
        return sink.tasklet();
    else
        return nullptr;
}

/**
 * Typed table with placement-aware reads.
 *
 * @tparam T entry type; trivially copyable (float, Fixed, small PODs).
 */
template <typename T>
class LutStore
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    LutStore() = default;

    LutStore(std::vector<T> entries, Placement placement)
        : entries_(std::move(entries)), placement_(placement)
    {}

    uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

    /** Bytes this table occupies on the PIM core. */
    uint32_t bytes() const { return size() * sizeof(T); }

    Placement placement() const { return placement_; }

    const std::vector<T>& host() const { return entries_; }

    /**
     * Copy the table into @p core at its configured placement. A store
     * may be attached to many cores, but its copy must land at the
     * same WRAM/MRAM offset on each: reads address every core's copy
     * through that one offset.
     * @throws std::bad_alloc when the memory region cannot hold it.
     * @throws std::logic_error when the copy would land at a different
     *         offset than on the cores attached before (the allocation
     *         on @p core stays; FunctionEvaluator::attach releases it).
     */
    void
    attach(sim::DpuCore& core)
    {
        uint32_t addr = 0;
        switch (placement_) {
          case Placement::Host:
            break;
          case Placement::Wram:
            addr = core.wramAlloc(bytes());
            break;
          case Placement::Mram:
            addr = core.mramAlloc(bytes());
            break;
        }
        if (attached_ && addr != addr_)
            throw std::logic_error(
                "LutStore::attach: table offset differs between cores");
        if (placement_ == Placement::Wram)
            std::memcpy(core.wramData() + addr, entries_.data(), bytes());
        else if (placement_ == Placement::Mram)
            core.hostWriteMram(addr, entries_.data(), bytes());
        attached_ = true;
        addr_ = addr;
    }

    /** True once attach() has run against a core. */
    bool attached() const { return attached_; }

    /**
     * Read entry @p index, charging the placement-specific cost
     * (sink-template; the batch path inlines it).
     * Out-of-range indices are a logic error in the calling method.
     */
    template <class S>
    T
    readT(uint32_t index, S& sink) const
    {
        if (index >= entries_.size())
            throw std::out_of_range("LutStore index");
        sink.note(OpClass::TableRead);
        if (!attached_ || placement_ == Placement::Host) {
            // Host-side evaluation: charge the WRAM-equivalent cost so
            // instruction counts stay comparable in pure-host tests.
            sink.charge(2);
            return entries_[index];
        }
        // A tasklet reads its own core's copy. A read with no tasklet
        // behind the sink (host-side evaluation of an attached table)
        // charges the placement's cost but reads the host copy, which
        // every core's copy was made from.
        sim::TaskletContext* ctx = lutTasklet(sink);
        if (placement_ == Placement::Wram) {
            // Address arithmetic plus one pipelined WRAM load.
            sink.charge(2);
            if (!ctx)
                return entries_[index];
            T value;
            std::memcpy(&value,
                        ctx->core().wramData() + addr_ +
                            index * sizeof(T),
                        sizeof(T));
            return value;
        }
        if (!ctx) {
            // No DMA model available: approximate the stall as
            // instructions so costs remain visible.
            sink.charge(8);
            return entries_[index];
        }
        // MRAM: issue an aligned DMA for the containing 8-byte blocks.
        uint32_t byteOff = addr_ + index * sizeof(T);
        uint32_t first = byteOff & ~7u;
        uint32_t last = (byteOff + sizeof(T) + 7u) & ~7u;
        alignas(8) unsigned char block[16 + sizeof(T)];
        ctx->mramRead(first, block, last - first);
        T value;
        std::memcpy(&value, block + (byteOff - first), sizeof(T));
        return value;
    }

    /**
     * Read entry @p index, charging the placement-specific cost.
     * Out-of-range indices are a logic error in the calling method.
     */
    T
    read(uint32_t index, InstrSink* sink) const
    {
        SinkRef s(sink);
        return readT(index, s);
    }

  private:
    std::vector<T> entries_;
    Placement placement_ = Placement::Host;
    bool attached_ = false;
    uint32_t addr_ = 0; ///< offset on every attached core
};

} // namespace transpim
} // namespace tpl

#endif // TPL_TRANSPIM_PLACEMENT_H
