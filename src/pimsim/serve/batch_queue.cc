/**
 * @file
 * BatchQueue implementation.
 */

#include "pimsim/serve/batch_queue.h"

#include "pimsim/obs/journal.h"

#include <algorithm>

namespace tpl {
namespace sim {
namespace serve {

uint64_t
BatchQueue::push(Request request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return 0;
    request.id = nextId_++;
    ++totalPushed_;
    uint64_t id = request.id;
    if (journal_ && journal_->eventsEnabled()) {
        obs::InternedEvent ev;
        ev.kind = enqueueKind_;
        ev.t = request.arrivalSeconds;
        ev.request = id;
        ev.elements = request.elements;
        ev.tenant = request.tenant;
        ev.table = journal_->intern(request.table.label);
        journal_->record(ev);
    }
    ++depth_;
    queuedElements_ += request.elements;
    auto [lane, created] = lanes_.try_emplace(
        LaneKey{request.table.hash, request.tenant});
    if (created)
        heads_.emplace(id, lane);
    lane->second.push_back(std::move(request));
    cv_.notify_one();
    return id;
}

void
BatchQueue::setJournal(obs::Journal* journal)
{
    std::lock_guard<std::mutex> lock(mutex_);
    journal_ = journal;
    enqueueKind_ = journal ? journal->intern("enqueue") : 0;
}

void
BatchQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
}

bool
BatchQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

size_t
BatchQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_;
}

uint64_t
BatchQueue::queuedElements() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queuedElements_;
}

uint64_t
BatchQueue::oldestId() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return heads_.empty() ? nextId_ : heads_.begin()->first;
}

uint64_t
BatchQueue::totalPushed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalPushed_;
}

std::optional<Wave>
BatchQueue::popWave(uint64_t maxElements)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !heads_.empty() || closed_; });
    if (heads_.empty())
        return std::nullopt;

    // The lane holding the oldest request chooses the wave's table
    // and tenant; requests of other lanes are never touched.
    const Lanes::iterator laneIt = heads_.begin()->second;
    heads_.erase(heads_.begin());
    std::deque<Request>& lane = laneIt->second;

    const uint64_t budget = std::max<uint64_t>(maxElements, 1);
    Wave wave;
    wave.table = lane.front().table;
    wave.tenant = lane.front().tenant;

    // Drain the lane in arrival order until the budget is spent.
    // Zero-element requests are closed for free; a request larger
    // than the remaining budget is consumed partially, its spans
    // advance in place and it stays at the head of its lane.
    uint64_t taken = 0;
    while (!lane.empty()) {
        Request& r = lane.front();
        if (r.elements == 0) {
            ++wave.requestsClosed;
            --depth_;
            lane.pop_front();
            continue;
        }
        if (taken == budget)
            break;
        uint64_t take = std::min(r.elements, budget - taken);
        const bool wholeTail = take == r.elements;
        wave.items.push_back(
            {r.id, r.input, r.output, take, r.arrivalSeconds, wholeTail});
        taken += take;
        queuedElements_ -= take;
        if (wholeTail) {
            ++wave.requestsClosed;
            --depth_;
            lane.pop_front();
            continue;
        }
        r.input += take;
        r.output += take;
        r.elements -= take;
        // The budget is spent, but the zero-element requests queued
        // directly behind the partial head still close in this wave.
        const auto behind = lane.begin() + 1;
        auto zerosEnd = behind;
        while (zerosEnd != lane.end() && zerosEnd->elements == 0)
            ++zerosEnd;
        const size_t zeros = static_cast<size_t>(zerosEnd - behind);
        lane.erase(behind, zerosEnd);
        wave.requestsClosed += static_cast<uint32_t>(zeros);
        depth_ -= zeros;
        break;
    }
    if (lane.empty())
        lanes_.erase(laneIt);
    else
        heads_.emplace(lane.front().id, laneIt);
    return wave;
}

} // namespace serve
} // namespace sim
} // namespace tpl
