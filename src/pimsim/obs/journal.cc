/**
 * @file
 * Journal implementation: canonical JSONL serialization, exact
 * nearest-rank percentile extraction, SLO spec grammar + tracker.
 */

#include "pimsim/obs/journal.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

namespace tpl {
namespace obs {

namespace {

/**
 * Deterministic double → text: %.17g round-trips the exact binary
 * value and never depends on locale or stream state, so two journals
 * of the same modeled schedule serialize byte-identically.
 */
std::string
formatDouble(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

void
appendEventLine(std::ostringstream& out, const InternedEvent& ev,
                const std::vector<std::string>& strings)
{
    out << "{\"kind\": \"" << jsonEscape(strings[ev.kind]) << "\""
        << ", \"t\": " << formatDouble(ev.t)
        << ", \"dur\": " << formatDouble(ev.dur)
        << ", \"request\": " << ev.request
        << ", \"elements\": " << ev.elements;
    if (ev.wave != JournalEvent::kNoWave)
        out << ", \"wave\": " << ev.wave;
    if (ev.cycles != 0)
        out << ", \"cycles\": " << ev.cycles;
    if (ev.rank >= 0)
        out << ", \"rank\": " << ev.rank;
    if (ev.tenant != 0)
        out << ", \"tenant\": " << ev.tenant;
    if (ev.table != 0)
        out << ", \"table\": \"" << jsonEscape(strings[ev.table]) << "\"";
    if (ev.note != 0)
        out << ", \"note\": \"" << jsonEscape(strings[ev.note]) << "\"";
    out << "}\n";
}

void
appendLatencyLine(std::ostringstream& out, const InternedLatency& lat,
                  const std::vector<std::string>& strings)
{
    out << "{\"kind\": \"latency\""
        << ", \"request\": " << lat.request
        << ", \"table\": \"" << jsonEscape(strings[lat.table]) << "\""
        << ", \"elements\": " << lat.elements
        << ", \"waves\": " << lat.waves
        << ", \"complete\": " << (lat.complete ? "true" : "false")
        << ", \"arrival_s\": " << formatDouble(lat.arrivalSeconds)
        << ", \"first_scatter_s\": "
        << formatDouble(lat.firstScatterSeconds)
        << ", \"completed_s\": " << formatDouble(lat.completedSeconds)
        << ", \"queue_wait_s\": " << formatDouble(lat.queueWaitSeconds)
        << ", \"transfer_s\": " << formatDouble(lat.transferSeconds)
        << ", \"compute_s\": " << formatDouble(lat.computeSeconds)
        << ", \"stall_s\": " << formatDouble(lat.stallSeconds)
        << ", \"latency_s\": " << formatDouble(lat.latencySeconds())
        << "}\n";
}

} // namespace

uint32_t
Journal::internLocked(std::string_view s)
{
    if (s.empty())
        return 0;
    auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    const uint32_t id = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
}

uint32_t
Journal::intern(std::string_view s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return internLocked(s);
}

void
Journal::record(const JournalEvent& ev)
{
    if (!eventsEnabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    InternedEvent rec;
    rec.kind = internLocked(ev.kind);
    rec.table = internLocked(ev.table);
    rec.note = internLocked(ev.note);
    rec.rank = ev.rank;
    rec.t = ev.t;
    rec.dur = ev.dur;
    rec.request = ev.request;
    rec.wave = ev.wave;
    rec.elements = ev.elements;
    rec.cycles = ev.cycles;
    rec.tenant = ev.tenant;
    events_.push_back(rec);
}

void
Journal::record(const InternedEvent& ev)
{
    if (!eventsEnabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(ev);
}

void
Journal::recordLatency(const RequestLatency& lat)
{
    std::lock_guard<std::mutex> lock(mutex_);
    InternedLatency rec;
    rec.request = lat.request;
    rec.table = internLocked(lat.table);
    rec.complete = lat.complete;
    rec.elements = lat.elements;
    rec.waves = lat.waves;
    rec.arrivalSeconds = lat.arrivalSeconds;
    rec.firstScatterSeconds = lat.firstScatterSeconds;
    rec.completedSeconds = lat.completedSeconds;
    rec.queueWaitSeconds = lat.queueWaitSeconds;
    rec.transferSeconds = lat.transferSeconds;
    rec.computeSeconds = lat.computeSeconds;
    rec.stallSeconds = lat.stallSeconds;
    latencies_.push_back(rec);
}

void
Journal::recordLatency(const InternedLatency& lat)
{
    std::lock_guard<std::mutex> lock(mutex_);
    latencies_.push_back(lat);
}

std::vector<JournalEvent>
Journal::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JournalEvent> out(events_.size());
    for (size_t i = 0; i < events_.size(); ++i) {
        const InternedEvent& rec = events_[i];
        JournalEvent& ev = out[i];
        ev.kind = strings_[rec.kind];
        ev.t = rec.t;
        ev.dur = rec.dur;
        ev.request = rec.request;
        ev.wave = rec.wave;
        ev.elements = rec.elements;
        ev.cycles = rec.cycles;
        ev.rank = rec.rank;
        ev.tenant = rec.tenant;
        ev.table = strings_[rec.table];
        ev.note = strings_[rec.note];
    }
    return out;
}

std::vector<RequestLatency>
Journal::latencies() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RequestLatency> out(latencies_.size());
    for (size_t i = 0; i < latencies_.size(); ++i) {
        const InternedLatency& rec = latencies_[i];
        RequestLatency& lat = out[i];
        lat.request = rec.request;
        lat.table = strings_[rec.table];
        lat.elements = rec.elements;
        lat.waves = rec.waves;
        lat.complete = rec.complete;
        lat.arrivalSeconds = rec.arrivalSeconds;
        lat.firstScatterSeconds = rec.firstScatterSeconds;
        lat.completedSeconds = rec.completedSeconds;
        lat.queueWaitSeconds = rec.queueWaitSeconds;
        lat.transferSeconds = rec.transferSeconds;
        lat.computeSeconds = rec.computeSeconds;
        lat.stallSeconds = rec.stallSeconds;
    }
    return out;
}

LatencySummary
Journal::summarize(double makespanSeconds) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    LatencySummary s;
    std::vector<double> done;
    done.reserve(latencies_.size());
    double sum = 0.0;
    for (const auto& lat : latencies_) {
        if (!lat.complete) {
            ++s.incomplete;
            continue;
        }
        const double v = lat.latencySeconds();
        done.push_back(v);
        sum += v;
        if (v > s.max)
            s.max = v;
    }
    s.requests = done.size();
    if (done.empty())
        return s;
    std::sort(done.begin(), done.end());
    // Exact nearest-rank: the ceil(q*n)'th smallest recorded latency.
    auto rank = [&](double q) {
        uint64_t r = static_cast<uint64_t>(
            std::ceil(q * static_cast<double>(done.size())));
        if (r < 1)
            r = 1;
        if (r > done.size())
            r = done.size();
        return done[r - 1];
    };
    s.p50 = rank(0.50);
    s.p90 = rank(0.90);
    s.p99 = rank(0.99);
    s.p999 = rank(0.999);
    s.mean = sum / static_cast<double>(done.size());
    if (makespanSeconds > 0.0)
        s.requestsPerSecond =
            static_cast<double>(done.size()) / makespanSeconds;
    return s;
}

std::string
Journal::toJsonl() const
{
    std::vector<InternedEvent> evs;
    std::vector<InternedLatency> lats;
    std::vector<std::string> strings;
    // Each id's rank in string order, so events sort by kind text.
    std::vector<uint32_t> textRank;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        evs = events_;
        lats = latencies_;
        strings = strings_;
        textRank.assign(strings_.size(), 0); // "" sorts first
        uint32_t r = 1;
        for (const auto& entry : ids_)
            textRank[entry.second] = r++;
    }
    // Canonical order: events by (t, kind, request, wave, rank) —
    // modeled time first so the log reads causally; rank last so a
    // multi-rank run stays canonical when two ranks tie on everything
    // else; stable_sort keeps any residual ties in (deterministic
    // single-consumer) append order.
    std::stable_sort(evs.begin(), evs.end(),
                     [&](const InternedEvent& a, const InternedEvent& b) {
                         return std::tie(a.t, textRank[a.kind], a.request,
                                         a.wave, a.rank) <
                                std::tie(b.t, textRank[b.kind], b.request,
                                         b.wave, b.rank);
                     });
    std::stable_sort(lats.begin(), lats.end(),
                     [](const InternedLatency& a, const InternedLatency& b) {
                         return a.request < b.request;
                     });
    std::ostringstream out;
    for (const auto& ev : evs)
        appendEventLine(out, ev, strings);
    for (const auto& lat : lats)
        appendLatencyLine(out, lat, strings);
    return out.str();
}

bool
Journal::writeJsonl(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJsonl();
    return static_cast<bool>(out);
}

void
Journal::setEventsEnabled(bool enabled)
{
    eventsEnabled_.store(enabled, std::memory_order_relaxed);
}

bool
Journal::eventsEnabled() const
{
    return eventsEnabled_.load(std::memory_order_relaxed);
}

void
Journal::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    latencies_.clear();
}

bool
SloSpec::parse(const std::string& text, SloSpec& out)
{
    const char* p = text.c_str();
    if (*p != 'p' && *p != 'P')
        return false;
    ++p;
    char* end = nullptr;
    const double pct = std::strtod(p, &end);
    if (end == p || !(pct > 0.0) || !(pct < 100.0))
        return false;
    p = end;
    if (*p != '<' && *p != ':')
        return false;
    ++p;
    const double target = std::strtod(p, &end);
    if (end == p || !(target > 0.0))
        return false;
    p = end;
    double scale = 0.0;
    if (std::strcmp(p, "s") == 0)
        scale = 1.0;
    else if (std::strcmp(p, "ms") == 0)
        scale = 1e-3;
    else if (std::strcmp(p, "us") == 0)
        scale = 1e-6;
    else if (std::strcmp(p, "ns") == 0)
        scale = 1e-9;
    else
        return false;
    out.percentile = pct;
    out.targetSeconds = target * scale;
    return true;
}

std::string
SloSpec::toText() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "p%g<%gs", percentile, targetSeconds);
    return buf;
}

void
SloTracker::observe(const std::string& table, double latencySeconds,
                    bool complete)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tally& t = tallies_[table];
    if (complete && latencySeconds <= spec_.targetSeconds)
        ++t.good;
    else
        ++t.bad;
}

SloResult
SloTracker::finish(const std::string& table, const Tally& t) const
{
    SloResult r;
    r.table = table;
    r.good = t.good;
    r.bad = t.bad;
    const uint64_t total = t.good + t.bad;
    r.badFraction =
        total ? static_cast<double>(t.bad) / static_cast<double>(total)
              : 0.0;
    const double allowed = spec_.allowedBadFraction();
    // A p100-style spec has no error budget; any bad event burns
    // infinitely. Guard the division and saturate instead.
    if (allowed > 0.0)
        r.burnRate = r.badFraction / allowed;
    else
        r.burnRate = r.badFraction > 0.0 ? 1e9 : 0.0;
    r.met = r.burnRate <= 1.0;
    return r;
}

std::vector<SloResult>
SloTracker::results() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SloResult> out;
    out.reserve(tallies_.size());
    for (const auto& [table, t] : tallies_)
        out.push_back(finish(table, t));
    return out;
}

SloResult
SloTracker::total() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tally sum;
    for (const auto& [table, t] : tallies_) {
        sum.good += t.good;
        sum.bad += t.bad;
    }
    return finish("*", sum);
}

} // namespace obs
} // namespace tpl
