#include "obs/trace.hh"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <numeric>

namespace pddl {
namespace obs {

Tracer::Tracer(size_t capacity) : capacity_(capacity)
{
    assert(capacity_ >= 1);
    ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void
Tracer::record(const TraceEvent &event)
{
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.push_back(event);
        return;
    }
    // Full: overwrite the oldest entry (flight-recorder policy).
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
}

void
Tracer::setLaneName(int tid, std::string name)
{
    for (auto &entry : lane_names_) {
        if (entry.first == tid) {
            entry.second = std::move(name);
            return;
        }
    }
    lane_names_.emplace_back(tid, std::move(name));
}

size_t
Tracer::size() const
{
    return ring_.size();
}

uint64_t
Tracer::dropped() const
{
    return recorded_ - ring_.size();
}

std::vector<TraceEvent>
Tracer::events() const
{
    // next_ is the oldest entry once the ring has wrapped.
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(next_ + i) % ring_.size()]);
    return out;
}

namespace {

const char *
phaseString(TraceEvent::Phase phase)
{
    switch (phase) {
      case TraceEvent::Phase::Complete: return "X";
      case TraceEvent::Phase::AsyncBegin: return "b";
      case TraceEvent::Phase::AsyncEnd: return "e";
      case TraceEvent::Phase::Instant: return "i";
      case TraceEvent::Phase::Counter: return "C";
    }
    return "i";
}

Json
eventJson(const TraceEvent &event)
{
    Json j = Json::object();
    j.set("name", event.name)
        .set("cat", *event.cat != '\0' ? event.cat : "sim")
        .set("ph", phaseString(event.phase))
        .set("pid", 0)
        .set("tid", event.tid)
        .set("ts", event.ts_ms * 1000.0);
    if (event.phase == TraceEvent::Phase::Complete)
        j.set("dur", event.dur_ms * 1000.0);
    if (event.phase == TraceEvent::Phase::AsyncBegin ||
        event.phase == TraceEvent::Phase::AsyncEnd ||
        event.phase == TraceEvent::Phase::Counter) {
        j.set("id", static_cast<int64_t>(event.id));
    }
    if (event.phase == TraceEvent::Phase::Instant)
        j.set("s", "t");
    if (event.num_args > 0) {
        Json args = Json::object();
        for (int a = 0; a < event.num_args; ++a) {
            const TraceArg &arg = event.args[a];
            if (arg.text != nullptr)
                args.set(arg.key, arg.text);
            else
                args.set(arg.key, arg.value);
        }
        j.set("args", std::move(args));
    }
    return j;
}

} // namespace

std::string
Tracer::chromeJson() const
{
    std::vector<TraceEvent> ordered = events();
    // Stable sort: equal timestamps keep recording order, so Begin/
    // End nesting survives and timestamps are monotone in the file.
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts_ms < b.ts_ms;
                     });

    Json trace_events = Json::array();
    for (const auto &lane : lane_names_) {
        Json meta = Json::object();
        Json args = Json::object();
        args.set("name", lane.second);
        meta.set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 0)
            .set("tid", lane.first)
            .set("args", std::move(args));
        trace_events.push(std::move(meta));
    }
    for (const TraceEvent &event : ordered)
        trace_events.push(eventJson(event));

    Json doc = Json::object();
    doc.set("displayTimeUnit", "ms")
        .set("recorded", static_cast<int64_t>(recorded_))
        .set("dropped", static_cast<int64_t>(dropped()))
        .set("traceEvents", std::move(trace_events));
    return doc.dump();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << chromeJson();
    return static_cast<bool>(out);
}

} // namespace obs
} // namespace pddl
