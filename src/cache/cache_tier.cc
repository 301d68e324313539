#include "cache/cache_tier.hh"

#include <cassert>
#include <utility>

namespace pddl {
namespace cache {

CacheTier::CacheTier(EventQueue &events, Target &backend,
                     CacheConfig config)
    : events_(events), backend_(backend), config_(config),
      // Every dirty unit is a resident line.
      dirty_(backend.dataUnits(), config.capacity_units)
{
    assert(config_.ways >= 1);
    assert(config_.capacity_units >= config_.ways);
    assert(config_.capacity_units % config_.ways == 0);
    assert(config_.hit_ms >= 0.0);
    assert(config_.max_run_units >= 1);
    assert(config_.destage_width >= 1);
    assert(config_.low_water >= 0.0 &&
           config_.low_water < config_.high_water &&
           config_.high_water <= 1.0);
    sets_ = config_.capacity_units / config_.ways;
    high_units_ = static_cast<int64_t>(
        config_.high_water * static_cast<double>(config_.capacity_units));
    if (high_units_ < 1)
        high_units_ = 1;
    low_units_ = static_cast<int64_t>(
        config_.low_water * static_cast<double>(config_.capacity_units));
    if (low_units_ >= high_units_)
        low_units_ = high_units_ - 1;
    lines_.resize(static_cast<size_t>(config_.capacity_units));
    tags_.assign(static_cast<size_t>(config_.capacity_units), -1);
}

CacheTier::Line *
CacheTier::find(int64_t unit)
{
    const size_t base = static_cast<size_t>((unit % sets_) * config_.ways);
    const int64_t *tags = &tags_[base];
    for (int w = 0; w < config_.ways; ++w) {
        if (tags[w] == unit)
            return &lines_[base + static_cast<size_t>(w)];
    }
    return nullptr;
}

CacheTier::Line &
CacheTier::allocate(int64_t unit)
{
    const size_t base = static_cast<size_t>((unit % sets_) * config_.ways);
    Line *set = &lines_[base];
    int64_t *tags = &tags_[base];
    int victim = -1;
    for (int w = 0; w < config_.ways; ++w) {
        if (tags[w] < 0) {
            victim = w;
            break;
        }
    }
    if (victim < 0) {
        // Prefer the LRU clean line (in-flight destages are clean:
        // their data is already captured by the backend write).
        for (int w = 0; w < config_.ways; ++w) {
            if (set[w].dirty)
                continue;
            if (victim < 0 || set[w].last_use < set[victim].last_use)
                victim = w;
        }
        if (victim >= 0) {
            ++stats_.evictions_clean;
            config_.probe.count("cache.evict_clean");
        } else {
            // Every way is dirty: the victim needs its own writeback.
            // Issue it fire-and-forget -- the line's data rides in
            // the in-flight write -- and reuse the line immediately.
            for (int w = 0; w < config_.ways; ++w) {
                if (victim < 0 || set[w].last_use < set[victim].last_use)
                    victim = w;
            }
            dirty_.erase(tags[victim]);
            --dirty_units_;
            ++stats_.evictions_dirty;
            config_.probe.count("cache.evict_dirty");
            backend_.access(tags[victim], 1, AccessType::Write, [] {});
        }
    }
    tags[victim] = unit;
    Line &line = set[victim];
    line.dirty = false;
    touch(line);
    return line;
}

void
CacheTier::markDirty(Line &line, int64_t unit)
{
    if (line.dirty)
        return;
    line.dirty = true;
    dirty_.insert(unit);
    ++dirty_units_;
}

void
CacheTier::installRange(int64_t start, int count)
{
    for (int64_t unit = start; unit < start + count; ++unit) {
        Line *line = find(unit);
        if (line != nullptr)
            touch(*line);
        else
            allocate(unit);
    }
}

void
CacheTier::access(int64_t start_unit, int count, AccessType type,
                  InlineCallback done)
{
    assert(start_unit >= 0 && count >= 1 &&
           start_unit + count <= dataUnits());
    ++accesses_;
    if (type == AccessType::Write &&
        (!stalled_.empty() || dirty_units_ >= high_units_)) {
        // The dirty budget is spent: park the write (FIFO, behind any
        // earlier stalls) until the pump makes room. Its completion
        // fires hit_ms after release, so the stall is client-visible
        // latency.
        ++stats_.write_stalls;
        config_.probe.count("cache.write_stall");
        stalled_.push_back({start_unit, count, std::move(done)});
        maybePump();
        return;
    }
    if (type == AccessType::Read)
        serveRead(start_unit, count, std::move(done));
    else
        serveWrite(start_unit, count, std::move(done));
}

void
CacheTier::serveRead(int64_t start, int count, InlineCallback done)
{
    bool miss = false;
    for (int64_t unit = start; unit < start + count; ++unit) {
        Line *line = find(unit);
        if (line != nullptr)
            touch(*line);
        else
            miss = true;
    }
    if (!miss) {
        ++stats_.read_hits;
        config_.probe.count("cache.read_hit");
        events_.scheduleAfter(config_.hit_ms, std::move(done));
        return;
    }
    // Read-allocate: fetch the whole access (partial hits refetch the
    // hit units too -- one backend access, not a scatter of holes),
    // install on completion.
    ++stats_.read_misses;
    config_.probe.count("cache.read_miss");
    uint32_t slot = free_read_miss_;
    if (slot != kNilReadMiss) {
        free_read_miss_ = read_misses_[slot].next_free;
    } else {
        slot = static_cast<uint32_t>(read_misses_.size());
        read_misses_.emplace_back();
    }
    ReadMiss &wait = read_misses_[slot];
    wait.start = start;
    wait.count = count;
    wait.done = std::move(done);
    backend_.access(start, count, AccessType::Read,
                    [this, slot] { readMissComplete(slot); });
}

void
CacheTier::readMissComplete(uint32_t slot)
{
    ReadMiss &wait = read_misses_[slot];
    const int64_t start = wait.start;
    const int count = wait.count;
    InlineCallback finish = std::move(wait.done);
    wait.next_free = free_read_miss_;
    free_read_miss_ = slot;
    installRange(start, count);
    finish();
}

void
CacheTier::serveWrite(int64_t start, int count, InlineCallback done)
{
    for (int64_t unit = start; unit < start + count; ++unit) {
        Line *line = find(unit);
        if (line == nullptr)
            line = &allocate(unit);
        else
            touch(*line);
        // A write during a destage flight just re-dirties the line;
        // the in-flight backend write carries the older data.
        markDirty(*line, unit);
    }
    ++stats_.writes_absorbed;
    config_.probe.count("cache.write_absorb");
    events_.scheduleAfter(config_.hit_ms, std::move(done));
    maybePump();
}

void
CacheTier::maybePump()
{
    if (!pump_active_ && dirty_units_ >= high_units_)
        pump_active_ = true;
    pump();
}

void
CacheTier::pump()
{
    if (pump_active_) {
        // dirty_units_ > low_units_ >= 0, so there is a run to issue.
        while (destage_in_flight_ < config_.destage_width &&
               dirty_units_ > low_units_)
            issueRun();
        if (dirty_units_ <= low_units_)
            pump_active_ = false;
    }
    releaseStalled();
}

void
CacheTier::issueRun()
{
    // Resume the scan where the last run ended (round-robin over the
    // ordered dirty set, wrapping to its least unit), then coalesce
    // the consecutive dirty units that follow into one contiguous
    // backend write.
    int64_t run_start = dirty_.lowerBound(cursor_);
    if (run_start == SparseBitmap::kNone)
        run_start = dirty_.lowerBound(0);
    assert(run_start != SparseBitmap::kNone);
    int64_t expect = run_start;
    int run_len = 0;
    while (run_len < config_.max_run_units) {
        Line *line = find(expect);
        if (line == nullptr || !line->dirty)
            break;
        // Clean at issue: the write owns this version of the data.
        line->dirty = false;
        dirty_.erase(expect);
        --dirty_units_;
        ++run_len;
        ++expect;
    }
    cursor_ = expect;
    ++stats_.destage_runs;
    stats_.destage_units += run_len;
    config_.probe.count("cache.destage_run");
    config_.probe.count("cache.destage_units",
                        static_cast<double>(run_len));
    ++destage_in_flight_;
    backend_.access(run_start, run_len, AccessType::Write, [this] {
        --destage_in_flight_;
        pump();
    });
}

void
CacheTier::releaseStalled()
{
    // serveWrite -> maybePump -> here can re-enter while the loop
    // below is already draining; the guard keeps release strictly
    // FIFO and the stack flat.
    if (releasing_)
        return;
    releasing_ = true;
    while (!stalled_.empty() && dirty_units_ < high_units_) {
        StalledWrite write = std::move(stalled_.front());
        stalled_.pop_front();
        serveWrite(write.start, write.count, std::move(write.done));
    }
    releasing_ = false;
}

double
CacheTier::hitRate() const
{
    const int64_t reads = stats_.read_hits + stats_.read_misses;
    if (reads == 0)
        return 0.0;
    return static_cast<double>(stats_.read_hits) /
           static_cast<double>(reads);
}

} // namespace cache
} // namespace pddl
