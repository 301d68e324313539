#include "obs/metrics.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string_view>

namespace pddl {
namespace obs {

const std::vector<double> &
defaultLatencyBoundsMs()
{
    // Log-spaced 1-2-5 decades covering queue waits through whole
    // rebuild-scale latencies; the last slot of counts[] catches
    // everything above 2 s.
    static const std::vector<double> bounds = {
        0.25, 0.5, 1.0,   2.0,   5.0,   10.0,  20.0,
        50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0};
    return bounds;
}

HistogramData::HistogramData(std::vector<double> bounds_ms)
    : bounds(std::move(bounds_ms)), counts(bounds.size() + 1, 0)
{
    assert(std::is_sorted(bounds.begin(), bounds.end()));
}

void
HistogramData::add(double value_ms)
{
    const size_t bucket =
        std::upper_bound(bounds.begin(), bounds.end(), value_ms) -
        bounds.begin();
    ++counts[bucket];
    if (count == 0) {
        min = value_ms;
        max = value_ms;
    } else {
        min = std::min(min, value_ms);
        max = std::max(max, value_ms);
    }
    ++count;
    sum += value_ms;
}

void
HistogramData::merge(const HistogramData &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        *this = other;
        return;
    }
    assert(bounds == other.bounds && "histograms share fixed buckets");
    for (size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
}

double
HistogramData::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Target cumulative rank in (0, count]; q == 0 pins to min.
    const double rank = q * static_cast<double>(count);
    if (rank <= 0.0)
        return min;
    int64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += counts[i];
        if (static_cast<double>(cumulative) < rank)
            continue;
        // The rank lands in bucket i, which spans (bounds[i-1],
        // bounds[i]] (the overflow bucket reaches max). Interpolate
        // linearly within the bucket, clamped to the observed
        // extremes: samples can only live in [min, max], and the
        // estimate must too.
        double lower = i == 0 ? min : bounds[i - 1];
        double upper = i < bounds.size() ? bounds[i] : max;
        lower = std::max(lower, min);
        upper = std::min(upper, max);
        if (upper < lower)
            upper = lower;
        const double fraction =
            (rank - before) / static_cast<double>(counts[i]);
        return lower + (upper - lower) * fraction;
    }
    return max;
}

Json
HistogramData::toJson() const
{
    Json buckets = Json::array();
    for (int64_t c : counts)
        buckets.push(c);
    Json le = Json::array();
    for (double b : bounds)
        le.push(b);
    Json j = Json::object();
    j.set("count", count)
        .set("sum", sum)
        .set("min", min)
        .set("max", max)
        .set("le", std::move(le))
        .set("buckets", std::move(buckets));
    return j;
}

namespace {

template <typename T>
const T *
find(const std::vector<std::pair<std::string, T>> &entries,
     const std::string &name)
{
    for (const auto &entry : entries) {
        if (entry.first == name)
            return &entry.second;
    }
    return nullptr;
}

template <typename T>
void
mergeSorted(std::vector<std::pair<std::string, T>> &into,
            const std::vector<std::pair<std::string, T>> &from,
            void (*fold)(T &, const T &))
{
    std::map<std::string, T> merged(into.begin(), into.end());
    for (const auto &entry : from) {
        auto [it, inserted] = merged.emplace(entry.first, entry.second);
        if (!inserted)
            fold(it->second, entry.second);
    }
    into.assign(merged.begin(), merged.end());
}

} // namespace

double
MetricsSnapshot::counter(const std::string &name) const
{
    const double *value = find(counters, name);
    return value != nullptr ? *value : 0.0;
}

double
MetricsSnapshot::gauge(const std::string &name) const
{
    const double *value = find(gauges, name);
    return value != nullptr ? *value : 0.0;
}

const HistogramData *
MetricsSnapshot::histogram(const std::string &name) const
{
    return find(histograms, name);
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    mergeSorted<double>(counters, other.counters,
                        [](double &a, const double &b) { a += b; });
    mergeSorted<double>(gauges, other.gauges,
                        [](double &a, const double &b) {
                            a = std::max(a, b);
                        });
    mergeSorted<HistogramData>(histograms, other.histograms,
                               [](HistogramData &a,
                                  const HistogramData &b) {
                                   a.merge(b);
                               });
}

Json
MetricsSnapshot::toJson() const
{
    Json counter_obj = Json::object();
    for (const auto &entry : counters)
        counter_obj.set(entry.first, entry.second);
    Json gauge_obj = Json::object();
    for (const auto &entry : gauges)
        gauge_obj.set(entry.first, entry.second);
    Json histogram_obj = Json::object();
    for (const auto &entry : histograms)
        histogram_obj.set(entry.first, entry.second.toJson());
    Json j = Json::object();
    j.set("counters", std::move(counter_obj))
        .set("gauges", std::move(gauge_obj))
        .set("histograms", std::move(histogram_obj));
    return j;
}

namespace {

constexpr size_t kInitialSlots = 64;

size_t
slotOf(const char *name, size_t mask)
{
    // Fibonacci hashing of the address: literals are only byte
    // aligned, so every bit of the pointer must take part.
    const uint64_t hash =
        reinterpret_cast<uintptr_t>(name) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(hash >> 32) & mask;
}

} // namespace

uint32_t
MetricsRegistry::NameIndex::resolve(const char *name, bool &created)
{
    created = false;
    const size_t mask = slots_.size() - 1;
    for (size_t i = slotOf(name, mask); !slots_.empty();
         i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.key == nullptr)
            break;
        if (slot.key != name)
            continue;
        if (std::strcmp(name, names_[slot.id]->c_str()) == 0)
            return slot.id;
        // The address was recycled for different text: rebind it.
        slot.id = intern(name, created);
        return slot.id;
    }
    const uint32_t id = intern(name, created);
    remember(name, id);
    return id;
}

uint32_t
MetricsRegistry::NameIndex::intern(const char *name, bool &created)
{
    auto it = by_text_.find(std::string_view(name));
    if (it != by_text_.end())
        return it->second;
    const auto id = static_cast<uint32_t>(names_.size());
    it = by_text_.emplace(name, id).first;
    names_.push_back(&it->first);
    created = true;
    return id;
}

void
MetricsRegistry::NameIndex::remember(const char *name, uint32_t id)
{
    if (2 * (used_ + 1) > slots_.size()) {
        // Half full. Mostly stale addresses (callers that build names
        // in transient buffers) just start over -- every name stays
        // resolvable by content -- otherwise the table doubles.
        std::vector<Slot> old;
        old.swap(slots_);
        const bool stale = old.size() >= 8 * (names_.size() + 8);
        slots_.assign(stale ? kInitialSlots
                            : std::max(kInitialSlots, 2 * old.size()),
                      Slot{});
        used_ = 0;
        if (!stale) {
            for (const Slot &slot : old) {
                if (slot.key != nullptr)
                    remember(slot.key, slot.id);
            }
        }
    }
    const size_t mask = slots_.size() - 1;
    size_t i = slotOf(name, mask);
    while (slots_[i].key != nullptr)
        i = (i + 1) & mask;
    slots_[i] = {name, id};
    ++used_;
}

void
MetricsRegistry::add(const char *name, double delta)
{
    bool created = false;
    const uint32_t id = counter_ids_.resolve(name, created);
    if (created)
        counters_.push_back(0.0);
    counters_[id] += delta;
}

void
MetricsRegistry::gaugeMax(const char *name, double value)
{
    bool created = false;
    const uint32_t id = gauge_ids_.resolve(name, created);
    if (created)
        gauges_.push_back(value);
    else
        gauges_[id] = std::max(gauges_[id], value);
}

void
MetricsRegistry::observe(const char *name, double value_ms)
{
    bool created = false;
    const uint32_t id = histogram_ids_.resolve(name, created);
    if (created) {
        histograms_.emplace_back(histogram_bounds_.empty()
                                     ? defaultLatencyBoundsMs()
                                     : histogram_bounds_);
    }
    histograms_[id].add(value_ms);
}

void
MetricsRegistry::setHistogramBounds(std::vector<double> bounds)
{
    assert(std::is_sorted(bounds.begin(), bounds.end()));
    histogram_bounds_ = std::move(bounds);
}

namespace {

/** One series kind as a name-sorted (name, value) list. */
template <typename T, typename Index>
std::vector<std::pair<std::string, T>>
sortedSeries(const Index &index, const std::vector<T> &values)
{
    std::vector<std::pair<std::string, T>> series;
    series.reserve(values.size());
    for (const auto &[name, id] : index.byName())
        series.emplace_back(name, values[id]);
    return series;
}

} // namespace

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    snap.counters = sortedSeries(counter_ids_, counters_);
    snap.gauges = sortedSeries(gauge_ids_, gauges_);
    snap.histograms = sortedSeries(histogram_ids_, histograms_);
    return snap;
}

} // namespace obs
} // namespace pddl
