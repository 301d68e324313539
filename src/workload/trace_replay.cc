#include "workload/trace_replay.hh"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace pddl {

TraceReplayWorkload::TraceReplayWorkload(
    std::vector<traffic::TraceRecord> records, TraceReplayConfig config)
    : records_(std::move(records)), config_(config)
{
}

void
TraceReplayWorkload::start(EventQueue &events, Target &target)
{
    assert(events_ == nullptr && "a workload starts once");
    events_ = &events;
    target_ = &target;
    epoch_ms_ = events.now();
    const int64_t data_units = target.dataUnits();
    for (size_t i = 0; i < records_.size(); ++i) {
        const traffic::TraceRecord &record = records_[i];
        if (record.unit + record.units > data_units) {
            throw std::runtime_error(
                "trace record " + std::to_string(i + 1) +
                " reaches unit " +
                std::to_string(record.unit + record.units) +
                " but the target has " + std::to_string(data_units));
        }
    }
    if (!records_.empty())
        issueReady();
}

void
TraceReplayWorkload::issueReady()
{
    // Issue every record due now, then sleep until the next one; a
    // run of same-time records issues back-to-back in file order.
    while (next_ < records_.size()) {
        const traffic::TraceRecord &record = records_[next_];
        const double due = epoch_ms_ + record.when_ms;
        if (due > events_->now()) {
            events_->schedule(due, [this] { issueReady(); });
            return;
        }
        ++next_;
        const double issued = events_->now();
        ++outstanding_;
        if (outstanding_ > max_outstanding_)
            max_outstanding_ = outstanding_;
        target_->access(
            record.unit, record.units, record.type,
            [this, issued] {
                --outstanding_;
                ++completed_;
                const double response = events_->now() - issued;
                latency_.add(response);
                if (config_.latency != nullptr)
                    config_.latency->add(response);
            });
    }
}

} // namespace pddl
