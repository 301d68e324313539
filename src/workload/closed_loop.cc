#include "workload/closed_loop.hh"

#include <cassert>
#include <cstddef>

#include "sim/event_queue.hh"

namespace pddl {

ClosedLoopClient::ClosedLoopClient(ClosedLoopConfig config)
    : config_(config), rng_(config.seed)
{
    assert(config_.clients >= 0 && config_.access_units >= 1);
}

bool
ClosedLoopClient::finished()
{
    if (done_)
        return true;
    if (response_.count() >= config_.max_samples ||
        response_.converged(config_.relative_tolerance, 1.96,
                            config_.min_samples)) {
        done_ = true;
    }
    return done_;
}

void
ClosedLoopClient::issueOne()
{
    int64_t span = target_->dataUnits() - config_.access_units;
    assert(span >= 0);
    int64_t start = offsets_->sample(rng_, span);
    SimTime issued = events_->now();
    target_->access(start, config_.access_units, config_.type,
                    [this, issued] {
                        ++completions_;
                        if (completions_ == config_.warmup) {
                            measuring_ = true;
                            measure_start_ = events_->now();
                            tally_at_start_ = target_->aggregateTally();
                            accesses_at_start_ = static_cast<int64_t>(
                                target_->accessesIssued());
                        } else if (measuring_) {
                            double response = events_->now() - issued;
                            response_.add(response);
                            if (config_.latency != nullptr)
                                config_.latency->add(response);
                            config_.probe.observe("client.latency_ms",
                                                  response);
                            measure_end_ = events_->now();
                        }
                        if (finished())
                            return;
                        if (config_.think_time_ms > 0.0) {
                            events_->scheduleAfter(
                                config_.think_time_ms,
                                [this] { issueOne(); });
                        } else {
                            issueOne();
                        }
                    });
}

void
ClosedLoopClient::start(EventQueue &events, Target &target)
{
    assert(events_ == nullptr && "a workload starts once");
    events_ = &events;
    target_ = &target;
    offsets_.emplace(config_.offsets, target.dataUnits());
    if (config_.warmup <= 0)
        measuring_ = true;
    for (int c = 0; c < config_.clients; ++c)
        issueOne();
}

SimResult
ClosedLoopClient::result() const
{
    assert(events_ != nullptr && "result() follows a started run");
    SimResult result;
    result.mean_response_ms = response_.mean();
    result.ci_half_width_ms = response_.confidenceHalfWidth();
    result.samples = response_.count();
    // The window closes at the last measured completion, not at
    // drain time: background machinery (a shard rebuild, a fault
    // timeline) may keep simulated time advancing long after the
    // population stopped.
    SimTime elapsed = measure_end_ - measure_start_;
    if (elapsed > 0.0) {
        result.throughput_per_s =
            static_cast<double>(result.samples) / (elapsed / 1000.0);
    }
    SeekTally tally = target_->aggregateTally();
    int64_t accesses = static_cast<int64_t>(target_->accessesIssued()) -
                       accesses_at_start_;
    if (accesses > 0) {
        double denom = static_cast<double>(accesses);
        result.non_local_seeks =
            static_cast<double>(tally.non_local -
                                tally_at_start_.non_local) /
            denom;
        result.cylinder_switches =
            static_cast<double>(tally.cylinder_switch -
                                tally_at_start_.cylinder_switch) /
            denom;
        result.track_switches =
            static_cast<double>(tally.track_switch -
                                tally_at_start_.track_switch) /
            denom;
        result.no_switches =
            static_cast<double>(tally.no_switch -
                                tally_at_start_.no_switch) /
            denom;
    }
    return result;
}

} // namespace pddl
