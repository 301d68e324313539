#include "workload/open_loop.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "sim/event_queue.hh"

namespace pddl {

OpenLoopClient::OpenLoopClient(OpenLoopConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
    assert(config_.arrivals_per_s > 0.0);
    if (config_.mix.empty())
        config_.mix.push_back(AccessMixEntry{1, AccessType::Read, 1.0});
    for (const AccessMixEntry &entry : config_.mix) {
        assert(entry.units >= 1 && entry.weight >= 0.0);
        total_weight_ += entry.weight;
    }
    assert(total_weight_ > 0.0);
    arrival_.emplace(config_.arrival, config_.arrivals_per_s);
}

void
OpenLoopClient::arrive()
{
    const int64_t total_arrivals = config_.warmup + config_.samples;
    if (arrivals_ >= total_arrivals)
        return;
    int64_t index = arrivals_++;

    double pick = rng_.uniform() * total_weight_;
    const AccessMixEntry *chosen = &config_.mix.back();
    for (const AccessMixEntry &entry : config_.mix) {
        if (pick < entry.weight) {
            chosen = &entry;
            break;
        }
        pick -= entry.weight;
    }

    int64_t span = target_->dataUnits() - chosen->units;
    int64_t start = offsets_->sample(rng_, span);
    SimTime issued = events_->now();
    ++outstanding_;
    max_outstanding_ = std::max(max_outstanding_, outstanding_);
    target_->access(start, chosen->units, chosen->type,
                    [this, index, issued] {
                        --outstanding_;
                        if (index == config_.warmup)
                            measure_start_ = events_->now();
                        if (index >= config_.warmup) {
                            double response = events_->now() - issued;
                            ++measured_;
                            response_sum_ += response;
                            if (config_.latency != nullptr)
                                config_.latency->add(response);
                            config_.probe.observe("client.latency_ms",
                                                  response);
                            last_completion_ = events_->now();
                        }
                    });
    events_->scheduleAfter(arrival_->nextGapMs(rng_, events_->now()),
                           [this] { arrive(); });
}

void
OpenLoopClient::start(EventQueue &events, Target &target)
{
    assert(events_ == nullptr && "a workload starts once");
    events_ = &events;
    target_ = &target;
    offsets_.emplace(config_.offsets, target.dataUnits());
    events_->scheduleAfter(arrival_->nextGapMs(rng_, events_->now()),
                           [this] { arrive(); });
}

OpenLoopResult
OpenLoopClient::result() const
{
    assert(events_ != nullptr && "result() follows a started run");
    OpenLoopResult result;
    result.samples = measured_;
    result.max_outstanding = max_outstanding_;
    if (measured_ > 0) {
        result.mean_response_ms =
            response_sum_ / static_cast<double>(measured_);
        double window = last_completion_ - measure_start_;
        if (window > 0.0) {
            result.completed_per_s =
                static_cast<double>(measured_) / (window / 1000.0);
        }
    }
    return result;
}

} // namespace pddl
