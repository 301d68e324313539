#include "fault/fault_scheduler.hh"

#include <algorithm>
#include <cassert>

#include "util/rng.hh"

namespace pddl {

FaultSchedule
FaultSchedule::draw(uint64_t seed, const FaultDrawParams &params)
{
    assert(params.disks >= 1 && params.horizon_ms > 0.0);
    FaultSchedule schedule;

    // One independent exponential process per disk per fault kind,
    // each with its own sub-seed so the timeline never depends on
    // draw order.
    for (int disk = 0; disk < params.disks; ++disk) {
        if (params.disk_mttf_ms > 0.0) {
            Rng rng(hashMix64(seed, 2 * disk + 1));
            SimTime at = rng.exponential(params.disk_mttf_ms);
            while (at < params.horizon_ms) {
                schedule.events.push_back(
                    {at, FaultEvent::Kind::DiskFailure, disk, 0});
                at += rng.exponential(params.disk_mttf_ms);
            }
        }
        if (params.latent_mtbe_ms > 0.0 && params.units_per_disk > 0) {
            Rng rng(hashMix64(seed, 2 * disk + 2));
            SimTime at = rng.exponential(params.latent_mtbe_ms);
            while (at < params.horizon_ms) {
                int64_t unit = static_cast<int64_t>(rng.below(
                    static_cast<uint64_t>(params.units_per_disk)));
                schedule.events.push_back(
                    {at, FaultEvent::Kind::LatentError, disk, unit});
                at += rng.exponential(params.latent_mtbe_ms);
            }
        }
    }
    std::sort(schedule.events.begin(), schedule.events.end());
    return schedule;
}

FaultScheduler::FaultScheduler(EventQueue &events,
                               FaultSchedule schedule, Options options)
    : events_(events), schedule_(std::move(schedule)),
      options_(std::move(options))
{
    assert(std::is_sorted(schedule_.events.begin(),
                          schedule_.events.end()) &&
           "fault timelines are time-ordered");
}

void
FaultScheduler::bindArray(ArrayController &array)
{
    assert(array_ == nullptr && "a scheduler binds one array, once");
    assert(array.mode() == ArrayMode::FaultFree &&
           "the lifecycle starts from a healthy array");
    array_ = &array;
    if (options_.scrub_interval_ms > 0.0) {
        scrubber_ = std::make_unique<Scrubber>(events_, *array_,
                                               options_.scrub_interval_ms);
    }
    array_->setMediumErrorHook(
        [this](int, int64_t) { ++stats_.latent_detected; });
}

void
FaultScheduler::start()
{
    assert(!started_ && "a scheduler plays its timeline once");
    assert(array_ != nullptr && "bindArray() before start()");
    started_ = true;
    for (const FaultEvent &event : schedule_.events) {
        events_.schedule(event.when, [this, event] {
            if (state_ == FaultState::DataLoss)
                return;
            if (event.kind == FaultEvent::Kind::DiskFailure)
                onFailure(event);
            else
                onLatent(event);
        });
    }
    if (scrubber_)
        scrubber_->start();
}

void
FaultScheduler::onFailure(const FaultEvent &event)
{
    // A failure of the disk that is already down changes nothing.
    if (array_->mode() != ArrayMode::FaultFree &&
        array_->failedDisk() == event.disk) {
        return;
    }

    switch (state_) {
      case FaultState::Rebuilding:
        declareDataLoss("second_failure_before_rebuild_complete");
        return;
      case FaultState::Restored:
        // The single distributed spare is already consumed.
        declareDataLoss("spare_exhausted");
        return;
      case FaultState::DataLoss:
        return;
      case FaultState::FaultFree:
        break;
    }

    ++stats_.failures_applied;
    const obs::Probe &probe = array_->config().probe;
    probe.lane(obs::kLaneFault, "faults");
    probe.count("fault.disk_failures");
    probe.instant("disk failure", "fault", obs::kLaneFault,
                  events_.now(),
                  {{"disk", static_cast<double>(event.disk)}});
    array_->transition(ArrayState::Degraded, event.disk);
    degraded_since_ = events_.now();
    setState(FaultState::Rebuilding);

    if (!array_->layout().hasSparing()) {
        // No spare space to rebuild into: the array stays degraded
        // (a replacement-disk copy is outside this model); a second
        // failure still means data loss.
        return;
    }
    engine_ = std::make_unique<ReconstructionEngine>(
        events_, *array_, event.disk, options_.rebuild_stripes,
        options_.rebuild_parallel);
    engine_->start([this, disk = event.disk] {
        if (state_ != FaultState::Rebuilding)
            return;
        stats_.rebuild_ms.add(engine_->durationMs());
        ++stats_.rebuilds_completed;
        degraded_total_ += events_.now() - degraded_since_;
        array_->transition(ArrayState::PostReconstruction, disk);
        setState(FaultState::Restored);
    });
}

void
FaultScheduler::onLatent(const FaultEvent &event)
{
    // The failed disk's media is gone; a latent error there is moot.
    if (array_->mode() != ArrayMode::FaultFree &&
        array_->failedDisk() == event.disk) {
        return;
    }
    ++stats_.latent_injected;
    array_->config().probe.count("fault.latent_injected");
    array_->injectLatentError(event.disk, event.unit);
}

void
FaultScheduler::declareDataLoss(const char *cause)
{
    if (state_ == FaultState::DataLoss)
        return;
    if (state_ == FaultState::Rebuilding)
        degraded_total_ += events_.now() - degraded_since_;
    stats_.data_loss = true;
    stats_.data_loss_ms = events_.now();
    stats_.data_loss_cause = cause;
    const obs::Probe &probe = array_->config().probe;
    probe.count("fault.data_loss");
    probe.instant("data loss", "fault", obs::kLaneFault,
                  events_.now(), {{"cause", cause}});
    if (engine_)
        engine_->cancel();
    if (scrubber_)
        scrubber_->stop();
    setState(FaultState::DataLoss);
}

void
FaultScheduler::setState(FaultState state)
{
    state_ = state;
    if (options_.on_state_change)
        options_.on_state_change(state_);
}

SimTime
FaultScheduler::degradedMs() const
{
    SimTime total = degraded_total_;
    if (state_ == FaultState::Rebuilding)
        total += events_.now() - degraded_since_;
    return total;
}

} // namespace pddl
