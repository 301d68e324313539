#include "fault/reliability.hh"

#include <cassert>
#include <functional>
#include <memory>
#include <utility>

#include "util/rng.hh"

namespace pddl {

ReliabilityTrialResult
runReliabilityTrial(const Layout &layout, const DeviceModel &device,
                    const ReliabilityTrialConfig &config)
{
    assert(config.mission_ms > 0.0 && config.clients >= 0);

    EventQueue events;
    ArrayConfig array_config;
    array_config.unit_sectors = config.unit_sectors;
    array_config.sstf_window = config.sstf_window;
    ArrayController array(events, layout, device, array_config);

    // Latent errors land on rows the client stripes cover, i.e. the
    // region the scrubber sweeps (spare rows stay pristine until a
    // rebuild populates them).
    int64_t rows_per_disk = array.dataUnits() /
                            layout.dataUnitsPerPeriod() *
                            layout.unitsPerDiskPerPeriod();

    FaultDrawParams draw;
    draw.horizon_ms = config.mission_ms;
    draw.disks = layout.numDisks();
    draw.disk_mttf_ms = config.disk_mttf_ms;
    draw.latent_mtbe_ms = config.latent_mtbe_ms;
    draw.units_per_disk = rows_per_disk;
    FaultSchedule schedule =
        FaultSchedule::draw(hashMix64(config.seed, 0xfa01), draw);

    bool stopped = false;
    FaultScheduler::Options options;
    options.rebuild_parallel = config.rebuild_parallel;
    options.rebuild_stripes = config.rebuild_stripes;
    options.scrub_interval_ms = config.scrub_interval_ms;
    options.on_state_change = [&stopped](FaultState state) {
        if (state == FaultState::DataLoss)
            stopped = true;
    };
    FaultScheduler scheduler(events, array, std::move(schedule),
                             std::move(options));

    ReliabilityTrialResult result;
    Rng rng(hashMix64(config.seed, 0xc11e));
    std::function<void()> client = [&] {
        if (stopped)
            return;
        int64_t span = array.dataUnits() - config.access_units;
        int64_t start = static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(span + 1)));
        bool degraded = scheduler.state() == FaultState::Rebuilding;
        SimTime issued = events.now();
        array.access(start, config.access_units, config.type,
                     [&, degraded, issued] {
                         SimTime took = events.now() - issued;
                         result.response_ms.add(took);
                         if (degraded)
                             result.degraded_response_ms.add(took);
                         client();
                     });
    };

    scheduler.start();
    for (int c = 0; c < config.clients; ++c)
        client();
    events.runUntil(config.mission_ms);

    const FaultStats &stats = scheduler.stats();
    result.data_loss = stats.data_loss;
    result.data_loss_ms = stats.data_loss_ms;
    result.data_loss_cause = stats.data_loss_cause;
    result.final_state = scheduler.state();
    result.failures_applied = stats.failures_applied;
    result.rebuilds_completed = stats.rebuilds_completed;
    result.rebuild_ms = stats.rebuild_ms;
    result.degraded_ms = scheduler.degradedMs();
    result.latent_injected = stats.latent_injected;
    result.latent_detected = stats.latent_detected;
    if (const Scrubber *scrubber = scheduler.scrubber()) {
        result.scrub_repairs = scrubber->errorsRepaired();
        result.scrub_units_scanned = scrubber->unitsScanned();
    }
    result.simulated_ms =
        stats.data_loss ? stats.data_loss_ms : config.mission_ms;
    return result;
}

std::vector<harness::Experiment>
buildReliabilityExperiments(const ReliabilityGridConfig &grid,
                            const DeviceModel &device)
{
    std::vector<harness::Experiment> experiments;
    experiments.reserve(grid.cells.size());
    for (const ReliabilityCell &cell : grid.cells) {
        assert(cell.layout != nullptr);
        harness::Experiment experiment;
        // The cell's sweep coordinates feed the layout label so that
        // every cell derives a distinct, stable seed.
        std::string label = cell.layout->name() + "/mttf=" +
                            std::to_string(static_cast<long long>(
                                cell.disk_mttf_ms)) +
                            "ms/par=" +
                            std::to_string(cell.rebuild_parallel);
        experiment.point = {grid.figure, label,
                            grid.base.access_units * 8,
                            grid.base.clients, grid.base.type,
                            ArrayMode::FaultFree};
        experiment.run = [cell, &device, trials = grid.trials,
                          base = grid.base](uint64_t seed,
                                            const obs::Probe &,
                                            harness::Extras &extras) {
            Welford response, degraded_response, rebuild_ms;
            double losses = 0.0, failures = 0.0, rebuilds = 0.0;
            double degraded_ms = 0.0, simulated_ms = 0.0;
            double latent_injected = 0.0, latent_detected = 0.0;
            double scrub_repairs = 0.0, scrub_units = 0.0;
            for (int t = 0; t < trials; ++t) {
                ReliabilityTrialConfig config = base;
                config.disk_mttf_ms = cell.disk_mttf_ms;
                config.rebuild_parallel = cell.rebuild_parallel;
                config.seed = hashMix64(seed, t + 1);
                ReliabilityTrialResult trial = runReliabilityTrial(
                    *cell.layout, device, config);
                response.merge(trial.response_ms);
                degraded_response.merge(trial.degraded_response_ms);
                rebuild_ms.merge(trial.rebuild_ms);
                losses += trial.data_loss ? 1.0 : 0.0;
                failures += trial.failures_applied;
                rebuilds += trial.rebuilds_completed;
                degraded_ms += trial.degraded_ms;
                simulated_ms += trial.simulated_ms;
                latent_injected += trial.latent_injected;
                latent_detected +=
                    static_cast<double>(trial.latent_detected);
                scrub_repairs +=
                    static_cast<double>(trial.scrub_repairs);
                scrub_units +=
                    static_cast<double>(trial.scrub_units_scanned);
            }
            extras.emplace_back("trials", trials);
            extras.emplace_back("data_loss_fraction",
                                trials ? losses / trials : 0.0);
            extras.emplace_back("failures_applied", failures);
            extras.emplace_back("rebuilds_completed", rebuilds);
            extras.emplace_back("rebuild_ms_mean", rebuild_ms.mean());
            extras.emplace_back("degraded_ms_total", degraded_ms);
            extras.emplace_back("degraded_response_ms",
                                degraded_response.mean());
            extras.emplace_back(
                "degraded_samples",
                static_cast<double>(degraded_response.count()));
            extras.emplace_back("latent_injected", latent_injected);
            extras.emplace_back("latent_detected", latent_detected);
            extras.emplace_back("scrub_repairs", scrub_repairs);
            extras.emplace_back("scrub_units_scanned", scrub_units);

            SimResult sim;
            sim.mean_response_ms = response.mean();
            sim.ci_half_width_ms = response.confidenceHalfWidth();
            sim.samples = response.count();
            if (simulated_ms > 0.0) {
                sim.throughput_per_s =
                    static_cast<double>(response.count()) /
                    (simulated_ms / 1000.0);
            }
            return sim;
        };
        experiments.push_back(std::move(experiment));
    }
    return experiments;
}

} // namespace pddl
