/**
 * @file
 * Ablation: on-line reconstruction. Declustering's raison d'etre
 * (section 1) is less-intrusive rebuild; this bench sweeps the
 * rebuild parallelism and reports both the rebuild duration and the
 * client response time experienced *during* the rebuild.
 */

#include <functional>

#include "array/controller.hh"
#include "array/reconstruction.hh"
#include "bench_util.hh"
#include "core/pddl_layout.hh"
#include "stats/welford.hh"
#include "util/rng.hh"

using namespace pddl;

namespace {

/**
 * Rebuild disk 0 with `rebuild_parallel` stripes in flight while
 * `clients` issue 3-unit reads until it completes; the row is the
 * clients' response time, the rebuild's duration an extra.
 */
SimResult
run(const Layout &layout, int clients, int rebuild_parallel,
    int64_t stripes, uint64_t seed, const obs::Probe &probe,
    harness::Extras &extras)
{
    EventQueue events;
    events.setProbe(probe);
    ArrayConfig config;
    config.mode = ArrayMode::Degraded;
    config.failed_disk = 0;
    config.probe = probe;
    const auto device = device::makeDevice(bench::benchDevice());
    ArrayController array(events, layout, *device, config);

    ReconstructionEngine engine(events, array, 0, stripes,
                                rebuild_parallel);
    Rng rng(seed);
    Welford response;
    std::function<void()> client = [&] {
        if (engine.complete())
            return;
        int64_t start =
            static_cast<int64_t>(rng.below(array.dataUnits() - 3));
        SimTime issued = events.now();
        array.access(start, 3, AccessType::Read, [&, issued] {
            response.add(events.now() - issued);
            client();
        });
    };
    engine.start({});
    for (int c = 0; c < clients; ++c)
        client();
    events.runUntilEmpty();
    extras.emplace_back("rebuild_ms", engine.durationMs());
    extras.emplace_back("client_samples",
                        static_cast<double>(response.count()));
    SimResult result;
    result.mean_response_ms = response.mean();
    result.samples = response.count();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv,
                     "Ablation: rebuild parallelism vs duration and client response time",
                     bench::kObserved | bench::kDevice);
    PddlLayout layout = PddlLayout::make(13, 4);
    const int64_t stripes = bench::fullFidelity() ? 39000 : 3900;

    const char *figure = "Ablation rebuild";
    const char *caption = "on-line reconstruction (PDDL, 13 disks)";
    const std::vector<int> client_counts = {0, 4, 10};
    const std::vector<int> parallelism = {1, 2, 4, 8};

    std::vector<harness::Experiment> experiments;
    for (int clients : client_counts) {
        for (int parallel : parallelism) {
            harness::Experiment experiment;
            experiment.point = {figure,
                                "PDDL/parallel=" +
                                    std::to_string(parallel),
                                24, clients, AccessType::Read,
                                ArrayMode::Degraded};
            experiment.run = [&layout, clients, parallel, stripes](
                                 uint64_t seed, const obs::Probe &probe,
                                 harness::Extras &extras) {
                return run(layout, clients, parallel, stripes, seed,
                           probe, extras);
            };
            experiments.push_back(std::move(experiment));
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("Ablation: on-line reconstruction (PDDL, 13 disks, "
                "%lld stripes swept, 24 KB foreground reads)\n\n",
                static_cast<long long>(stripes));
    std::printf("%-10s %-10s %14s %18s\n", "clients", "parallel",
                "rebuild ms", "client resp ms");
    bench::printRule(6);
    size_t index = 0;
    for (int clients : client_counts) {
        for (int parallel : parallelism) {
            const harness::PointResult &point =
                summary.points[index++];
            std::printf("%-10d %-10d %14.0f %18.1f\n", clients,
                        parallel, bench::extra(point, "rebuild_ms"),
                        clients ? point.result.mean_response_ms
                                : 0.0);
        }
    }
    std::printf("\nTrade-off: wider rebuild finishes sooner but "
                "inflates foreground response times\n(the rebuild-"
                "rate knob of Holland & Gibson's on-line recovery "
                "work).\n");
    return 0;
}
