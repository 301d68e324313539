/**
 * @file
 * Figure 18 reproduction: PDDL read response times in fault-free,
 * reconstruction (degraded) and post-reconstruction operation for
 * 8..72 KB accesses.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 18: PDDL reads in fault-free, reconstruction and post-reconstruction modes",
                     bench::kObserved | bench::kDevice);
    const char *figure = "Figure 18";
    const char *caption = "PDDL read response times: fault free, "
                          "reconstruction, and post-reconstruction";
    struct Mode
    {
        const char *name;
        ArrayMode mode;
    };
    const Mode modes[] = {
        {"PDDL (fault free)", ArrayMode::FaultFree},
        {"PDDL reconstruction", ArrayMode::Degraded},
        {"PDDL post-reconstruction", ArrayMode::PostReconstruction},
    };
    const std::vector<int> sizes = {8, 24, 48, 72};

    std::vector<harness::Experiment> experiments;
    for (int kb : sizes) {
        for (const Mode &mode : modes) {
            for (int clients : bench::kClientCounts) {
                experiments.push_back(bench::scenarioExperiment(
                    {figure, mode.name, kb, clients, AccessType::Read,
                     mode.mode},
                    bench::paperSpec("pddl:width=4", kb, clients,
                                     AccessType::Read, mode.mode)));
            }
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("%s: %s\n", figure, caption);
    std::printf("(cells = mean response ms @ achieved accesses/sec)"
                "\n");
    size_t index = 0;
    for (int kb : sizes) {
        std::printf("\n-- %d KB reads --\n", kb);
        std::printf("%-26s", "mode \\ clients");
        for (int clients : bench::kClientCounts)
            std::printf("  %6d    ", clients);
        std::printf("\n");
        bench::printRule(2 + static_cast<int>(
                                 bench::kClientCounts.size()));
        for (const Mode &mode : modes) {
            std::printf("%-26s", mode.name);
            for (size_t c = 0; c < bench::kClientCounts.size(); ++c) {
                const SimResult &r = summary.points[index++].result;
                std::printf("  %6.1f@%-4.0f", r.mean_response_ms,
                            r.throughput_per_s);
            }
            std::printf("\n");
        }
    }
    std::printf("\nExpected shape: for stripe-unit sized accesses "
                "post-reconstruction is much faster than\n"
                "reconstruction but slower than fault-free (one disk "
                "fewer); for large accesses the two\nfailure modes "
                "converge.\n");
    return 0;
}
