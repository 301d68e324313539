/**
 * @file
 * Ablation: SSTF scan-window depth (the paper fixes it at 20,
 * Table 2). Sweeps FCFS (window 1) through deep windows and reports
 * the response-time impact on a heavy mixed workload.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Ablation: SSTF scan-window depth vs response time",
                     bench::kObserved | bench::kDevice);
    const char *figure = "Ablation sstf";
    const char *caption = "SSTF scan window (PDDL, 13 disks)";
    const std::vector<int> windows = {1, 2, 5, 10, 20, 40};
    const std::vector<int> client_counts = {4, 10, 25};

    std::vector<harness::Experiment> experiments;
    for (int window : windows) {
        for (int clients : client_counts) {
            ScenarioSpec spec =
                bench::paperSpec("pddl:width=4", 24, clients,
                                 AccessType::Read, ArrayMode::FaultFree);
            spec.sstf_window = window;
            // The window is part of the series label so that each
            // sweep point derives a distinct seed.
            experiments.push_back(bench::scenarioExperiment(
                {figure, "PDDL/window=" + std::to_string(window), 24,
                 clients, AccessType::Read, ArrayMode::FaultFree},
                spec));
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("Ablation: %s\n", caption);
    std::printf("(cells = mean response ms @ achieved accesses/sec)"
                "\n\n");
    std::printf("%-10s", "window");
    for (int clients : client_counts)
        std::printf("   %2d clients ", clients);
    std::printf("\n");
    bench::printRule(5);
    size_t index = 0;
    for (int window : windows) {
        std::printf("%-10d", window);
        for (size_t c = 0; c < client_counts.size(); ++c) {
            const SimResult &r = summary.points[index++].result;
            std::printf("  %6.1f@%-4.0f", r.mean_response_ms,
                        r.throughput_per_s);
        }
        std::printf("\n");
    }
    std::printf("\nExpected: window 1 (FCFS) is slowest under load; "
                "gains flatten past the paper's 20.\n");
    return 0;
}
