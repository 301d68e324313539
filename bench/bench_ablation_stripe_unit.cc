/**
 * @file
 * Ablation: stripe unit size. The paper leaves the optimal stripe
 * unit open (section 4); this sweep holds the logical access size at
 * 96 KB and varies the unit from 4 KB to 64 KB.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Ablation: stripe-unit size at a fixed 96 KB logical access",
                     bench::kObserved | bench::kDevice);
    const char *figure = "Ablation stripe unit";
    const char *caption = "stripe unit size (PDDL, 96 KB accesses)";
    const std::vector<int> unit_kbs = {4, 8, 16, 32, 64};
    const std::vector<int> client_counts = {1, 8, 25};

    std::vector<harness::Experiment> experiments;
    for (int unit_kb : unit_kbs) {
        for (int clients : client_counts) {
            ScenarioSpec spec =
                bench::paperSpec("pddl:width=4", 96, clients,
                                 AccessType::Read, ArrayMode::FaultFree);
            spec.unit_sectors = unit_kb * 2; // 512 B
            experiments.push_back(bench::scenarioExperiment(
                {figure, "PDDL/unit=" + std::to_string(unit_kb) + "KB",
                 96, clients, AccessType::Read, ArrayMode::FaultFree},
                spec));
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("Ablation: %s\n", caption);
    std::printf("(cells = mean response ms @ achieved accesses/sec)"
                "\n\n");
    std::printf("%-12s", "unit KB");
    for (int clients : client_counts)
        std::printf("   %2d clients ", clients);
    std::printf("\n");
    bench::printRule(5);
    size_t index = 0;
    for (int unit_kb : unit_kbs) {
        std::printf("%-12d", unit_kb);
        for (size_t c = 0; c < client_counts.size(); ++c) {
            const SimResult &r = summary.points[index++].result;
            std::printf("  %6.1f@%-4.0f", r.mean_response_ms,
                        r.throughput_per_s);
        }
        std::printf("\n");
    }
    std::printf("\nTrade-off: small units spread one access over "
                "more arms (parallel transfer, more seeks);\nlarge "
                "units approach single-disk streaming.\n");
    return 0;
}
