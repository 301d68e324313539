/**
 * @file
 * Extension: open-loop mixed workload. The paper's evaluation uses
 * homogeneous closed-loop streams and notes that a more realistic
 * mix would better predict real deployments (section 4); this bench
 * drives all five layouts with a Poisson arrival process and an
 * OLTP-ish profile (70% 8 KB reads, 20% 24 KB writes, 10% 96 KB
 * reads) across offered loads, in fault-free and degraded modes.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Extension: open-loop OLTP-ish workload mix across offered loads",
                     bench::kFigure);
    const std::vector<std::string> specs = bench::evaluatedLayouts();
    std::vector<std::string> names;
    for (const std::string &spec : specs)
        names.push_back(layouts::makeLayout(spec, bench::kDisks)->name());
    const bool full = bench::fullFidelity();

    const char *figure = "Ablation workload mix";
    const char *caption =
        "open-loop mixed workload (Poisson arrivals; 70% 8KB reads, "
        "20% 24KB writes, 10% 96KB reads)";
    const std::vector<ArrayMode> modes = {ArrayMode::FaultFree,
                                          ArrayMode::Degraded};
    const std::vector<double> rates = {50.0, 100.0, 200.0, 300.0};

    std::vector<harness::Experiment> experiments;
    for (ArrayMode mode : modes) {
        for (size_t l = 0; l < specs.size(); ++l) {
            for (double rate : rates) {
                ScenarioSpec spec;
                spec.shards = {{specs[l], bench::benchDevice(),
                                bench::kDisks, "",
                                mode == ArrayMode::Degraded ? 0 : -1}};
                spec.dispatch_ms = 0.0;
                spec.client = "open";
                spec.arrivals_per_s = rate;
                spec.mix = {{8, false, 0.7}, {24, true, 0.2},
                            {96, false, 0.1}};
                spec.samples = full ? 20000 : 2500;
                spec.warmup = full ? 2000 : 250;

                // The offered load goes into the series label so the
                // seed hash distinguishes sweep points.
                experiments.push_back(bench::scenarioExperiment(
                    {figure,
                     names[l] + "@" +
                         std::to_string(static_cast<int>(rate)) + "/s",
                     0, 0, AccessType::Read, mode},
                    spec,
                    {.extras = [](const ScenarioSpec &,
                                  const tune::ScenarioOutcome &outcome,
                                  harness::Extras &extras) {
                        extras.emplace_back("p95_response_ms",
                                            outcome.p95_ms);
                        extras.emplace_back(
                            "max_outstanding",
                            static_cast<double>(
                                outcome.max_outstanding));
                    }}));
            }
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("Extension: open-loop mixed workload (Poisson "
                "arrivals; 70%% 8KB reads, 20%% 24KB writes,\n"
                "10%% 96KB reads). Cells = mean / p95 response ms.\n");
    size_t index = 0;
    for (ArrayMode mode : modes) {
        std::printf("\n-- %s --\n",
                    mode == ArrayMode::FaultFree ? "fault free"
                                                 : "single failure");
        std::printf("%-20s", "layout \\ load/s");
        for (double rate : rates)
            std::printf("  %8.0f     ", rate);
        std::printf("\n");
        bench::printRule(2 + 4);
        for (const std::string &name : names) {
            std::printf("%-20s", name.c_str());
            for (size_t r = 0; r < rates.size(); ++r) {
                const harness::PointResult &point =
                    summary.points[index++];
                std::printf("  %6.1f/%-6.1f",
                            point.result.mean_response_ms,
                            bench::extra(point, "p95_response_ms"));
            }
            std::printf("\n");
        }
    }
    std::printf("\n");
    return 0;
}
