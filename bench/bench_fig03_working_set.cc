/**
 * @file
 * Figure 3 reproduction: disk working-set sizes, computed
 * analytically by averaging over every aligned offset in the array
 * (exactly the paper's procedure).
 *
 * Columns: ffread / ffwrite / f1read / f1write per access size; for
 * PDDL, f1 designates the reconstruction (degraded) mode, matching
 * the figure's caption. The per-(layout, size) sweeps are pure
 * computation but independent, so they run as grid points on the
 * parallel runner like every simulated figure.
 */

#include "array/working_set.hh"
#include "bench_util.hh"
#include "core/volume_capacity.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 3: analytic disk working-set sizes per access size and mode",
                     bench::kGrid | bench::kLayout);
    std::vector<std::unique_ptr<Layout>> layouts;
    for (const std::string &spec : bench::evaluatedLayouts())
        layouts.push_back(pddl::layouts::makeLayout(spec, bench::kDisks));

    const char *figure = "Figure 3";
    const char *caption =
        "Disk working set sizes (averaged over every possible offset)";
    const std::vector<int> sizes = {8, 48, 96, 144, 192, 240};

    std::vector<harness::Experiment> experiments;
    for (const auto &layout : layouts) {
        for (int kb : sizes) {
            harness::Experiment experiment;
            experiment.point = {figure, layout->name(), kb, 0,
                                AccessType::Read,
                                ArrayMode::FaultFree};
            const Layout *l = layout.get();
            const int units = static_cast<int>(unitsForKb(kb, 16));
            experiment.run = [l, units](uint64_t, const obs::Probe &,
                                        harness::Extras &extras) {
                extras.emplace_back(
                    "ffread", averageWorkingSet(*l, units,
                                                AccessType::Read));
                extras.emplace_back(
                    "ffwrite", averageWorkingSet(*l, units,
                                                 AccessType::Write));
                extras.emplace_back(
                    "f1read",
                    averageWorkingSet(*l, units, AccessType::Read,
                                      ArrayMode::Degraded, 0));
                extras.emplace_back(
                    "f1write",
                    averageWorkingSet(*l, units, AccessType::Write,
                                      ArrayMode::Degraded, 0));
                return SimResult{};
            };
            experiments.push_back(std::move(experiment));
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("%s: %s\n\n", figure, caption);
    std::printf("%-20s %8s %8s %8s %8s %8s\n", "layout", "size KB",
                "ffread", "ffwrite", "f1read", "f1write");
    bench::printRule(7);
    size_t index = 0;
    for (const auto &layout : layouts) {
        for (int kb : sizes) {
            const harness::Extras &e = summary.points[index++].extras;
            std::printf("%-20s %8d %8.2f %8.2f %8.2f %8.2f\n",
                        layout->name().c_str(), kb, e[0].second,
                        e[1].second, e[2].second, e[3].second);
        }
        std::printf("\n");
    }

    // The orderings the paper calls out below the figure.
    std::printf("Paper ordering check (fault-free reads):\n");
    std::printf("  sizes <= 120 KB: DATUM <= Parity Declustering <= "
                "PDDL <= PRIME <= RAID-5\n");
    std::printf("  sizes  > 120 KB: DATUM <= PDDL <= Parity "
                "Declustering <= PRIME <= RAID-5\n");
    for (int kb : {48, 96, 144, 192}) {
        int units = static_cast<int>(unitsForKb(kb, 16));
        std::printf("  %3d KB:", kb);
        for (const auto &layout : layouts) {
            std::printf(" %s=%.2f", layout->name().c_str(),
                        averageWorkingSet(*layout, units,
                                          AccessType::Read));
        }
        std::printf("\n");
    }
    return 0;
}
