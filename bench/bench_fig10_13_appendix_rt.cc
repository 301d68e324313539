/**
 * @file
 * Figures 10-13 reproduction (appendix): response times for the
 * remaining access sizes 24..288 KB, reads and writes, failure-free
 * and single-failure modes.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figures 10-13 (appendix): response times for 24-288 KB, all modes",
                     bench::kFigure);
    const std::vector<int> sizes = {24, 72, 120, 168, 216, 288};
    bench::runResponseTimeFigure(
        "Figure 10", "Read response times, failure-free mode", sizes,
        AccessType::Read, ArrayMode::FaultFree);
    bench::runResponseTimeFigure(
        "Figure 11", "Write response times, failure-free mode", sizes,
        AccessType::Write, ArrayMode::FaultFree);
    bench::runResponseTimeFigure(
        "Figure 12", "Read response times, single failure mode", sizes,
        AccessType::Read, ArrayMode::Degraded);
    bench::runResponseTimeFigure(
        "Figure 13", "Write response times, single failure mode",
        sizes, AccessType::Write, ArrayMode::Degraded);
    return 0;
}
