/**
 * @file
 * Figure 14 reproduction: the four 336 KB panels (reads and writes,
 * failure-free and single-failure modes).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 14: 336 KB response times, reads and writes, both modes",
                     bench::kFigure);
    bench::runResponseTimeFigure("Figure 14 (top left)",
                                 "336 KB reads, fault free", {336},
                                 AccessType::Read, ArrayMode::FaultFree);
    bench::runResponseTimeFigure("Figure 14 (top right)",
                                 "336 KB reads, single failure", {336},
                                 AccessType::Read, ArrayMode::Degraded);
    bench::runResponseTimeFigure("Figure 14 (bottom left)",
                                 "336 KB writes, fault free", {336},
                                 AccessType::Write,
                                 ArrayMode::FaultFree);
    bench::runResponseTimeFigure("Figure 14 (bottom right)",
                                 "336 KB writes, single failure",
                                 {336}, AccessType::Write,
                                 ArrayMode::Degraded);
    return 0;
}
