/**
 * @file
 * Figure 7 reproduction: degraded read seek and no-switch counts per
 * logical access, 8..336 KB.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 7: degraded read seek/no-switch counts per access",
                     bench::kFigure);
    bench::runSeekCountFigure("Figure 7",
                              "Degraded read; seek and no-switch "
                              "counts",
                              AccessType::Read, ArrayMode::Degraded);
    return 0;
}
