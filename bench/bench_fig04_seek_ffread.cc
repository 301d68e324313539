/**
 * @file
 * Figure 4 reproduction: fault-free read seek and no-switch counts
 * per logical access, 8..336 KB.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 4: fault-free read seek/no-switch counts per access",
                     bench::kFigure);
    bench::runSeekCountFigure("Figure 4",
                              "Fault free read; seek and no-switch "
                              "counts",
                              AccessType::Read, ArrayMode::FaultFree);
    return 0;
}
