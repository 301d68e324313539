/**
 * @file
 * Figure 15 reproduction: fault-free write seek and no-switch counts
 * per logical access, 8..336 KB.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 15: fault-free write seek/no-switch counts per access",
                     bench::kFigure);
    bench::runSeekCountFigure("Figure 15",
                              "Fault free write; seek and no-switch "
                              "counts",
                              AccessType::Write, ArrayMode::FaultFree);
    return 0;
}
