/**
 * @file
 * Figure 16 reproduction: degraded write seek and no-switch counts
 * per logical access, 8..336 KB.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Figure 16: degraded write seek/no-switch counts per access",
                     bench::kFigure);
    bench::runSeekCountFigure("Figure 16",
                              "Degraded write; seek and no-switch "
                              "counts",
                              AccessType::Write, ArrayMode::Degraded);
    return 0;
}
