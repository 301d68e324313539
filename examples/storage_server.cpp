/**
 * @file
 * Storage-server scenario: the paper's 13-disk array serving a
 * closed-loop client population through a whole failure lifecycle --
 * healthy operation, a disk crash (reconstruction mode), and
 * operation after the lost contents have been rebuilt into the
 * distributed spare space.
 *
 * Usage: storage_server [clients] [access_kb]
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "tune/scenario_runner.hh"

using namespace pddl;

namespace {

/** One closed-loop measurement on a bare 13-disk array (no fabric). */
tune::ScenarioOutcome
measure(const std::string &layout, ArrayMode mode, int clients, int kb,
        bool write)
{
    ScenarioSpec spec;
    spec.shards.front().layout = layout;
    spec.shards.front().disks = 13;
    if (mode != ArrayMode::FaultFree)
        spec.shards.front().failed_disk = 0;
    spec.shards.front().rebuilt = mode == ArrayMode::PostReconstruction;
    spec.dispatch_ms = 0.0;
    spec.client = "closed";
    spec.clients = clients;
    spec.mix = {{kb, write, 1.0}};
    spec.ci_tolerance = 0.05;
    spec.min_samples = 300;
    spec.samples = 6000;
    spec.warmup = 150;
    std::string error;
    const std::optional<CompiledScenario> scenario =
        compileScenario(spec, error);
    if (!scenario) {
        std::fprintf(stderr, "bad scenario: %s\n", error.c_str());
        std::exit(1);
    }
    return tune::runScenario(*scenario, tune::RunScenarioOptions{});
}

void
report(const char *phase, const std::string &layout, ArrayMode mode,
       int clients, int kb)
{
    const tune::ScenarioOutcome reads =
        measure(layout, mode, clients, kb, false);
    const tune::ScenarioOutcome writes =
        measure(layout, mode, clients, kb, true);
    std::printf("%-28s reads: %6.1f ms @ %5.0f/s    writes: %6.1f ms "
                "@ %5.0f/s\n",
                phase, reads.mean_ms, reads.throughput_per_s,
                writes.mean_ms, writes.throughput_per_s);
}

} // namespace

int
main(int argc, char **argv)
{
    const int clients = argc > 1 ? std::atoi(argv[1]) : 10;
    const int access_kb = argc > 2 ? std::atoi(argv[2]) : 48;
    if (clients < 1 || access_kb / 8 < 1) {
        std::fprintf(stderr,
                     "usage: %s [clients >= 1] [access_kb multiple "
                     "of 8]\n",
                     argv[0]);
        return 1;
    }

    std::printf("Storage server lifecycle: 13 HP 2247 disks, %d "
                "clients, %d KB accesses\n\n",
                clients, access_kb);

    std::printf("== PDDL (3 stripes of width 4 + distributed spare) "
                "==\n");
    report("healthy", "pddl:width=4", ArrayMode::FaultFree, clients,
           access_kb);
    report("disk 0 failed (rebuilding)", "pddl:width=4",
           ArrayMode::Degraded, clients, access_kb);
    report("rebuilt into spare space", "pddl:width=4",
           ArrayMode::PostReconstruction, clients, access_kb);

    std::printf("\n== RAID-5 baseline (no declustering, no spare) "
                "==\n");
    report("healthy", "raid5", ArrayMode::FaultFree, clients,
           access_kb);
    report("disk 0 failed (forever)", "raid5", ArrayMode::Degraded,
           clients, access_kb);

    std::printf("\nDeclustering spreads the failure's extra load "
                "over all survivors, and PDDL's\ndistributed spare "
                "returns the array to near-healthy response times "
                "after rebuild.\n");
    return 0;
}
