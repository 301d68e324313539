/**
 * @file
 * Ablation: satisfactory vs unsatisfactory base permutation. The
 * paper's section 2 shows the identity permutation concentrates the
 * reconstruction workload on four disks; this bench quantifies the
 * degraded-mode response-time cost of that imbalance.
 */

#include "array/controller.hh"
#include "bench_util.hh"
#include "core/pddl_layout.hh"
#include "layout/properties.hh"

using namespace pddl;

namespace {

/**
 * One degraded 8 KB read point on `layout`. No spec string names the
 * identity-permutation layout, so this composes what runScenario
 * builds for a no-fabric spec -- one EventQueue, one ArrayController,
 * the closed-loop client -- on the paper spec's drive, under its
 * stopping rule.
 */
SimResult
runDegradedReads(const Layout &layout, int clients, uint64_t seed,
                 const obs::Probe &probe)
{
    const ScenarioSpec spec =
        bench::paperSpec("pddl:width=4", 8, clients, AccessType::Read,
                         ArrayMode::Degraded);
    const auto device = device::makeDevice(spec.shards.front().device);
    EventQueue events;
    events.setProbe(probe);
    ArrayController array(events, layout, *device,
                          {.mode = ArrayMode::Degraded,
                           .failed_disk = 0,
                           .probe = probe});
    ClosedLoopConfig config;
    config.clients = clients;
    config.relative_tolerance = spec.ci_tolerance;
    config.min_samples = spec.min_samples;
    config.max_samples = spec.samples;
    config.warmup = spec.warmup;
    config.seed = seed;
    ClosedLoopClient client(config);
    client.start(events, array);
    events.runUntilEmpty();
    return client.result();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv,
                     "Ablation: satisfactory vs unsatisfactory base permutation",
                     bench::kObserved | bench::kDevice);

    // Satisfactory (Bose) vs identity base permutation, 13 disks.
    PermutationGroup bose = boseConstruction(13, 4);
    PermutationGroup identity = bose;
    identity.perms = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}};

    std::printf("Ablation: base permutation quality (n=13, k=4)\n\n");
    for (const auto &[name, group] :
         {std::pair<const char *, PermutationGroup &>{"Bose", bose},
          {"identity", identity}}) {
        auto tally = reconstructionReadTally(group);
        int64_t lo = tally[1], hi = tally[1];
        for (int d = 2; d < group.n; ++d) {
            lo = std::min(lo, tally[d]);
            hi = std::max(hi, tally[d]);
        }
        std::printf("%-10s satisfactory=%-3s reconstruction reads "
                    "per surviving disk in [%lld, %lld]\n",
                    name, isSatisfactory(group) ? "yes" : "no",
                    static_cast<long long>(lo),
                    static_cast<long long>(hi));
    }

    const char *figure = "Ablation base permutation";
    const char *caption =
        "base permutation quality, degraded 8 KB reads (n=13, k=4)";
    const std::vector<int> client_counts = {4, 10, 25};
    PddlLayout bose_layout(bose);
    PddlLayout identity_layout(identity, 1,
                               /*require_satisfactory=*/false);
    const std::pair<const char *, const PddlLayout *> variants[] = {
        {"Bose", &bose_layout}, {"identity", &identity_layout}};

    std::vector<harness::Experiment> experiments;
    for (const auto &[name, layout] : variants) {
        for (int clients : client_counts) {
            harness::Experiment experiment;
            experiment.point = {figure, name, 8, clients,
                                AccessType::Read, ArrayMode::Degraded};
            experiment.run = [l = layout, clients](
                                 uint64_t seed, const obs::Probe &probe,
                                 harness::Extras &) {
                return runDegradedReads(*l, clients, seed, probe);
            };
            experiments.push_back(std::move(experiment));
        }
    }
    harness::RunSummary summary =
        bench::runGrid(figure, caption, experiments);

    std::printf("\nDegraded 8 KB read response times:\n");
    std::printf("%-12s", "layout");
    for (int clients : client_counts)
        std::printf("   %2d clients ", clients);
    std::printf("\n");
    bench::printRule(5);
    size_t index = 0;
    for (const auto &[name, layout] : variants) {
        std::printf("%-12s", name);
        for (size_t c = 0; c < client_counts.size(); ++c) {
            const SimResult &r = summary.points[index++].result;
            std::printf("  %6.1f@%-4.0f", r.mean_response_ms,
                        r.throughput_per_s);
        }
        std::printf("\n");
    }
    std::printf("\nExpected: the identity permutation's hot disks "
                "inflate degraded response times under load.\n");
    return 0;
}
