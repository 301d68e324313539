/**
 * @file
 * Table 3 reproduction: comparison of the declustering schemes'
 * mapping machinery -- table sizes, sparing, period (printed), and
 * measured address-translation time (google-benchmark).
 *
 * The paper reports translation *complexity*; we measure it: each
 * benchmark translates a stream of client data-unit addresses
 * through the scheme's mapping function.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/pddl_layout.hh"
#include "layout/datum.hh"
#include "layout/parity_decluster.hh"
#include "layout/prime.hh"
#include "layout/pseudo_random.hh"
#include "layout/raid5.hh"
#include "util/gf2m.hh"

namespace {

using namespace pddl;

template <typename MakeLayout>
void
translateLoop(benchmark::State &state, MakeLayout make)
{
    auto layout = make();
    int64_t du = 0;
    const int64_t span = layout.dataUnitsPerPeriod() * 4;
    for (auto _ : state) {
        PhysAddr addr = layout.map(layout.virtualOf(du));
        benchmark::DoNotOptimize(addr);
        du = (du + 7) % span;
    }
}

void
BM_ParityDeclustering(benchmark::State &state)
{
    translateLoop(state,
                  [] { return ParityDeclusterLayout::make(13, 4); });
}
BENCHMARK(BM_ParityDeclustering);

void
BM_PseudoRandom(benchmark::State &state)
{
    translateLoop(state, [] { return PseudoRandomLayout(13, 4); });
}
BENCHMARK(BM_PseudoRandom);

void
BM_Datum(benchmark::State &state)
{
    translateLoop(state, [] { return DatumLayout(13, 4); });
}
BENCHMARK(BM_Datum);

void
BM_Prime(benchmark::State &state)
{
    translateLoop(state, [] { return PrimeLayout(13, 4); });
}
BENCHMARK(BM_Prime);

void
BM_Pddl(benchmark::State &state)
{
    translateLoop(state, [] { return PddlLayout::make(13, 4); });
}
BENCHMARK(BM_Pddl);

void
BM_PddlXorDevelopment(benchmark::State &state)
{
    translateLoop(state, [] {
        return PddlLayout(boseGF2m(GF2m(4), 5));
    });
}
BENCHMARK(BM_PddlXorDevelopment);

void
BM_Raid5(benchmark::State &state)
{
    translateLoop(state, [] { return Raid5Layout(13); });
}
BENCHMARK(BM_Raid5);

/** The paper's raw virtual2physical kernel (appendix listing). */
void
BM_PddlVirtual2PhysicalKernel(benchmark::State &state)
{
    PddlLayout layout = PddlLayout::make(13, 4);
    int disk = 0;
    int64_t offset = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(layout.virtual2physical(disk, offset));
        disk = (disk + 1) % 13;
        ++offset;
    }
}
BENCHMARK(BM_PddlVirtual2PhysicalKernel);

} // namespace

int
main(int argc, char **argv)
{
    // Google Benchmark takes its --benchmark_* flags; any other
    // argument exits 2 like an unknown flag of the other benches.
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;

    std::printf("Table 3: Comparison of PDDL with other declustering "
                "schemes (n=13, k=4, p=1)\n\n");
    std::printf("%-22s %14s %10s %18s\n", "scheme", "table size",
                "sparing", "period (stripes)");
    std::printf("%-22s %14s %10s %18lld\n", "Parity Declustering",
                "n(n-1)/(k-1)=52", "no",
                static_cast<long long>(
                    ParityDeclusterLayout::make(13, 4)
                        .stripesPerPeriod()));
    std::printf("%-22s %14s %10s %18s\n", "Pseudo-Random",
                "seed only", "optional", "per-round");
    std::printf("%-22s %14s %10s %18lld\n", "DATUM", "0", "no",
                static_cast<long long>(
                    DatumLayout(13, 4).stripesPerPeriod()));
    std::printf("%-22s %14s %10s %18lld\n", "PRIME", "0", "no",
                static_cast<long long>(
                    PrimeLayout(13, 4).stripesPerPeriod()));
    std::printf("%-22s %14s %10s %18lld\n", "PDDL", "p*n=13", "yes",
                static_cast<long long>(
                    PddlLayout::make(13, 4).stripesPerPeriod()));
    std::printf("\nTranslation time (measured):\n");

    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
