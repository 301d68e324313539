/**
 * @file
 * Quickstart: build the paper's seven-disk storage server (Figure 2)
 * and walk through the PDDL mapping.
 *
 * Usage: quickstart
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/pddl_layout.hh"
#include "layout/properties.hh"

using namespace pddl;

namespace {

/** Render the physical array as the right-hand grid of Figure 2. */
void
printPhysicalArray(const PddlLayout &layout)
{
    const int n = layout.numDisks();
    const int64_t rows = layout.unitsPerDiskPerPeriod();
    std::vector<std::vector<std::string>> grid(
        rows, std::vector<std::string>(n, "S")); // default = spare
    const char *letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    for (int64_t s = 0; s < layout.stripesPerPeriod(); ++s) {
        char letter = letters[s % 26];
        for (int pos = 0; pos < layout.stripeWidth(); ++pos) {
            PhysAddr a = layout.map({s, pos});
            if (pos < layout.dataUnitsPerStripe()) {
                std::string &cell = grid[a.unit][a.disk];
                cell.assign(1, letter);
                cell += std::to_string(pos);
            } else {
                grid[a.unit][a.disk] = std::string("P") + letter;
            }
        }
    }
    std::printf("      ");
    for (int d = 0; d < n; ++d)
        std::printf("disk%d ", d);
    std::printf("\n");
    for (int64_t r = 0; r < rows; ++r) {
        std::printf("row %lld ", static_cast<long long>(r));
        for (int d = 0; d < n; ++d)
            std::printf("%5s ", grid[r][d].c_str());
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    // The paper's example: 7 disks, 2 stripes of width 3, one
    // distributed spare. Bose's construction yields the base
    // permutation (0 1 2 4 3 6 5).
    PddlLayout layout = PddlLayout::make(7, 3);

    std::printf("PDDL seven-disk storage server (paper Figure 2)\n\n");
    std::printf("base permutation: ");
    for (int v : layout.group().perms[0])
        std::printf("%d ", v);
    std::printf("\nsatisfactory: %s\n\n",
                isSatisfactory(layout.group()) ? "yes" : "no");

    printPhysicalArray(layout);

    // The mapping function from section 2 of the paper.
    std::printf("\nvirtual2physical examples:\n");
    std::printf("  A1 (virtual disk 2, offset 0) -> physical disk "
                "%d\n",
                layout.virtual2physical(2, 0));
    std::printf("  PA (virtual disk 3, offset 0) -> physical disk "
                "%d\n",
                layout.virtual2physical(3, 0));
    std::printf("  D1 (virtual disk 5, offset 1) -> physical disk "
                "%d\n",
                layout.virtual2physical(5, 1));

    // Space accounting (section 2: 1/7 spare, 2/7 parity, 4/7 data).
    auto spare = spareUnitsPerDisk(layout);
    auto parity = checkUnitsPerDisk(layout);
    std::printf("\nper-disk space over one pattern (7 rows): %lld "
                "spare, %lld parity, %lld data\n",
                static_cast<long long>(spare[0]),
                static_cast<long long>(parity[0]),
                static_cast<long long>(7 - spare[0] - parity[0]));

    // Reconstruction balance (goal #3) when disk 0 fails.
    ReconstructionTally tally = reconstructionWorkload(layout, 0);
    std::printf("\ndisk 0 fails: per-disk reconstruction reads:");
    for (int d = 0; d < 7; ++d)
        std::printf(" %lld", static_cast<long long>(tally.reads[d]));
    std::printf("\n              per-disk spare writes:       ");
    for (int d = 0; d < 7; ++d)
        std::printf(" %lld", static_cast<long long>(tally.writes[d]));
    std::printf("\n");
    return 0;
}
