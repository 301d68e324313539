/**
 * @file
 * Table 1 reproduction: the number of base permutations needed for
 * stripe widths 5..10 and 1..10 stripes. Prime disk counts use
 * Bose's construction (always 1); the rest run the hill-climbing /
 * complement-matching search with a bounded budget.
 *
 * Output cells: the group size found, "p" when Bose applies (prime),
 * "'" marks non-prime disk counts solved (the paper's apostrophe),
 * and "?" when the budget was exhausted (the paper's table has "?"
 * entries as well).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hh"
#include "core/search.hh"
#include "util/modmath.hh"

int
main(int argc, char **argv)
{
    using namespace pddl;
    bench::parseArgs(argc, argv,
                     "Table 1: satisfactory base permutation counts per (g, k)",
                     0);
    const bool full = std::getenv("PDDL_BENCH_FULL") != nullptr;

    std::printf("Table 1: Satisfactory PDDL base permutations\n");
    std::printf("(rows = number of stripes g, columns = stripe width "
                "k, n = g*k + 1)\n\n");
    std::printf("%6s", "g \\ k");
    for (int k = 5; k <= 10; ++k)
        std::printf("%8d", k);
    std::printf("\n");

    // The paper's published entries for comparison ('?' = open).
    const char *published[10] = {
        "1 1 1 1 1 1", "1 1 2 1 1 ?", "1 1 1' 2 2 1", "1 1 1 1' 1 1",
        "1 1 1' 1 3 2", "1 1 3 6 2 1", "1 1 5 ? 4 ?",  "1 2 1 5 1 ?",
        "2 2 5 ? 1 ?", "1 1 ? ? ? 1"};

    for (int g = 1; g <= 10; ++g) {
        std::printf("%6d", g);
        for (int k = 5; k <= 10; ++k) {
            int n = g * k + 1;
            std::string cell;
            if (isPrime(n)) {
                cell = "1p";
            } else {
                SearchOptions options;
                options.max_group_size = full ? 4 : 3;
                // Budget scales down with n: the climb's sweep is
                // O(n^2) moves, and large-n cells dominate runtime.
                options.restarts =
                    std::max(4, (full ? 2400 : 400) / n);
                options.max_steps = full ? 8000 : 2500;
                auto group = findBasePermutations(n, k, options);
                cell = group ? std::to_string(group->size()) + "'"
                             : "?";
            }
            std::printf("%8s", cell.c_str());
        }
        std::printf("   | paper: %s\n", published[g - 1]);
    }
    std::printf("\n'p' = prime (Bose construction), ' = non-prime "
                "solved by search, ? = not found in budget\n");
    return 0;
}
