#include "layout/developed_random.hh"

#include <cassert>
#include <stdexcept>

#include "util/rng.hh"

namespace pddl {

void
validateDevelopedRows(const DevelopedRows &map)
{
    if (map.n < 2 || map.k < 2 || map.spares < 0 ||
        map.k > map.n - map.spares)
        throw std::invalid_argument("developed rows: bad shape");
    if ((map.n - map.spares) % map.k != 0)
        throw std::invalid_argument(
            "developed rows: k must divide n - spares");
    if (map.rows.empty())
        throw std::invalid_argument("developed rows: no rows");
    std::vector<char> seen;
    for (const auto &row : map.rows) {
        if (static_cast<int>(row.size()) != map.n)
            throw std::invalid_argument(
                "developed rows: row length != n");
        seen.assign(static_cast<size_t>(map.n), 0);
        for (int disk : row) {
            if (disk < 0 || disk >= map.n || seen[disk])
                throw std::invalid_argument(
                    "developed rows: row is not a permutation");
            seen[disk] = 1;
        }
    }
}

DevelopedRows
randomDevelopedRows(int n, int k, int spares, int rows, uint64_t seed)
{
    DevelopedRows map;
    map.n = n;
    map.k = k;
    map.spares = spares;
    map.rows.reserve(static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
        // Per-row seeding keeps every row independent of the others,
        // so the map is a pure function of (n, k, spares, rows, seed).
        Rng rng(hashMix64(static_cast<uint64_t>(r), seed));
        map.rows.push_back(rng.permutation(n));
    }
    return map;
}

DevelopedRandomLayout::DevelopedRandomLayout(int disks, int width,
                                             int spares, int rows,
                                             uint64_t seed)
    : Layout("Developed Random Rows", disks, width, 1),
      map_(randomDevelopedRows(disks, width, spares, rows, seed))
{
    validateDevelopedRows(map_);
}

PhysAddr
DevelopedRandomLayout::mapUnit(int64_t stripe, int pos) const
{
    const int g = map_.groupsPerRow();
    const int64_t rows = rowCount();
    const int64_t per_period = rows * g;
    const int64_t period = stripe / per_period;
    const int64_t in_period = stripe % per_period;
    const int64_t row = in_period / g;
    const int group = static_cast<int>(in_period % g);
    const int disk =
        map_.rows[row][map_.spares + group * map_.k + pos];
    return PhysAddr{disk, period * rows + row};
}

PhysAddr
DevelopedRandomLayout::relocatedAddress(int failed_disk,
                                        int64_t unit) const
{
    assert(map_.spares > 0 && "layout has no spare space");
    assert(failed_disk >= 0 && failed_disk < numDisks());
    assert(unit >= 0);
    const int64_t rows = rowCount();
    const int64_t row = unit % rows;
    const int slot = failed_disk % map_.spares;
    const int host = map_.rows[row][slot];
    assert(host != failed_disk &&
           "spare units hold nothing to relocate");
    return PhysAddr{host, unit};
}

} // namespace pddl
