/**
 * @file
 * Abstract disk-array data layout.
 *
 * A layout maps the units of reliability stripes onto (disk, row)
 * positions of an n-disk array. Client data is addressed as a linear
 * sequence of fixed-size stripe units; every layout in this library
 * satisfies the paper's large-write optimization (goal #4), i.e.
 * stripe `s` holds client data units
 * [s * dataUnits, (s+1) * dataUnits) plus its check unit(s).
 *
 * The mapping API is uniform across all layout families:
 * map(VirtualAddress) resolves one virtual stripe unit to its
 * physical home. A layout is named by its spec string
 * (core/layout_spec.hh); the object reports only its shape.
 *
 * map() serves from a lazily built per-period table (one PhysAddr per
 * (stripe-in-period, position)) whenever the family's mapping is
 * truly periodic and the period is small enough; otherwise it falls
 * back to the analytic mapUnit() hook. The table is built once per
 * layout object and shared by every thread using it.
 */

#ifndef PDDL_LAYOUT_LAYOUT_HH
#define PDDL_LAYOUT_LAYOUT_HH

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace pddl {

/** Physical position of one stripe unit. */
struct PhysAddr
{
    int disk;
    int64_t unit; ///< stripe-unit row on the disk

    bool
    operator==(const PhysAddr &o) const
    {
        return disk == o.disk && unit == o.unit;
    }

    bool
    operator<(const PhysAddr &o) const
    {
        return std::tie(disk, unit) < std::tie(o.disk, o.unit);
    }
};

/**
 * Replica-selection policy for mirrored (RAID-1/0) layouts: which
 * surviving copy serves a read.
 */
enum class ReplicaSched
{
    Primary,       ///< always the first surviving copy
    RoundRobin,    ///< cycle through surviving copies
    ShortestQueue, ///< least-loaded copy (ties: lowest disk)
};

/**
 * Virtual (layout-independent) address of one stripe unit: the
 * stripe index plus the position within the stripe. Positions
 * 0 .. dataUnits-1 address the client data units in client order;
 * dataUnits .. k-1 address the check (parity) units.
 */
struct VirtualAddress
{
    int64_t stripe;
    int pos;

    bool
    operator==(const VirtualAddress &o) const
    {
        return stripe == o.stripe && pos == o.pos;
    }
};

/**
 * Base class of all data layouts.
 *
 * A layout is periodic: addresses repeat (shifted by the per-disk row
 * count) every stripesPerPeriod() stripes. Subclasses implement one
 * hook -- mapUnit() -- plus the period getters; everything else
 * derives from those.
 */
class Layout
{
  public:
    /**
     * @param name human-readable scheme name
     * @param disks number of disks n
     * @param width stripe width k (data + check units)
     * @param check_units check units per stripe (1 tolerates one
     *        failure; PDDL and DATUM accept more)
     */
    Layout(std::string name, int disks, int width, int check_units = 1);

    virtual ~Layout();

    Layout(const Layout &) = delete;
    Layout &operator=(const Layout &) = delete;
    Layout &operator=(Layout &&) = delete;

    /**
     * Moving a layout transfers its shape but not its lazily built
     * map table (it is cheap to rebuild and pinning it would pin the
     * mutex too). Value-typed layouts (WrappedLayout's inner PDDL,
     * make() factories) rely on this.
     */
    Layout(Layout &&other) noexcept
        : name_(std::move(other.name_)), disks_(other.disks_),
          width_(other.width_), check_units_(other.check_units_)
    {
    }

    const std::string &name() const { return name_; }

    /** Number of disks in the array (n). */
    int numDisks() const { return disks_; }

    /** Stripe width (k), counting data and check units. */
    int stripeWidth() const { return width_; }

    /** Check units per stripe. */
    int checkUnitsPerStripe() const { return check_units_; }

    /** Client data units per stripe (k minus check units). */
    int dataUnitsPerStripe() const { return width_ - check_units_; }

    /** Stripes in one layout pattern before it repeats. */
    virtual int64_t stripesPerPeriod() const = 0;

    /** Rows each disk contributes to one layout pattern. */
    virtual int64_t unitsPerDiskPerPeriod() const = 0;

    /**
     * True when mapUnit() literally repeats every stripesPerPeriod()
     * stripes (shifted by unitsPerDiskPerPeriod() rows), i.e. when a
     * single-period table reproduces the whole mapping. Pseudo-random
     * declustering repeats in structure but not content, so it opts
     * out and map() always computes analytically.
     */
    virtual bool mapIsPeriodic() const { return true; }

    /**
     * The one mapping entry point: physical home of the virtual
     * stripe unit `va`. The stripe index may be any non-negative
     * value (the pattern repeats every stripesPerPeriod() stripes).
     *
     * Served from the per-period table when available (O(1) lookup,
     * no per-family arithmetic); falls back to mapUnit() for
     * non-periodic families and oversized periods.
     */
    PhysAddr
    map(VirtualAddress va) const
    {
        assert(va.stripe >= 0);
        assert(va.pos >= 0 && va.pos < width_);
        const MapTable *table =
            table_.load(std::memory_order_acquire);
        if (table == nullptr)
            table = ensureTable();
        if (table->entries.empty())
            return mapUnit(va.stripe, va.pos);
        const int64_t period = va.stripe / table->stripes;
        const int64_t row = va.stripe - period * table->stripes;
        PhysAddr entry =
            table->entries[static_cast<size_t>(row) * width_ +
                           va.pos];
        entry.unit += period * table->shift;
        return entry;
    }

    /**
     * The analytic mapping, bypassing the per-period table. Same
     * result as map() by construction; exists so tests and tools can
     * cross-check the table against the family arithmetic.
     */
    PhysAddr
    mapUncached(VirtualAddress va) const
    {
        assert(va.stripe >= 0);
        assert(va.pos >= 0 && va.pos < width_);
        return mapUnit(va.stripe, va.pos);
    }

    /** Virtual address holding client data unit `data_unit`. */
    VirtualAddress
    virtualOf(int64_t data_unit) const
    {
        return {data_unit / dataUnitsPerStripe(),
                static_cast<int>(data_unit % dataUnitsPerStripe())};
    }

    /** True when the layout embeds distributed spare space. */
    virtual bool hasSparing() const { return false; }

    /**
     * Copies of every data unit (1 = parity-protected, no mirroring).
     * Mirrored layouts return >= 2; each stripe's positions are then
     * full replicas of its single data unit, and reads may be served
     * from any surviving copy.
     */
    virtual int mirrorCopies() const { return 1; }

    /** Replica-selection policy (meaningful when mirrorCopies() > 1). */
    virtual ReplicaSched replicaSched() const
    {
        return ReplicaSched::Primary;
    }

    /**
     * Post-reconstruction home of a failed disk's unit.
     *
     * Only meaningful when hasSparing(); (failed_disk, unit) must be
     * a data or check unit (spare units hold nothing to relocate).
     */
    virtual PhysAddr
    relocatedAddress(int failed_disk, int64_t unit) const
    {
        (void)failed_disk;
        (void)unit;
        assert(false && "layout has no spare space");
        return PhysAddr{-1, -1};
    }

    /** Client data units in one layout pattern. */
    int64_t
    dataUnitsPerPeriod() const
    {
        return stripesPerPeriod() * dataUnitsPerStripe();
    }

  protected:
    /**
     * Subclass mapping hook behind map(): physical address of
     * position `pos` of stripe `stripe`. Arguments arrive validated.
     */
    virtual PhysAddr mapUnit(int64_t stripe, int pos) const = 0;

  private:
    /**
     * One period of the mapping, row-major by (stripe, pos). An empty
     * `entries` marks the table disabled (non-periodic family or a
     * period over kMaxTableEntries): map() then computes analytically.
     */
    struct MapTable
    {
        std::vector<PhysAddr> entries;
        int64_t stripes = 0; ///< stripesPerPeriod()
        int64_t shift = 0;   ///< unitsPerDiskPerPeriod()
    };

    /** Table size cap: 1M entries (16 MB) covers every shipped grid. */
    static constexpr int64_t kMaxTableEntries = int64_t{1} << 20;

    /**
     * Build (or fetch) the table. First caller wins; concurrent
     * callers block on the mutex and reuse the published table. The
     * returned pointer is immutable and lives until the layout dies.
     */
    const MapTable *ensureTable() const;

    std::string name_;
    int disks_;
    int width_;
    int check_units_;

    mutable std::atomic<const MapTable *> table_{nullptr};
    mutable std::mutex table_mutex_;
};

/**
 * Client data units one array holds: the whole layout patterns --
 * `units_per_disk_per_period` rows on every disk and
 * `data_units_per_period` client units each -- that fit drives of
 * `disk_sectors` sectors cut into `unit_sectors`-sector stripe units.
 * 0 when not even one pattern fits.
 */
inline int64_t
arrayDataUnits(int64_t disk_sectors, int unit_sectors,
               int64_t units_per_disk_per_period,
               int64_t data_units_per_period)
{
    const int64_t rows = disk_sectors / unit_sectors;
    return rows / units_per_disk_per_period * data_units_per_period;
}

} // namespace pddl

#endif // PDDL_LAYOUT_LAYOUT_HH
