#include "array/request_mapper.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace pddl {

const char *
arrayModeName(ArrayMode mode)
{
    switch (mode) {
      case ArrayMode::FaultFree: return "fault_free";
      case ArrayMode::Degraded: return "degraded";
      case ArrayMode::PostReconstruction:
        return "post_reconstruction";
    }
    return "unknown";
}

RequestMapper::RequestMapper(const Layout &layout, ArrayMode mode,
                             int failed_disk)
    : layout_(layout)
{
    setMode(mode, failed_disk);
}

void
RequestMapper::setMode(ArrayMode mode, int failed_disk)
{
    mode_ = mode;
    failed_disk_ = failed_disk;
    if (mode_ == ArrayMode::FaultFree) {
        failed_disk_ = -1;
    } else {
        assert(failed_disk_ >= 0 && failed_disk_ < layout_.numDisks());
    }
    if (mode_ == ArrayMode::PostReconstruction)
        assert(layout_.hasSparing());
}

PhysAddr
RequestMapper::resolve(PhysAddr addr) const
{
    if (mode_ == ArrayMode::PostReconstruction &&
        addr.disk == failed_disk_) {
        return layout_.relocatedAddress(failed_disk_, addr.unit);
    }
    return addr;
}

std::vector<PhysOp>
RequestMapper::expand(int64_t start_unit, int count,
                      AccessType type) const
{
    std::vector<PhysOp> ops;
    expandInto(start_unit, count, type, ops);
    return ops;
}

void
RequestMapper::expandInto(int64_t start_unit, int count,
                          AccessType type,
                          std::vector<PhysOp> &ops) const
{
    assert(start_unit >= 0 && count >= 1);
    const int data_units = layout_.dataUnitsPerStripe();
    const int64_t end = start_unit + count;

    ops.clear();
    for (int64_t stripe = start_unit / data_units;
         stripe * data_units < end; ++stripe) {
        int lo = static_cast<int>(
            std::max<int64_t>(start_unit - stripe * data_units, 0));
        int hi = static_cast<int>(
            std::min<int64_t>(end - stripe * data_units, data_units));
        if (type == AccessType::Read)
            expandStripeRead(stripe, lo, hi, ops);
        else
            expandStripeWrite(stripe, lo, hi, ops);
    }

    // Deduplicate (degraded reconstruction can read a partner unit
    // that the access reads anyway), preserving issue order. Op
    // batches are a few dozen entries at most, so a quadratic scan
    // beats a set -- and allocates nothing.
    size_t kept = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        assert(ops[i].addr.disk != failed_disk_ ||
               mode_ == ArrayMode::FaultFree);
        bool duplicate = false;
        for (size_t j = 0; j < kept; ++j) {
            if (ops[j] == ops[i]) {
                duplicate = true;
                break;
            }
        }
        if (!duplicate)
            ops[kept++] = ops[i];
    }
    ops.resize(kept);
}

int
RequestMapper::pickReplica(int64_t stripe) const
{
    // Collect the surviving copies (every position of a mirrored
    // stripe replicates its single data unit).
    const int width = layout_.stripeWidth();
    int survivors[16];
    int count = 0;
    for (int pos = 0; pos < width && count < 16; ++pos) {
        if (layout_.map({stripe, pos}).disk != failed_disk_)
            survivors[count++] = pos;
    }
    assert(count >= 1 && "mirror group entirely failed");

    switch (layout_.replicaSched()) {
      case ReplicaSched::Primary:
        return survivors[0];
      case ReplicaSched::RoundRobin:
        return survivors[replica_cursor_++ % count];
      case ReplicaSched::ShortestQueue: {
        if (!queue_depth_hook_)
            return survivors[0];
        // Least-loaded copy; strict < keeps ties on the lowest
        // surviving position (deterministic across runs).
        int best = survivors[0];
        int best_depth =
            queue_depth_hook_(layout_.map({stripe, best}).disk);
        for (int i = 1; i < count; ++i) {
            int depth = queue_depth_hook_(
                layout_.map({stripe, survivors[i]}).disk);
            if (depth < best_depth) {
                best = survivors[i];
                best_depth = depth;
            }
        }
        return best;
      }
    }
    return survivors[0];
}

void
RequestMapper::expandStripeRead(int64_t stripe, int lo, int hi,
                                std::vector<PhysOp> &ops) const
{
    const int width = layout_.stripeWidth();

    if (layout_.mirrorCopies() > 1) {
        // RAID-1/0: serve the stripe's one data unit from whichever
        // surviving replica the scheduler picks. A failed copy never
        // forces reconstruction -- reads stay degraded-free.
        (void)lo;
        (void)hi;
        int pos = pickReplica(stripe);
        ops.push_back(
            PhysOp{resolve(layout_.map({stripe, pos})), false, 0});
        probe_.count("mapper.mirror_reads");
        return;
    }
    bool reconstruct = false;
    for (int pos = lo; pos < hi; ++pos) {
        PhysAddr addr = layout_.map({stripe, pos});
        if (mode_ == ArrayMode::Degraded && addr.disk == failed_disk_) {
            reconstruct = true;
            continue;
        }
        ops.push_back(PhysOp{resolve(addr), false, 0});
    }
    if (reconstruct) {
        // Rebuild the lost unit on the fly: read every surviving unit
        // of the stripe (single failure; the check unit suffices).
        probe_.count("mapper.degraded_reads");
        for (int pos = 0; pos < width; ++pos) {
            PhysAddr addr = layout_.map({stripe, pos});
            if (addr.disk != failed_disk_)
                ops.push_back(PhysOp{addr, false, 0});
        }
    } else {
        probe_.count("mapper.direct_reads");
    }
}

void
RequestMapper::expandStripeWrite(int64_t stripe, int lo, int hi,
                                 std::vector<PhysOp> &ops) const
{
    const int data_units = layout_.dataUnitsPerStripe();
    const int width = layout_.stripeWidth();
    const bool degraded = mode_ == ArrayMode::Degraded;

    // Locate the failed unit's role within this stripe (if any).
    int failed_pos = -1;
    if (degraded) {
        for (int pos = 0; pos < width; ++pos) {
            if (layout_.map({stripe, pos}).disk == failed_disk_) {
                failed_pos = pos;
                break;
            }
        }
    }

    auto push = [&](int pos, bool write, int phase) {
        if (pos == failed_pos)
            return;
        ops.push_back(
            PhysOp{resolve(layout_.map({stripe, pos})), write,
                   phase});
    };
    auto pushChecks = [&](bool write, int phase) {
        for (int pos = data_units; pos < width; ++pos)
            push(pos, write, phase);
    };
    bool check_alive =
        failed_pos < data_units || width - data_units > 1;

    if (lo == 0 && hi == data_units) {
        // Full-stripe write: no pre-reads, overwrite data + checks.
        probe_.count("mapper.full_stripe_writes");
        for (int pos = 0; pos < data_units; ++pos)
            push(pos, true, 1);
        pushChecks(true, 1);
        return;
    }

    if (degraded && failed_pos >= data_units && !check_alive) {
        // The only check unit is lost: no parity to maintain, just
        // overwrite the data in place.
        probe_.count("mapper.parityless_writes");
        for (int pos = lo; pos < hi; ++pos)
            push(pos, true, 1);
        return;
    }

    // Small write (read-modify-write) vs large (reconstruct) write.
    // The controller picks whichever moves fewer units; a failed
    // modified unit forces large, a failed unmodified unit forces
    // small (its old value cannot be pre-read).
    bool small = (hi - lo) <= data_units / 2;
    if (degraded && failed_pos >= 0 && failed_pos < data_units) {
        bool failed_modified = failed_pos >= lo && failed_pos < hi;
        small = !failed_modified;
    }

    if (small) {
        probe_.count("mapper.small_writes");
        for (int pos = lo; pos < hi; ++pos)
            push(pos, false, 0);
        pushChecks(false, 0);
    } else {
        probe_.count("mapper.large_writes");
        for (int pos = 0; pos < data_units; ++pos) {
            if (pos < lo || pos >= hi)
                push(pos, false, 0);
        }
    }
    for (int pos = lo; pos < hi; ++pos)
        push(pos, true, 1);
    pushChecks(true, 1);
}

} // namespace pddl
