/**
 * @file
 * Tests for the layout-spec registry: normalization and canonical
 * round-trips (parse(canonical(p)) == p), makeLayout() building each
 * family with the spec's parameters, and construction/validation
 * errors.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/layout_spec.hh"
#include "core/pddl_layout.hh"
#include "core/wrapped_layout.hh"
#include "layout/datum.hh"
#include "layout/developed_random.hh"
#include "layout/mirror.hh"
#include "layout/parity_decluster.hh"
#include "layout/prime.hh"
#include "layout/raid5.hh"
#include "layout/tdesign.hh"

namespace pddl {
namespace {

using layouts::ParsedLayoutSpec;

ParsedLayoutSpec
parsed(const std::string &text)
{
    ParsedLayoutSpec spec;
    std::string error;
    EXPECT_TRUE(layouts::parseLayoutSpec(text, spec, error))
        << text << ": " << error;
    return spec;
}

template <typename T>
bool
isA(const Layout &layout)
{
    return dynamic_cast<const T *>(&layout) != nullptr;
}

TEST(LayoutSpec, CanonicalRoundTripsEveryFamily)
{
    const char *const specs[] = {
        "pddl",
        "pddl:width=6",
        "raid5",
        "datum:width=5,check=2",
        "parity:width=4",
        "prime:width=4",
        "mirror",
        "mirror:copies=3,sched=shortest_queue",
        "mirror:sched=primary",
        "draid",
        "draid:width=8,spares=2,rows=32,seed=99",
        "tdesign",
    };
    for (const char *text : specs) {
        ParsedLayoutSpec spec = parsed(text);
        ParsedLayoutSpec again = parsed(spec.canonical());
        EXPECT_EQ(spec, again) << text;
        // canonical() is a fixed point.
        EXPECT_EQ(spec.canonical(), again.canonical()) << text;
    }
}

TEST(LayoutSpec, MakeLayoutBuildsEveryRegisteredFamily)
{
    // Each spec builds its family's type over the given disks, with
    // the width, mirror copies and scheduler, and draid spares, rows
    // and seed it names.
    const struct
    {
        const char *text;
        int disks;
        bool (*type)(const Layout &);
        int width;
    } cases[] = {
        {"pddl:width=4", 13, isA<PddlLayout>, 4},
        {"raid5", 13, isA<Raid5Layout>, 13},
        {"datum:width=4", 13, isA<DatumLayout>, 4},
        {"parity:width=4", 13, isA<ParityDeclusterLayout>, 4},
        {"prime:width=4", 13, isA<PrimeLayout>, 4},
        {"mirror:copies=2", 26, isA<MirrorLayout>, 2},
        {"mirror:copies=2,sched=shortest_queue", 8, isA<MirrorLayout>, 2},
        {"draid:width=4,spares=1,rows=64,seed=1", 13,
         isA<DevelopedRandomLayout>, 4},
        {"draid:width=8,spares=2,rows=16,seed=7", 26,
         isA<DevelopedRandomLayout>, 8},
        {"tdesign", 16, isA<TDesignLayout>, 4},
    };
    for (const auto &c : cases) {
        std::unique_ptr<Layout> layout =
            layouts::makeLayout(c.text, c.disks);
        ASSERT_NE(layout, nullptr) << c.text;
        EXPECT_TRUE(c.type(*layout)) << c.text;
        EXPECT_EQ(layout->numDisks(), c.disks) << c.text;
        EXPECT_EQ(layout->stripeWidth(), c.width) << c.text;
        const ParsedLayoutSpec spec = parsed(c.text);
        if (spec.family == "mirror") {
            EXPECT_EQ(layout->mirrorCopies(), spec.copies) << c.text;
            EXPECT_EQ(layout->replicaSched(), spec.sched) << c.text;
        }
        if (const auto *draid =
                dynamic_cast<const DevelopedRandomLayout *>(layout.get())) {
            EXPECT_EQ(draid->spares(), spec.spares) << c.text;
            EXPECT_EQ(draid->rowCount(), spec.rows) << c.text;
            EXPECT_EQ(draid->developedMap().rows,
                      randomDevelopedRows(c.disks, spec.width, spec.spares,
                                          spec.rows, spec.seed)
                          .rows)
                << c.text;
        }
    }
}

TEST(LayoutSpec, WrappedSpecBuildsTheWrappedLayout)
{
    ParsedLayoutSpec spec = parsed("wrapped");
    EXPECT_EQ(spec.canonical(), "wrapped:width=4");
    EXPECT_EQ(parsed(spec.canonical()), spec);

    const WrappedLayout reference = WrappedLayout::make(14, 4);
    std::unique_ptr<Layout> built =
        layouts::makeLayout("wrapped:width=4", 14);
    EXPECT_TRUE(isA<WrappedLayout>(*built));
    EXPECT_EQ(built->name(), reference.name());
    ASSERT_EQ(built->stripesPerPeriod(), reference.stripesPerPeriod());
    for (int64_t stripe = 0; stripe < reference.stripesPerPeriod();
         ++stripe) {
        for (int pos = 0; pos < reference.stripeWidth(); ++pos) {
            const PhysAddr a = built->map({stripe, pos});
            const PhysAddr b = reference.map({stripe, pos});
            EXPECT_EQ(a.disk, b.disk) << stripe << "/" << pos;
            EXPECT_EQ(a.unit, b.unit) << stripe << "/" << pos;
        }
    }

    // The inner PDDL covers n - 1 disks, so n - 2 must split into
    // whole stripes.
    EXPECT_THROW(layouts::makeLayout("wrapped:width=4", 13),
                 std::runtime_error);
}

TEST(LayoutSpec, MirrorSpecCarriesSchedulerAndCopies)
{
    std::unique_ptr<Layout> layout =
        layouts::makeLayout("mirror:copies=3,sched=primary", 9);
    EXPECT_TRUE(isA<MirrorLayout>(*layout));
    EXPECT_EQ(layout->mirrorCopies(), 3);
    EXPECT_EQ(layout->replicaSched(), ReplicaSched::Primary);
    EXPECT_EQ(layout->dataUnitsPerStripe(), 1);

    // Defaults: 2 copies, round-robin reads.
    ParsedLayoutSpec spec = parsed("mirror");
    EXPECT_EQ(spec.copies, 2);
    EXPECT_EQ(spec.sched, ReplicaSched::RoundRobin);
}

TEST(LayoutSpec, ErrorsNameTheProblem)
{
    ParsedLayoutSpec spec;
    std::string error;
    EXPECT_FALSE(layouts::parseLayoutSpec("zebra", spec, error));
    EXPECT_NE(error.find("zebra"), std::string::npos);
    EXPECT_FALSE(
        layouts::parseLayoutSpec("pddl:width=0", spec, error));
    EXPECT_FALSE(
        layouts::parseLayoutSpec("mirror:copies=1", spec, error));
    EXPECT_FALSE(layouts::parseLayoutSpec("mirror:sched=random",
                                          spec, error));
    EXPECT_FALSE(
        layouts::parseLayoutSpec("raid5:width=4", spec, error));

    // Valid spec, impossible disk count: copies must divide n.
    EXPECT_THROW(layouts::makeLayout("mirror:copies=2", 13),
                 std::runtime_error);
    // Width cannot exceed the array.
    EXPECT_THROW(layouts::makeLayout("pddl:width=14", 13),
                 std::runtime_error);

    // draid needs width | (disks - spares); tdesign a power of two.
    EXPECT_FALSE(
        layouts::parseLayoutSpec("draid:spares=-1", spec, error));
    EXPECT_FALSE(
        layouts::parseLayoutSpec("draid:rows=0", spec, error));
    EXPECT_THROW(
        layouts::makeLayout("draid:width=5,spares=1", 13),
        std::runtime_error);
    EXPECT_THROW(layouts::makeLayout("tdesign", 12),
                 std::runtime_error);
    EXPECT_THROW(layouts::makeLayout("tdesign", 4),
                 std::runtime_error);

    EXPECT_GE(layouts::layoutSpecNames().size(), 6u);
}

TEST(LayoutSpec, RejectsOutOfRangeAndRepeatedKeysNamingTheKey)
{
    // Each once parsed to a different layout than the text asked for:
    // ints wrapped to 32 bits, a negative seed wrapped to 2^64 - 1,
    // and a repeated key let the last one win.
    const struct
    {
        const char *text;
        const char *key;
    } cases[] = {
        {"pddl:width=4294967300", "width"},
        {"draid:width=4,spares=1,rows=4294967297,seed=1", "rows"},
        {"draid:width=4,spares=1,rows=2,seed=-1", "seed"},
        {"draid:seed=18446744073709551616", "seed"},
        {"pddl:width=4,width=5", "duplicate pddl parameter 'width'"},
        {"mirror:copies=2,copies=3", "copies"},
        {"datum:width=+5", "width"},
        {"prime:width= 4", "width"},
        {"parity:width=0x4", "width"},
        {"draid:spares=-1", "spares"},
        {"draid:rows=0", "rows"},
        {"pddl:width=4,", "expected key=value"},
    };
    for (const auto &c : cases) {
        ParsedLayoutSpec spec;
        std::string error;
        EXPECT_FALSE(layouts::parseLayoutSpec(c.text, spec, error))
            << c.text << " parsed as " << spec.canonical();
        EXPECT_NE(error.find(c.key), std::string::npos)
            << c.text << ": " << error;
    }
}

} // namespace
} // namespace pddl
