/**
 * @file
 * Tests for the traffic subsystem: offset-distribution and
 * arrival-process spec parsing and sampling (including the exact
 * draw-equivalence that keeps default workloads byte-identical to
 * the pre-traffic clients), the trace format round-trip, trace
 * capture/replay through the Target interface, and determinism of
 * skewed/bursty workloads across parallel-engine thread counts.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "array/controller.hh"
#include "harness/parallel_for.hh"
#include "layout/raid5.hh"
#include "sim/parallel_engine.hh"
#include "traffic/arrival.hh"
#include "traffic/offset_dist.hh"
#include "traffic/trace.hh"
#include "util/rng.hh"
#include "volume/volume_manager.hh"
#include "workload/closed_loop.hh"
#include "workload/open_loop.hh"
#include "workload/trace_replay.hh"

namespace pddl {
namespace {

using traffic::ArrivalSampler;
using traffic::ArrivalSpec;
using traffic::OffsetSampler;
using traffic::OffsetSpec;
using traffic::TraceRecord;

TEST(OffsetSpecParse, AcceptsKnownFormsAndRoundTripsNames)
{
    OffsetSpec spec;
    std::string error;

    ASSERT_TRUE(traffic::parseOffsetSpec("uniform", spec, error));
    EXPECT_EQ(spec.kind, OffsetSpec::Kind::Uniform);
    EXPECT_EQ(traffic::offsetSpecName(spec), "uniform");

    ASSERT_TRUE(traffic::parseOffsetSpec("zipf:0.99", spec, error));
    EXPECT_EQ(spec.kind, OffsetSpec::Kind::Zipf);
    EXPECT_DOUBLE_EQ(spec.theta, 0.99);
    EXPECT_EQ(traffic::offsetSpecName(spec), "zipf:0.99");

    ASSERT_TRUE(traffic::parseOffsetSpec("hot:0.1,0.9", spec, error));
    EXPECT_EQ(spec.kind, OffsetSpec::Kind::HotSpot);
    EXPECT_DOUBLE_EQ(spec.hot_fraction, 0.1);
    EXPECT_DOUBLE_EQ(spec.hot_weight, 0.9);
    EXPECT_EQ(traffic::offsetSpecName(spec), "hot:0.1,0.9");

    // The canonical names parse back to the same spec.
    OffsetSpec again;
    ASSERT_TRUE(traffic::parseOffsetSpec(
        traffic::offsetSpecName(spec), again, error));
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_DOUBLE_EQ(again.hot_fraction, spec.hot_fraction);
    EXPECT_DOUBLE_EQ(again.hot_weight, spec.hot_weight);
}

TEST(OffsetSpecParse, RejectsMalformedSpecsWithAnExplanation)
{
    const char *bad[] = {
        "zipf:1.5",  // theta out of (0,1)
        "zipf:0",    // boundary excluded
        "zipf:abc",  // not a number
        "hot:0.5",   // missing comma
        "hot:0.5,1.5", // weight out of (0,1]
        "hot:,0.9",  // empty fraction
        "gaussian",  // unknown kind
        "",
    };
    for (const char *text : bad) {
        OffsetSpec spec;
        std::string error;
        EXPECT_FALSE(traffic::parseOffsetSpec(text, spec, error))
            << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(OffsetSpecParse, RejectsNonFiniteNumbersNamingTheForm)
{
    // Each slipped past the range checks (every comparison with a NaN
    // is false): zipf:nan aborted in OffsetSampler, hot:nan ran.
    const struct
    {
        const char *text;
        const char *form;
    } cases[] = {
        {"zipf:nan", "zipf:<theta>"},
        {"zipf:-nan", "zipf:<theta>"},
        {"zipf:inf", "zipf:<theta>"},
        {"zipf:1e-400", "zipf:<theta>"},
        {"zipf: 0.5", "zipf:<theta>"},
        {"zipf:+0.5", "zipf:<theta>"},
        {"hot:nan,0.5", "hot:<fraction>,<weight>"},
        {"hot:0.1,nan", "hot:<fraction>,<weight>"},
        {"hot:0.1,inf", "hot:<fraction>,<weight>"},
        {"hot:0.1,0.5,0.2", "hot:<fraction>,<weight>"},
    };
    for (const auto &c : cases) {
        OffsetSpec spec;
        std::string error;
        EXPECT_FALSE(traffic::parseOffsetSpec(c.text, spec, error))
            << c.text;
        EXPECT_NE(error.find(c.form), std::string::npos)
            << c.text << ": " << error;
    }
}

TEST(OffsetSpecParse, CanonicalNameKeepsEveryDigit)
{
    // %g kept six digits, so normalize() once ran zipf:0.123457.
    OffsetSpec spec;
    std::string error;
    ASSERT_TRUE(traffic::parseOffsetSpec("zipf:0.12345678", spec, error));
    EXPECT_EQ(traffic::offsetSpecName(spec), "zipf:0.12345678");
    ASSERT_TRUE(traffic::parseOffsetSpec("hot:0.1234567,0.7654321",
                                         spec, error));
    EXPECT_EQ(traffic::offsetSpecName(spec), "hot:0.1234567,0.7654321");
    // Short values print as they always did.
    for (const char *text : {"zipf:0.99", "zipf:0.5", "hot:0.1,0.9",
                             "hot:0.2,0.8", "zipf:1e-05"}) {
        ASSERT_TRUE(traffic::parseOffsetSpec(text, spec, error));
        EXPECT_EQ(traffic::offsetSpecName(spec), text);
    }
}

TEST(ArrivalSpecParse, RejectsNonFiniteAndMalformedNumbers)
{
    const char *const bad[] = {
        "diurnal:nan,1@10", "diurnal:1,inf@10", "diurnal:1,2@nan",
        "diurnal:1,2@1e999", "diurnal:1,,2@10", "diurnal:1,2,@10",
        "diurnal: 1@10", "mmpp:nan,1,1", "mmpp:4,inf,1",
        "mmpp:4,1,1e999", "mmpp:+4,1,1", "mmpp:4,1", "mmpp:4,1,1,1",
    };
    for (const char *text : bad) {
        ArrivalSpec spec;
        std::string error;
        EXPECT_FALSE(traffic::parseArrivalSpec(text, spec, error))
            << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(OffsetSamplerTest, UniformMatchesTheLegacyClientDraw)
{
    // The compatibility contract: the uniform sampler consumes
    // exactly one rng.below(span + 1) per sample, so pre-traffic
    // client histories replay bit-for-bit.
    const int64_t domain = 100000;
    OffsetSampler sampler(OffsetSpec{}, domain);
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 2000; ++i) {
        const int64_t span = domain - 1 - (i % 13);
        EXPECT_EQ(sampler.sample(a, span),
                  static_cast<int64_t>(b.below(
                      static_cast<uint64_t>(span + 1))));
    }
}

TEST(OffsetSamplerTest, ZipfIsSkewedBoundedAndDeterministic)
{
    const int64_t domain = 100000;
    const int64_t span = domain - 1;
    OffsetSpec spec;
    spec.kind = OffsetSpec::Kind::Zipf;
    spec.theta = 0.99;
    OffsetSampler sampler(spec, domain);

    const int draws = 20000;
    std::set<int64_t> zipf_distinct;
    Rng rng(11);
    Rng replay(11);
    for (int i = 0; i < draws; ++i) {
        const int64_t unit = sampler.sample(rng, span);
        ASSERT_GE(unit, 0);
        ASSERT_LE(unit, span);
        EXPECT_EQ(unit, sampler.sample(replay, span));
        zipf_distinct.insert(unit);
    }

    std::set<int64_t> uniform_distinct;
    OffsetSampler uniform(OffsetSpec{}, domain);
    Rng urng(11);
    for (int i = 0; i < draws; ++i)
        uniform_distinct.insert(uniform.sample(urng, span));

    // Skew concentrates the draws: far fewer distinct units than a
    // uniform workload touches in the same number of draws.
    EXPECT_LT(zipf_distinct.size() * 2, uniform_distinct.size());
}

/** zipfZeta(n, theta) equals the reference loop to the last bit. */
void
expectExactZeta(int64_t n, double theta)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(traffic::zipfZeta(n, theta)),
              std::bit_cast<uint64_t>(traffic::zipfZetaReference(n, theta)))
        << "theta " << theta << " n " << n;
}

TEST(ZipfZetaTest, MemoIsBitIdenticalToTheReferenceLoop)
{
    // Domains on and around the memo's 4096-term checkpoints. Large
    // first: one extension, then resumes from inner checkpoints.
    // Small first: every query extends the memo a little.
    for (double theta : {0.99, 0.5, 0.123}) {
        for (int64_t n : {100003, 65536, 8193, 8192, 4097, 4096, 4095, 1})
            expectExactZeta(n, theta);
    }
    for (double theta : {0.25, 0.75}) {
        for (int64_t n : {1, 4095, 4096, 4097, 8192, 8193, 65536, 100003})
            expectExactZeta(n, theta);
    }
}

TEST(ZipfZetaTest, ThetasPastTheMemoCapacityStayExact)
{
    for (int k = 1; k <= 40; ++k)
        expectExactZeta(5000 + 97 * k, 0.01 + 0.02 * k);
}

TEST(ZipfZetaTest, CertifiedWalkIsExactAtTheTunerDomains)
{
    // The tuner's 2-shard domain and the one its halved stripe unit
    // extends the memo to, past 2^16 where terms are certified rather
    // than computed. Then a query below the largest domain resumes from
    // an inner checkpoint, inside the certified range.
    for (double theta : {0.99, 0.5, 0.9, 0.999, 0.01}) {
        expectExactZeta(2274480, theta);
        expectExactZeta(4549184, theta);
    }
    for (double theta : {0.99, 0.01})
        expectExactZeta(3000001, theta);
}

TEST(ZipfZetaTest, QueriesAcrossTheDirectPrefixStayExact)
{
    // Small domains first, so the checkpoint that ends at 2^16, the
    // first one past it and a tail after it are each summed by one
    // extension.
    for (int64_t n : {65535, 65536, 65537, 69632, 70001})
        expectExactZeta(n, 0.4321);
}

TEST(ZipfZetaTest, LargeDomainsPastTheMemoCapacityStayExact)
{
    // Fill the memo, so a 17th theta is summed directly from term 1:
    // one walk from the plain prefix across 2^16 to the tuner's domain.
    for (int k = 0; k < 16; ++k)
        traffic::zipfZeta(1, 0.6 + 0.001 * k);
    expectExactZeta(4549184, 0.654321);
    expectExactZeta(65537, 0.654321);
}

TEST(ZipfZetaTest, ConcurrentLookupsAgreeWithTheReference)
{
    // A theta no other test uses, so the threads race to build its
    // checkpoints from nothing, each in a different order.
    const double theta = 0.777;
    const std::vector<int64_t> domains = {30001, 9000, 70000, 4096, 123457};
    const size_t count = domains.size();
    std::vector<double> got(4 * count);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = 0; i < count; ++i) {
                const size_t which = (i + t) % count;
                got[t * count + which] =
                    traffic::zipfZeta(domains[which], theta);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (size_t i = 0; i < got.size(); ++i) {
        const int64_t n = domains[i % count];
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(
                      traffic::zipfZetaReference(n, theta)))
            << "thread " << i / count << " n " << n;
    }
}

TEST(OffsetSamplerTest, ZipfDrawsMatchThePreMemoSampler)
{
    // FNV-1a over the first 20000 draws (seed 42, theta 0.99), pinned
    // from the sampler that summed zeta directly in its constructor.
    const std::pair<int64_t, uint64_t> pinned[] = {
        {1, 0x0ed9e7ee21f20da5ULL},
        {4096, 0x22c8d594d6733d42ULL},
        {4097, 0x826dca340f09ccc3ULL},
        {2300017, 0x5060c01148faad7fULL},
    };
    OffsetSpec spec;
    spec.kind = OffsetSpec::Kind::Zipf;
    spec.theta = 0.99;
    // Twice: the first pass may fill the memo, the second reads it.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &[domain, digest] : pinned) {
            const OffsetSampler sampler(spec, domain);
            Rng rng(42);
            uint64_t hash = 0xcbf29ce484222325ULL;
            for (int i = 0; i < 20000; ++i) {
                hash ^= static_cast<uint64_t>(
                    sampler.sample(rng, domain - 1));
                hash *= 0x100000001b3ULL;
            }
            EXPECT_EQ(hash, digest) << "domain " << domain;
        }
    }
}

TEST(OffsetSamplerTest, HotSpotPutsTheWeightOnTheHotRegion)
{
    const int64_t domain = 100000;
    const int64_t span = domain - 1;
    OffsetSpec spec;
    spec.kind = OffsetSpec::Kind::HotSpot;
    spec.hot_fraction = 0.01; // hot region = units [0, 1000)
    spec.hot_weight = 0.9;
    OffsetSampler sampler(spec, domain);

    const int draws = 40000;
    int hot = 0;
    Rng rng(3);
    for (int i = 0; i < draws; ++i) {
        const int64_t unit = sampler.sample(rng, span);
        ASSERT_GE(unit, 0);
        ASSERT_LE(unit, span);
        if (unit < 1000)
            ++hot;
    }
    EXPECT_NEAR(static_cast<double>(hot) / draws, 0.9, 0.02);
}

TEST(ArrivalSamplerTest, PoissonMatchesTheLegacyClientDraw)
{
    // Same contract as the uniform offsets: one exponential at the
    // base rate per arrival, identical to the pre-traffic open loop.
    const double rate_per_s = 150.0;
    ArrivalSampler sampler(ArrivalSpec{}, rate_per_s);
    Rng a(21);
    Rng b(21);
    double now = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const double gap = sampler.nextGapMs(a, now);
        EXPECT_DOUBLE_EQ(gap, b.exponential(1000.0 / rate_per_s));
        now += gap;
    }
}

TEST(ArrivalSamplerTest, SinglePhaseDiurnalReducesToPoisson)
{
    // With one phase at multiplier 1 the inversion integrates a
    // constant rate, so the gap is the same single draw Poisson
    // would produce.
    const double rate_per_s = 80.0;
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Diurnal;
    spec.phase_mult = {1.0};
    spec.phase_ms = 250.0;
    ArrivalSampler diurnal(spec, rate_per_s);
    ArrivalSampler poisson(ArrivalSpec{}, rate_per_s);
    Rng a(5);
    Rng b(5);
    double now = 0.0;
    for (int i = 0; i < 500; ++i) {
        const double gap_d = diurnal.nextGapMs(a, now);
        const double gap_p = poisson.nextGapMs(b, now);
        EXPECT_NEAR(gap_d, gap_p, 1e-9 * (1.0 + gap_p));
        now += gap_p;
    }
}

TEST(ArrivalSamplerTest, DiurnalLoadsBusyPhasesHarder)
{
    // Phases {4x, 0.25x}: arrivals land predominantly inside the
    // heavy phase. Count arrivals by phase over a long horizon.
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Diurnal;
    spec.phase_mult = {4.0, 0.25};
    spec.phase_ms = 500.0;
    ArrivalSampler sampler(spec, 100.0);
    Rng rng(17);
    double now = 0.0;
    int busy = 0;
    int total = 0;
    while (now < 60000.0) {
        const double gap = sampler.nextGapMs(rng, now);
        ASSERT_GT(gap, 0.0);
        now += gap;
        ++total;
        if (std::fmod(now, 1000.0) < 500.0)
            ++busy;
    }
    // 4 : 0.25 duty split -> ~94% of arrivals in the busy phase.
    EXPECT_GT(static_cast<double>(busy) / total, 0.85);
}

TEST(ArrivalSamplerTest, DiurnalFractionalPhasesKeepTheScheduleRate)
{
    // A walk whose cursor lands on a rounded phase boundary used to
    // re-derive the phase one short and stall there forever, so this
    // test is registered with a short ctest TIMEOUT.
    const double base_per_s = 1000.0;
    for (const char *text :
         {"diurnal:1,2@0.7", "diurnal:1,2@12.34",
          "diurnal:1,2@33.333333333333336"}) {
        SCOPED_TRACE(text);
        ArrivalSpec spec;
        std::string error;
        ASSERT_TRUE(traffic::parseArrivalSpec(text, spec, error))
            << error;
        ArrivalSampler sampler(spec, base_per_s);
        Rng rng(77);
        const int draws = 10000;
        double now = 0.0;
        for (int i = 0; i < draws; ++i) {
            const double gap = sampler.nextGapMs(rng, now);
            ASSERT_GE(gap, 0.0);
            now += gap;
        }
        // The schedule's average multiplier is 1.5.
        EXPECT_NEAR(draws / now / (1.5 * base_per_s / 1000.0), 1.0, 0.05);
    }
}

TEST(ArrivalSamplerTest, SpansTooShortToMoveTheClockAreRejected)
{
    ArrivalSpec spec;
    std::string error;
    EXPECT_FALSE(
        traffic::parseArrivalSpec("diurnal:1,2@1e-300", spec, error));
    EXPECT_NE(error.find("phase_ms"), std::string::npos) << error;
    EXPECT_FALSE(
        traffic::parseArrivalSpec("mmpp:8,1e-300,1e-300", spec, error));
    EXPECT_NE(error.find("calm_ms"), std::string::npos) << error;
    EXPECT_FALSE(
        traffic::parseArrivalSpec("mmpp:8,2000,1e-300", spec, error));
    EXPECT_NE(error.find("burst_ms"), std::string::npos) << error;
    EXPECT_EQ(error.find("calm_ms"), std::string::npos) << error;
    EXPECT_TRUE(traffic::parseArrivalSpec("diurnal:1,2@0.001", spec,
                                          error))
        << error;
}

TEST(ArrivalSamplerTest, MmppIsBurstyAndDeterministicPerSeed)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Mmpp;
    spec.burst_mult = 8.0;
    spec.calm_ms = 2000.0;
    spec.burst_ms = 400.0;

    ArrivalSampler sampler(spec, 100.0);
    ArrivalSampler replay(spec, 100.0);
    Rng a(9);
    Rng b(9);
    double now = 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    const int draws = 4000;
    for (int i = 0; i < draws; ++i) {
        const double gap = sampler.nextGapMs(a, now);
        ASSERT_GT(gap, 0.0);
        EXPECT_DOUBLE_EQ(gap, replay.nextGapMs(b, now));
        now += gap;
        sum += gap;
        sum_sq += gap * gap;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    // Poisson gaps have CV = 1; regime switching makes the gap
    // distribution overdispersed.
    EXPECT_GT(std::sqrt(var) / mean, 1.05);
}

TEST(TraceFormat, WriteThenParseRoundTripsExactly)
{
    std::vector<TraceRecord> records = {
        {0.0, AccessType::Read, 0, 1},
        {0.125, AccessType::Write, 12345, 6},
        {0.125, AccessType::Read, 7, 3}, // equal times are legal
        {9000.5, AccessType::Write, 99999999, 64},
    };
    std::ostringstream out;
    traffic::writeTrace(out, records);
    std::istringstream in(out.str());
    EXPECT_EQ(traffic::parseTrace(in), records);
}

TEST(TraceFormat, SkipsCommentsAndBlankLines)
{
    std::istringstream in("# preamble\n"
                          "\n"
                          "0.5 r 10 2  # trailing comment\n"
                          "   \n"
                          "1.5 w 20 1\n");
    std::vector<TraceRecord> records = traffic::parseTrace(in);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], (TraceRecord{0.5, AccessType::Read, 10, 2}));
    EXPECT_EQ(records[1],
              (TraceRecord{1.5, AccessType::Write, 20, 1}));
}

TEST(TraceFormat, RejectsMalformedLinesNamingTheLine)
{
    const char *bad[] = {
        "0 r 10\n",          // missing units
        "0 x 10 1\n",        // unknown op
        "0 r -1 1\n",        // negative offset
        "0 r 10 0\n",        // non-positive length
        "5 r 10 1\n1 r 0 1\n", // decreasing time
        "0 r 10 1 extra\n",  // trailing field
        "-1 r 10 1\n",       // negative time
    };
    for (const char *text : bad) {
        std::istringstream in(text);
        EXPECT_THROW(traffic::parseTrace(in), std::runtime_error)
            << text;
    }

    // Errors carry the offending line number.
    std::istringstream in("# header\n0.5 r 10 2\n1.0 q 3 1\n");
    try {
        traffic::parseTrace(in);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("line 3"),
                  std::string::npos)
            << error.what();
    }
}

TEST(TraceFormat, RejectsNumbersItCannotReadNamingTheLine)
{
    // The first four were once skipped as if blank, and a leading '+'
    // was accepted; every number now goes through spec_text.
    for (const char *bad :
         {"nan r 1 1", "inf w 0 1", "1e999 r 0 1", "abc w 0 1",
          "+0.5 r 1 1", "0.5 r +1 1", "0.5 r 1.5 1", "0.5 r 1 2.5"}) {
        std::istringstream in(std::string("0 r 0 1\n") + bad + "\n");
        try {
            traffic::parseTrace(in);
            ADD_FAILURE() << bad << " parsed";
        } catch (const std::runtime_error &error) {
            EXPECT_EQ(std::string(error.what()).rfind("trace line 2: ", 0),
                      0u)
                << bad << ": " << error.what();
        }
    }
}

TEST(TraceReplay, RejectsRecordsBeyondTheTarget)
{
    EventQueue events;
    Raid5Layout raid5(13);
    const DeviceModel &model = device::hp2247();
    ArrayController array(events, raid5, model, ArrayConfig{});
    TraceReplayWorkload replay(
        {{0.0, AccessType::Read, array.dataUnits(), 1}});
    EXPECT_THROW(replay.start(events, array), std::runtime_error);
}

/**
 * The loop the module exists to close: run a synthetic workload over
 * a captured array, format and re-parse the trace, replay it against
 * an identical fresh array, and land on the identical simulation --
 * same access count, same seek tallies.
 */
TEST(TraceReplay, CaptureFormatParseReplayReproducesTheSimulation)
{
    Raid5Layout raid5(13);
    const DeviceModel &model = device::hp2247();

    EventQueue record_events;
    ArrayController recorded(record_events, raid5, model,
                             ArrayConfig{});
    TraceCapture capture(record_events, recorded);
    OpenLoopConfig workload_config;
    workload_config.arrivals_per_s = 120.0;
    workload_config.warmup = 20;
    workload_config.samples = 180;
    workload_config.mix = {{1, AccessType::Read, 0.6},
                           {4, AccessType::Write, 0.3},
                           {8, AccessType::Read, 0.1}};
    OpenLoopClient producer(workload_config);
    producer.start(record_events, capture);
    record_events.runUntilEmpty();
    ASSERT_FALSE(capture.records().empty());

    std::ostringstream out;
    traffic::writeTrace(out, capture.records());
    std::istringstream in(out.str());
    std::vector<TraceRecord> parsed = traffic::parseTrace(in);
    ASSERT_EQ(parsed, capture.records());

    EventQueue replay_events;
    ArrayController fresh(replay_events, raid5, model, ArrayConfig{});
    TraceReplayWorkload replay(parsed);
    replay.start(replay_events, fresh);
    replay_events.runUntilEmpty();

    EXPECT_EQ(replay.completed(),
              static_cast<int64_t>(parsed.size()));
    EXPECT_EQ(fresh.accessesIssued(), recorded.accessesIssued());
    const SeekTally original = recorded.aggregateTally();
    const SeekTally replayed = fresh.aggregateTally();
    EXPECT_EQ(replayed.non_local, original.non_local);
    EXPECT_EQ(replayed.cylinder_switch, original.cylinder_switch);
    EXPECT_EQ(replayed.track_switch, original.track_switch);
    EXPECT_EQ(replayed.no_switch, original.no_switch);
    EXPECT_EQ(replay.latency().count(),
              static_cast<int64_t>(parsed.size()));
}

/**
 * Skewed offsets and bursty arrivals must not perturb the engine's
 * determinism contract: a volume workload on the engine's lanes
 * produces the identical result as on one shared queue, at every
 * count of worker threads running such scenarios at once.
 */
struct VolumeRun
{
    uint64_t volume_accesses = 0;
    int64_t samples = 0;
    double mean_response_ms = 0.0;
    double extra = 0.0; // workload-specific second statistic
};

template <typename MakeWorkload, typename Extract>
VolumeRun
runTrafficOnVolume(bool one_queue, MakeWorkload make_workload,
                   Extract extract)
{
    const int shards = 2;
    const double dispatch_ms = 2.0;
    std::vector<ShardSpec> specs(shards);
    for (ShardSpec &spec : specs)
        spec.layout_spec = "pddl:width=4";
    VolumeConfig vconfig;
    vconfig.chunk_units = 16;
    vconfig.dispatch_ms = dispatch_ms;
    ParallelEngine::Config engine_config;
    engine_config.lookahead = dispatch_ms;
    ParallelEngine engine(shards, engine_config);
    EventQueue queue;
    VolumeManager volume =
        one_queue ? VolumeManager(queue, std::move(specs), vconfig)
                  : VolumeManager(engine, std::move(specs), vconfig);

    auto workload = make_workload();
    if (one_queue) {
        workload->start(queue, volume);
        queue.runUntilEmpty();
    } else {
        startOnHub(*workload, engine, volume);
        engine.run();
    }

    VolumeRun run;
    run.volume_accesses = volume.volumeAccessesIssued();
    extract(*workload, run);
    return run;
}

/** Run `engine_run` on 1 and 4 worker threads at once; every copy
 * must match the one-queue `serial` run exactly. */
template <typename EngineRun>
void
expectEngineMatches(const VolumeRun &serial, EngineRun engine_run)
{
    for (int threads : {1, 4}) {
        std::vector<VolumeRun> runs(static_cast<size_t>(threads));
        harness::parallelFor(threads, runs.size(),
                             [&](size_t i) { runs[i] = engine_run(); });
        for (const VolumeRun &lanes : runs) {
            EXPECT_EQ(serial.volume_accesses, lanes.volume_accesses);
            EXPECT_EQ(serial.samples, lanes.samples);
            EXPECT_EQ(serial.mean_response_ms, lanes.mean_response_ms);
            EXPECT_EQ(serial.extra, lanes.extra);
        }
    }
}

TEST(ParallelTraffic, ZipfClosedLoopIsThreadCountInvariant)
{
    auto make = [] {
        ClosedLoopConfig config;
        config.clients = 6;
        config.access_units = 2;
        config.relative_tolerance = 0.0;
        config.min_samples = 300;
        config.max_samples = 300;
        config.warmup = 40;
        config.offsets.kind = OffsetSpec::Kind::Zipf;
        config.offsets.theta = 0.99;
        return std::make_unique<ClosedLoopClient>(config);
    };
    auto extract = [](ClosedLoopClient &client, VolumeRun &run) {
        SimResult result = client.result();
        run.samples = result.samples;
        run.mean_response_ms = result.mean_response_ms;
        run.extra = result.throughput_per_s;
    };
    const VolumeRun serial = runTrafficOnVolume(true, make, extract);
    expectEngineMatches(serial, [&] {
        return runTrafficOnVolume(false, make, extract);
    });
    // The sticky stopping rule measures in-flight completions after
    // it latches, so the count can exceed max_samples by at most the
    // client population.
    EXPECT_GE(serial.samples, 300);
}

TEST(ParallelTraffic, MmppOpenLoopIsThreadCountInvariant)
{
    auto make = [] {
        OpenLoopConfig config;
        config.arrivals_per_s = 300.0;
        config.warmup = 40;
        config.samples = 260;
        config.mix = {{1, AccessType::Read, 0.7},
                      {4, AccessType::Write, 0.3}};
        config.offsets.kind = OffsetSpec::Kind::HotSpot;
        config.offsets.hot_fraction = 0.01;
        config.offsets.hot_weight = 0.9;
        config.arrival.kind = ArrivalSpec::Kind::Mmpp;
        config.arrival.burst_mult = 8.0;
        config.arrival.calm_ms = 200.0;
        config.arrival.burst_ms = 50.0;
        return std::make_unique<OpenLoopClient>(config);
    };
    auto extract = [](OpenLoopClient &client, VolumeRun &run) {
        OpenLoopResult result = client.result();
        run.samples = result.samples;
        run.mean_response_ms = result.mean_response_ms;
        run.extra = result.completed_per_s;
    };
    const VolumeRun serial = runTrafficOnVolume(true, make, extract);
    expectEngineMatches(serial, [&] {
        return runTrafficOnVolume(false, make, extract);
    });
    EXPECT_EQ(serial.samples, 260);
}

} // namespace
} // namespace pddl
