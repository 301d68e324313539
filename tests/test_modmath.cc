/**
 * @file
 * Unit tests for modular arithmetic, primality, primitive roots, the
 * exact floating-point remainder and the certified sum.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "disk/device_model.hh"
#include "util/modmath.hh"
#include "util/rng.hh"

namespace pddl {
namespace {

TEST(FloorMod, HandlesNegatives)
{
    EXPECT_EQ(floorMod(7, 5), 2);
    EXPECT_EQ(floorMod(-1, 5), 4);
    EXPECT_EQ(floorMod(-5, 5), 0);
    EXPECT_EQ(floorMod(0, 3), 0);
    EXPECT_EQ(floorMod(-13, 7), 1);
}

/** fmodExact(x, y) and std::fmod(x, y) agree bit for bit. */
::testing::AssertionResult
matchesFmod(double x, double y)
{
    const double got = fmodExact(x, y);
    const double want = std::fmod(x, y);
    if (std::memcmp(&got, &want, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hexfloat << "fmodExact(" << x << ", " << y
           << ") = " << got << ", std::fmod = " << want;
}

/** `x` and its nearest neighbours on both sides. */
void
expectNeighbourhoodMatches(double x, double y)
{
    EXPECT_TRUE(matchesFmod(x, y));
    EXPECT_TRUE(matchesFmod(std::nextafter(x, 0.0), y));
    EXPECT_TRUE(matchesFmod(std::nextafter(x, HUGE_VAL), y));
}

/** Revolution periods of the drive presets and a spread of rpms. */
std::vector<double>
drivePeriodsMs()
{
    std::vector<double> periods;
    for (const char *text :
         {"hp2247", "hdd", "hdd:rpm=4200", "hdd:rpm=5400",
          "hdd:rpm=7200.5", "hdd:rpm=10000", "hdd:rpm=15000"}) {
        std::shared_ptr<const DeviceModel> model =
            device::makeDevice(text);
        periods.push_back(
            dynamic_cast<const HddDeviceModel &>(*model).revolutionMs());
    }
    return periods;
}

constexpr double kTwoTo52 = 4503599627370496.0;

TEST(FmodExact, MatchesLibraryOnRandomQuotients)
{
    Rng rng(0xf00d);
    for (double y : drivePeriodsMs()) {
        SCOPED_TRACE(y);
        for (int i = 0; i < 40000; ++i) {
            // Quotients from every binade below 2^52: the simulated
            // clock sweeps all of them over a long run.
            const double quotient =
                std::exp2(rng.uniform() * 52.0) * rng.uniform();
            if (quotient >= kTwoTo52)
                continue;
            expectNeighbourhoodMatches(quotient * y, y);
        }
    }
}

TEST(FmodExact, MatchesLibraryAtExactMultiples)
{
    // Just below a multiple the rounded quotient reaches the whole
    // number, and only the correction step gets the remainder right.
    Rng rng(0xbeef);
    for (double y : drivePeriodsMs()) {
        SCOPED_TRACE(y);
        for (int k = 0; k <= 2000; ++k)
            expectNeighbourhoodMatches(k * y, y);
        for (int i = 0; i < 40000; ++i) {
            const double k = std::floor(
                std::exp2(rng.uniform() * 52.0) * rng.uniform());
            if (k >= kTwoTo52)
                continue;
            expectNeighbourhoodMatches(k * y, y);
        }
    }
}

TEST(FmodExact, ZeroBelowAndAtThePeriod)
{
    for (double y : drivePeriodsMs()) {
        SCOPED_TRACE(y);
        EXPECT_TRUE(matchesFmod(0.0, y));
        EXPECT_FALSE(std::signbit(fmodExact(0.0, y)));
        EXPECT_TRUE(matchesFmod(std::numeric_limits<double>::denorm_min(),
                                y));
        EXPECT_TRUE(matchesFmod(y / 3.0, y));
        EXPECT_TRUE(matchesFmod(std::nextafter(y, 0.0), y));
        EXPECT_EQ(fmodExact(std::nextafter(y, 0.0), y),
                  std::nextafter(y, 0.0));
        EXPECT_TRUE(matchesFmod(y, y));
        EXPECT_EQ(fmodExact(y, y), 0.0);
    }
}

TEST(FmodExact, LargeQuotientsAndOddArgumentsTakeTheLibraryPath)
{
    const double inf = HUGE_VAL;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double y : drivePeriodsMs()) {
        SCOPED_TRACE(y);
        for (double quotient : {kTwoTo52, kTwoTo52 + 2.0, 2.0 * kTwoTo52,
                                1e17, 1e300 / y}) {
            expectNeighbourhoodMatches(quotient * y, y);
        }
        EXPECT_TRUE(matchesFmod(-1234.5, y));
        EXPECT_TRUE(matchesFmod(-0.0, y));
        EXPECT_TRUE(matchesFmod(inf, y));
        EXPECT_TRUE(matchesFmod(nan, y));
        EXPECT_TRUE(matchesFmod(1234.5, -y));
    }
    // Past 2^53 whole numbers near the quotient are no longer exact.
    expectNeighbourhoodMatches(1e15, 0.1);
    EXPECT_TRUE(matchesFmod(1234.5, inf));
    EXPECT_TRUE(matchesFmod(1234.5, 0.0));
    EXPECT_TRUE(matchesFmod(1234.5, nan));
    EXPECT_TRUE(matchesFmod(inf, inf));
}

constexpr double kTwoToMinus55 = 0x1p-55;

/**
 * addCertified(sum, term, error) with the outcome `certified`; when
 * it certifies, the new sum is sum + term.
 */
void
expectCertified(double sum, double term, double error, bool certified)
{
    SCOPED_TRACE(::testing::Message()
                 << std::hexfloat << sum << " + " << term << " within "
                 << error);
    double got = sum;
    EXPECT_EQ(addCertified(got, term, error), certified);
    EXPECT_EQ(std::bit_cast<uint64_t>(got),
              std::bit_cast<uint64_t>(certified ? sum + term : sum));
}

TEST(AddCertified, PowerOfTwoSumFromBelow)
{
    // 1.75 + (0.25 - 2^-55) rounds up to 2, whose lower neighbour is
    // only 2^-52 away: the midpoint sits 4 * 2^-55 below 2.
    const double term = 0.25 - kTwoToMinus55;
    expectCertified(1.75, term, 0.0, true);
    expectCertified(1.75, term, 2 * kTwoToMinus55, true);
    expectCertified(1.75, term, 3 * kTwoToMinus55, false);
    // Three quanta below with two of slack would pass a test that took
    // ulp(2) / 2 as the half gap, yet the term five quanta below rounds
    // to the lower neighbour.
    expectCertified(1.75, 0.25 - 3 * kTwoToMinus55, 2 * kTwoToMinus55,
                    false);
    EXPECT_LT(1.75 + (0.25 - 5 * kTwoToMinus55), 2.0);
}

TEST(AddCertified, PowerOfTwoSumFromAbove)
{
    // 1.875 + (0.125 + 2^-55) rounds down to 2; the half gap is taken
    // as ulp(2) / 4 on both sides.
    const double term = 0.125 + kTwoToMinus55;
    expectCertified(1.875, term, 0.0, true);
    expectCertified(1.875, term, 2 * kTwoToMinus55, true);
    expectCertified(1.875, term, 3 * kTwoToMinus55, false);
}

TEST(AddCertified, ExactTiesAreRefused)
{
    // 1.5 + ulp(1.5) / 2 is a tie between 1.5 and its upper neighbour;
    // 1.5 + 3 ulp / 2 one between two neighbours above it.
    expectCertified(1.5, 0x1p-53, 0.0, false);
    expectCertified(1.5, 3 * 0x1p-53, 0.0, false);
    // Just inside the tie, and just inside it with no room to spare.
    expectCertified(1.5, 0x1p-53 - 0x1p-60, 0.0, true);
    expectCertified(1.5, 0x1p-53 - 0x1p-60, 0x1p-60, false);
}

TEST(AddCertified, ExactSumsLeaveHalfAGapOfSlack)
{
    // 1.5 + 0.25 is exact: the residual is zero, so any error below
    // half of ulp(1.75), 2^-53, passes.
    expectCertified(1.5, 0.25, 0.0, true);
    expectCertified(1.5, 0.25, std::nextafter(0x1p-53, 0.0), true);
    expectCertified(1.5, 0.25, 0x1p-53, false);
    expectCertified(1.0, 0.0, 0.0, true);
}

TEST(AddCertified, OddSumsAreRefused)
{
    const double inf = HUGE_VAL;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double tiny = std::numeric_limits<double>::denorm_min();
    expectCertified(tiny, tiny, 0.0, false);
    expectCertified(inf, 1.0, 0.0, false);
    expectCertified(std::numeric_limits<double>::max(),
                    std::numeric_limits<double>::max(), 0.0, false);
    expectCertified(nan, 1.0, 0.0, false);
    expectCertified(1.0, 0.5, nan, false);
}

TEST(AddCertified, EveryTermWithinTheErrorRoundsAlike)
{
    // Terms in [0.5, 1) share the quantum 2^-53, so term +- k quanta is
    // exact; sums in [1, 256) have half gaps of 1/2 to 128 quanta, so a
    // slack of up to 64 quanta both passes and fails often.
    Rng rng(0xadd5);
    constexpr double kQuantum = 0x1p-53;
    int certified = 0;
    for (int i = 0; i < 20000; ++i) {
        const double sum = std::exp2(rng.uniform() * 8.0);
        const double term =
            0.5 + (std::floor(rng.uniform() * 0x1p51) + 64.0) * kQuantum;
        const int k = static_cast<int>(rng.below(65));
        double got = sum;
        if (!addCertified(got, term, k * kQuantum))
            continue;
        ++certified;
        for (int j = -k; j <= k; ++j) {
            ASSERT_EQ(sum + (term + j * kQuantum), got)
                << std::hexfloat << sum << " + " << term << " + " << j
                << " quanta";
        }
    }
    EXPECT_GT(certified, 2000);
    EXPECT_LT(certified, 18000);
}

TEST(PowMod, MatchesDirectComputation)
{
    EXPECT_EQ(powMod(3, 0, 7), 1);
    EXPECT_EQ(powMod(3, 1, 7), 3);
    EXPECT_EQ(powMod(3, 2, 7), 2);
    EXPECT_EQ(powMod(3, 3, 7), 6);
    EXPECT_EQ(powMod(3, 4, 7), 4);
    EXPECT_EQ(powMod(3, 5, 7), 5);
    EXPECT_EQ(powMod(2, 10, 1000), 24);
}

TEST(PowMod, LargeExponents)
{
    // Fermat: a^(p-1) = 1 mod p.
    for (int64_t p : {101, 1009, 999983}) {
        for (int64_t a : {2, 3, 5, 7}) {
            EXPECT_EQ(powMod(a, p - 1, p), 1) << a << "^" << p - 1;
        }
    }
}

TEST(Gcd, BasicIdentities)
{
    EXPECT_EQ(gcd(12, 18), 6);
    EXPECT_EQ(gcd(17, 5), 1);
    EXPECT_EQ(gcd(0, 9), 9);
    EXPECT_EQ(gcd(9, 0), 9);
    EXPECT_EQ(gcd(-12, 18), 6);
}

TEST(IsPrime, SmallValues)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(4));
    EXPECT_TRUE(isPrime(13));
    EXPECT_FALSE(isPrime(55));
    EXPECT_TRUE(isPrime(101));
    EXPECT_FALSE(isPrime(1001)); // 7 * 11 * 13
}

TEST(IsPrime, AgreesWithSieve)
{
    std::vector<bool> composite(2000, false);
    for (int i = 2; i < 2000; ++i) {
        if (composite[i])
            continue;
        for (int j = 2 * i; j < 2000; j += i)
            composite[j] = true;
    }
    for (int i = 2; i < 2000; ++i)
        EXPECT_EQ(isPrime(i), !composite[i]) << i;
}

TEST(Factorize, RecomposesProduct)
{
    for (int64_t n : {2, 12, 97, 360, 1024, 9973, 720720}) {
        int64_t product = 1;
        for (const auto &[p, e] : factorize(n)) {
            EXPECT_TRUE(isPrime(p));
            for (int i = 0; i < e; ++i)
                product *= p;
        }
        EXPECT_EQ(product, n);
    }
}

TEST(IsPrimePower, DetectsPowers)
{
    int64_t p;
    int e;
    EXPECT_TRUE(isPrimePower(8, &p, &e));
    EXPECT_EQ(p, 2);
    EXPECT_EQ(e, 3);
    EXPECT_TRUE(isPrimePower(27, &p, &e));
    EXPECT_EQ(p, 3);
    EXPECT_EQ(e, 3);
    EXPECT_TRUE(isPrimePower(13, &p, &e));
    EXPECT_EQ(e, 1);
    EXPECT_FALSE(isPrimePower(12));
    EXPECT_FALSE(isPrimePower(1));
}

TEST(PrimitiveRoot, PaperExample)
{
    // Section 3: "3 is a primitive element" of Z_7, and it is also
    // the smallest.
    EXPECT_EQ(primitiveRoot(7), 3);
}

TEST(PrimitiveRoot, HasFullOrder)
{
    for (int64_t p : {5, 7, 11, 13, 31, 61, 101}) {
        int64_t g = primitiveRoot(p);
        ASSERT_GT(g, 0);
        EXPECT_EQ(multiplicativeOrder(g, p), p - 1) << "p=" << p;
    }
}

TEST(PrimitiveRoot, RejectsComposites)
{
    EXPECT_EQ(primitiveRoot(12), -1);
    EXPECT_EQ(primitiveRoot(55), -1);
}

TEST(InvModPrime, Inverts)
{
    for (int64_t p : {7, 13, 101}) {
        for (int64_t a = 1; a < p; ++a)
            EXPECT_EQ(mulMod(a, invModPrime(a, p), p), 1);
    }
}

class PrimitiveRootEveryPrime : public ::testing::TestWithParam<int>
{
};

TEST_P(PrimitiveRootEveryPrime, GeneratesAllResidues)
{
    int64_t p = GetParam();
    int64_t g = primitiveRoot(p);
    std::vector<bool> seen(p, false);
    int64_t v = 1;
    for (int64_t i = 0; i < p - 1; ++i) {
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
        v = mulMod(v, g, p);
    }
    for (int64_t r = 1; r < p; ++r)
        EXPECT_TRUE(seen[r]) << "residue " << r << " not generated";
}

INSTANTIATE_TEST_SUITE_P(ArraySizedPrimes, PrimitiveRootEveryPrime,
                         ::testing::Values(5, 7, 11, 13, 17, 19, 23, 29,
                                           31, 37, 41, 43, 47, 53, 59,
                                           61, 67, 71, 73, 79, 83, 89,
                                           97, 101));

} // namespace
} // namespace pddl
