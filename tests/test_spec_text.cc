/**
 * @file
 * Tests for the shared number grammar of spec strings, ScenarioSpec
 * fields and flags: whole-string decimal integers with exact range
 * checks, finite reals, the key=value reader and the shortest
 * round-trip formatter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <string>
#include <vector>

#include "util/spec_text.hh"

namespace pddl {
namespace {

using spec_text::KeyValues;
using spec_text::numStr;
using spec_text::parseInt;
using spec_text::parseReal;

TEST(SpecText, IntAcceptsTheWholeRangeOfEachType)
{
    int i = 0;
    EXPECT_TRUE(parseInt("2147483647", i));
    EXPECT_EQ(i, std::numeric_limits<int>::max());
    EXPECT_TRUE(parseInt("-2147483648", i));
    EXPECT_EQ(i, std::numeric_limits<int>::min());
    EXPECT_TRUE(parseInt("007", i));
    EXPECT_EQ(i, 7);

    int64_t s = 0;
    EXPECT_TRUE(parseInt("9223372036854775807", s));
    EXPECT_EQ(s, std::numeric_limits<int64_t>::max());
    EXPECT_TRUE(parseInt("-9223372036854775808", s));
    EXPECT_EQ(s, std::numeric_limits<int64_t>::min());

    uint64_t u = 0;
    EXPECT_TRUE(parseInt("18446744073709551615", u));
    EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(parseInt("0", u));
    EXPECT_EQ(u, 0u);
}

TEST(SpecText, IntRejectsOverflowInsteadOfWrappingOrClamping)
{
    int i = 42;
    EXPECT_FALSE(parseInt("2147483648", i));
    EXPECT_FALSE(parseInt("-2147483649", i));
    EXPECT_FALSE(parseInt("4294967300", i)); // wraps to 4 as int
    int64_t s = 42;
    EXPECT_FALSE(parseInt("9223372036854775808", s));
    EXPECT_FALSE(parseInt("99999999999999999999", s));
    uint64_t u = 42;
    EXPECT_FALSE(parseInt("18446744073709551616", u));
    // A failed read leaves the destination untouched.
    EXPECT_EQ(i, 42);
    EXPECT_EQ(s, 42);
    EXPECT_EQ(u, 42u);
}

TEST(SpecText, IntRejectsSignsSpacesHexAndEmptyText)
{
    const char *const bad[] = {
        "", "-", "+1", " 1", "1 ", "\t1", "0x10", "1e3", "1.0", "1,",
        "--1", "1-", "one",
    };
    for (const char *text : bad) {
        int i = 42;
        EXPECT_FALSE(parseInt(text, i)) << "'" << text << "'";
        EXPECT_EQ(i, 42) << text;
    }
    // A minus sign is for signed targets only.
    uint64_t u = 42;
    EXPECT_FALSE(parseInt("-1", u));
    EXPECT_FALSE(parseInt("-0", u));
    EXPECT_EQ(u, 42u);
    int i = 42;
    EXPECT_TRUE(parseInt("-0", i));
    EXPECT_EQ(i, 0);
}

TEST(SpecText, IntHonoursAnExplicitRange)
{
    int i = 0;
    EXPECT_TRUE(parseInt("2", i, 2, 10));
    EXPECT_TRUE(parseInt("10", i, 2, 10));
    EXPECT_FALSE(parseInt("1", i, 2, 10));
    EXPECT_FALSE(parseInt("11", i, 2, 10));
    EXPECT_EQ(i, 10);
}

TEST(SpecText, RealAcceptsDecimalsWithStrtodBits)
{
    const char *const good[] = {
        "0", "-0", "1", "0.5", ".5", "1.", "1e3", "1E-3", "1.2e+02",
        "0.12345678", "0.59999999999999998", "5400", "4.9e-324",
        "1.7976931348623157e308",
    };
    for (const char *text : good) {
        double value = -1.0;
        ASSERT_TRUE(parseReal(text, value)) << text;
        EXPECT_EQ(value, std::strtod(text, nullptr)) << text;
    }
}

TEST(SpecText, RealRejectsNonFiniteOverflowAndJunk)
{
    const char *const bad[] = {
        "nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999",
        "-1e999", "1e-400", "", "-", "+1", " 1", "1 ", "0x1p3", "1e",
        "1.2.3", "1,5", "abc",
    };
    for (const char *text : bad) {
        double value = 42.0;
        EXPECT_FALSE(parseReal(text, value)) << "'" << text << "'";
        EXPECT_EQ(value, 42.0) << text;
    }
}

TEST(SpecText, RealListSplitsOnCommasAndRejectsEmptyFields)
{
    std::vector<double> values;
    ASSERT_TRUE(spec_text::parseRealList("0.25,1,2.5", values));
    EXPECT_EQ(values, (std::vector<double>{0.25, 1.0, 2.5}));
    ASSERT_TRUE(spec_text::parseRealList("4", values));
    EXPECT_EQ(values, (std::vector<double>{4.0}));
    for (const char *text : {"", ",", "1,", ",1", "1,,2", "1,nan",
                             "inf,1", "1,1e999"}) {
        EXPECT_FALSE(spec_text::parseRealList(text, values)) << text;
    }
}

TEST(SpecText, ExactIntNeedsAWholeNumberThatFits)
{
    int i = 42;
    EXPECT_TRUE(spec_text::exactInt(13.0, i));
    EXPECT_EQ(i, 13);
    EXPECT_TRUE(spec_text::exactInt(int64_t{-5}, i));
    EXPECT_EQ(i, -5);
    EXPECT_FALSE(spec_text::exactInt(2.7, i));
    EXPECT_FALSE(spec_text::exactInt(2147483648.0, i));
    EXPECT_FALSE(spec_text::exactInt(-2147483649.0, i));
    EXPECT_FALSE(spec_text::exactInt(int64_t{4294967309}, i));
    EXPECT_FALSE(spec_text::exactInt(int64_t{-4294967292}, i));
    EXPECT_FALSE(spec_text::exactInt(
        std::numeric_limits<double>::quiet_NaN(), i));
    EXPECT_FALSE(spec_text::exactInt(
        std::numeric_limits<double>::infinity(), i));
    EXPECT_EQ(i, -5);

    int64_t s = 0;
    EXPECT_TRUE(spec_text::exactInt(-9223372036854775808.0, s));
    EXPECT_EQ(s, std::numeric_limits<int64_t>::min());
    EXPECT_FALSE(spec_text::exactInt(9223372036854775808.0, s));
    EXPECT_FALSE(spec_text::exactInt(1e300, s));
    uint64_t u = 0;
    EXPECT_FALSE(spec_text::exactInt(-1.0, u));
    EXPECT_FALSE(spec_text::exactInt(int64_t{-1}, u));
}

TEST(SpecText, KeyValuesReadsRegisteredKeysAndReportsPresence)
{
    KeyValues params;
    std::string error;
    ASSERT_TRUE(params.parse("b=2.5,a=7", "fam", {"a", "b", "c"},
                             error))
        << error;
    EXPECT_TRUE(params.has("a"));
    EXPECT_TRUE(params.has("b"));
    EXPECT_FALSE(params.has("c"));
    EXPECT_EQ(params.value("b"), "2.5");
    EXPECT_EQ(params.value("c"), "");

    int a = 0;
    double b = 0.0;
    int c = 99; // absent: the default survives
    EXPECT_TRUE(params.readInt("a", a, error));
    EXPECT_TRUE(params.readReal("b", b, error));
    EXPECT_TRUE(params.readInt("c", c, error));
    EXPECT_EQ(a, 7);
    EXPECT_EQ(b, 2.5);
    EXPECT_EQ(c, 99);

    // An empty body is legal and gives nothing.
    ASSERT_TRUE(params.parse("", "fam", {"a"}, error));
    EXPECT_FALSE(params.has("a"));
}

TEST(SpecText, KeyValuesRejectsMalformedUnknownAndDuplicateKeys)
{
    const struct
    {
        const char *body;
        const char *expect;
    } cases[] = {
        {"a=1,a=2", "duplicate fam parameter 'a'"},
        {"=1", "expected key=value"},
        {"a=", "expected key=value"},
        {"a", "expected key=value"},
        {"a=1,", "expected key=value, got ''"},
        {",a=1", "expected key=value, got ''"},
        {"a=1,,b=2", "expected key=value, got ''"},
        {"z=1", "unknown fam parameter 'z'"},
        {"A=1", "unknown fam parameter 'A'"},
    };
    for (const auto &c : cases) {
        KeyValues params;
        std::string error;
        EXPECT_FALSE(params.parse(c.body, "fam", {"a", "b"}, error))
            << c.body;
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << c.body << ": " << error;
    }
}

TEST(SpecText, KeyValuesTypedReadsNameTheKey)
{
    KeyValues params;
    std::string error;
    ASSERT_TRUE(params.parse("n=4294967300,x=nan,m=-1", "fam",
                             {"n", "x", "m"}, error));
    int n = 4;
    EXPECT_FALSE(params.readInt("n", n, error));
    EXPECT_NE(error.find("n must be an integer in [-2147483648, "
                         "2147483647], got '4294967300'"),
              std::string::npos)
        << error;
    EXPECT_EQ(n, 4);
    double x = 1.0;
    EXPECT_FALSE(params.readReal("x", x, error));
    EXPECT_NE(error.find("x must be a finite number, got 'nan'"),
              std::string::npos)
        << error;
    EXPECT_EQ(x, 1.0);
    int m = 8;
    EXPECT_FALSE(params.readInt("m", m, error, 1));
    EXPECT_NE(error.find("m must be an integer in [1, "),
              std::string::npos)
        << error;
    EXPECT_EQ(m, 8);
}

TEST(SpecText, SplitFamilyCutsAtTheFirstColon)
{
    std::string_view family, body;
    spec_text::splitFamily("draid:width=4,seed=1", family, body);
    EXPECT_EQ(family, "draid");
    EXPECT_EQ(body, "width=4,seed=1");
    spec_text::splitFamily("raid5", family, body);
    EXPECT_EQ(family, "raid5");
    EXPECT_EQ(body, "");
    spec_text::splitFamily("a:b:c", family, body);
    EXPECT_EQ(family, "a");
    EXPECT_EQ(body, "b:c");
}

TEST(SpecText, NumStrIsTheShortestRoundTrip)
{
    EXPECT_EQ(numStr(7200.0), "7.2e+03"); // %.2g, not "7200"
    EXPECT_EQ(numStr(7201.0), "7201");
    EXPECT_EQ(numStr(0.5), "0.5");
    EXPECT_EQ(numStr(120.0), "1.2e+02");
    EXPECT_EQ(numStr(3.25), "3.25");
    EXPECT_EQ(numStr(0.12345678), "0.12345678");
    EXPECT_EQ(numStr(0.1 + 0.2), "0.30000000000000004");
    for (double v : {0.99, 0.1, 1e-300, 4.9e-324, 1.7976931348623157e308,
                     -2.5, 1.0 / 3.0, 5400.0}) {
        double back = 0.0;
        ASSERT_TRUE(parseReal(numStr(v), back)) << v;
        EXPECT_EQ(back, v) << numStr(v);
    }
}

TEST(SpecText, NumStrMatchesPercentGOnShortFractions)
{
    // The offset registry used %g; every value in (0, 1] with at most
    // six significant digits prints the same text under numStr, so
    // the canonical offset specs the repo writes keep their bytes.
    for (int digits = 1; digits <= 6; ++digits) {
        for (int step = 1; step <= 997; step += 7) {
            const double v = step / 997.0;
            char rounded[64];
            std::snprintf(rounded, sizeof(rounded), "%.*g", digits, v);
            const double w = std::strtod(rounded, nullptr);
            if (!(w > 0.0 && w <= 1.0))
                continue;
            char percent_g[64];
            std::snprintf(percent_g, sizeof(percent_g), "%g", w);
            EXPECT_EQ(numStr(w), percent_g) << rounded;
        }
    }
}

} // namespace
} // namespace pddl
