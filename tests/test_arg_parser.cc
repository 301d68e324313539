/**
 * @file
 * ArgParser: the declarative flag parser behind every bench binary.
 */

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "harness/arg_parser.hh"

namespace pddl {
namespace harness {
namespace {

/** argv builder: parse() wants char *const *, tests want strings. */
bool
parseArgs(ArgParser &parser, std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>("prog"));
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data());
}

ArgParser
benchLikeParser()
{
    ArgParser parser("prog", "test parser");
    parser.addString("json", "DIR", "output directory");
    parser.addInt("threads", "N", "worker threads", 1);
    parser.addBool("verbose", "chatty output");
    return parser;
}

TEST(ArgParser, AcceptsBothFlagSpellings)
{
    ArgParser parser = benchLikeParser();
    ASSERT_TRUE(parseArgs(parser, {"--json", "out", "--threads=4",
                                   "--verbose"}));
    EXPECT_TRUE(parser.has("json"));
    EXPECT_EQ(parser.getString("json"), "out");
    EXPECT_EQ(parser.getInt("threads"), 4);
    EXPECT_TRUE(parser.getBool("verbose"));
    EXPECT_FALSE(parser.helpRequested());
}

TEST(ArgParser, FallbacksApplyWhenFlagsAbsent)
{
    ArgParser parser = benchLikeParser();
    ASSERT_TRUE(parseArgs(parser, {}));
    EXPECT_FALSE(parser.has("json"));
    EXPECT_EQ(parser.getString("json", "dflt"), "dflt");
    EXPECT_EQ(parser.getInt("threads", 8), 8);
    EXPECT_FALSE(parser.getBool("verbose"));
}

TEST(ArgParser, RejectsUnknownFlag)
{
    ArgParser parser = benchLikeParser();
    EXPECT_FALSE(parseArgs(parser, {"--bogus"}));
    EXPECT_NE(parser.error().find("--bogus"), std::string::npos);
}

TEST(ArgParser, RejectsMissingValue)
{
    ArgParser parser = benchLikeParser();
    EXPECT_FALSE(parseArgs(parser, {"--json"}));
    EXPECT_FALSE(parser.error().empty());
}

TEST(ArgParser, RejectsBadAndUndersizedIntegers)
{
    ArgParser parser = benchLikeParser();
    EXPECT_FALSE(parseArgs(parser, {"--threads", "four"}));

    ArgParser parser2 = benchLikeParser();
    EXPECT_FALSE(parseArgs(parser2, {"--threads", "0"}));
    EXPECT_FALSE(parser2.error().empty());
}

TEST(ArgParser, IntFlagsRejectWhatTheirStorageCannotHold)
{
    // A flag stored in an int declares INT_MAX as its maximum, so
    // --threads 4294967297 fails at the flag instead of running 1
    // thread; a long long flag keeps the full range.
    const struct
    {
        const char *value;
        bool ok;
    } cases[] = {
        {"2147483647", true},  {"2147483648", false},
        {"4294967297", false}, {"99999999999999999999", false},
        {"+4", false},         {" 4", false},
        {"4 ", false},         {"0x4", false},
        {"4.0", false},        {"", false},
        {"-1", false},
    };
    for (const auto &c : cases) {
        ArgParser parser("prog", "test parser");
        parser.addInt("threads", "N", "worker threads", 1, INT_MAX);
        EXPECT_EQ(parseArgs(parser, {"--threads", c.value}), c.ok)
            << "'" << c.value << "'";
        if (!c.ok) {
            EXPECT_NE(parser.error().find("'--threads " +
                                          std::string(c.value) + "'"),
                      std::string::npos)
                << parser.error();
        }
    }

    ArgParser wide("prog", "test parser");
    wide.addInt("seed", "N", "workload seed", 0);
    ASSERT_TRUE(parseArgs(wide, {"--seed", "9223372036854775807"}));
    EXPECT_EQ(wide.getInt("seed"), LLONG_MAX);
    ArgParser past("prog", "test parser");
    past.addInt("seed", "N", "workload seed", 0);
    EXPECT_FALSE(parseArgs(past, {"--seed=9223372036854775808"}));
    EXPECT_NE(past.error().find("--seed"), std::string::npos);
}

TEST(ArgParser, HelpShortCircuitsRequiredChecks)
{
    // --help/-h stop parsing at once: no later argument is checked.
    ArgParser parser = benchLikeParser();
    EXPECT_TRUE(parseArgs(parser, {"--help", "--bogus"}));
    EXPECT_TRUE(parser.helpRequested());
    EXPECT_TRUE(parser.error().empty());

    ArgParser parser2 = benchLikeParser();
    EXPECT_TRUE(parseArgs(parser2, {"-h", "--threads", "0"}));
    EXPECT_TRUE(parser2.helpRequested());
}

TEST(ArgParser, ValidatorAcceptsAndExposesValue)
{
    ArgParser parser("prog", "test parser");
    parser.addString("skew", "SPEC", "offset spec",
                     [](const std::string &value) {
                         return value.rfind("zipf:", 0) == 0
                                    ? std::string()
                                    : std::string(
                                          "expected zipf:<theta>");
                     });
    ASSERT_TRUE(parseArgs(parser, {"--skew", "zipf:0.99"}));
    EXPECT_EQ(parser.getString("skew"), "zipf:0.99");
}

TEST(ArgParser, ValidatorRejectsWithFlagAndComplaint)
{
    ArgParser parser("prog", "test parser");
    parser.addString("skew", "SPEC", "offset spec",
                     [](const std::string &value) {
                         return value.rfind("zipf:", 0) == 0
                                    ? std::string()
                                    : std::string(
                                          "expected zipf:<theta>");
                     });
    EXPECT_FALSE(parseArgs(parser, {"--skew", "bogus"}));
    // The error names the flag, echoes the value and carries the
    // validator's complaint.
    EXPECT_NE(parser.error().find("--skew"), std::string::npos);
    EXPECT_NE(parser.error().find("bogus"), std::string::npos);
    EXPECT_NE(parser.error().find("expected zipf:<theta>"),
              std::string::npos);
}

TEST(ArgParser, ValidatorRunsOnEqualsSpellingToo)
{
    ArgParser parser("prog", "test parser");
    parser.addString("trace", "PATH", "trace file",
                     [](const std::string &value) {
                         return value.empty()
                                    ? std::string("path is empty")
                                    : std::string();
                     });
    EXPECT_FALSE(parseArgs(parser, {"--trace="}));
    EXPECT_NE(parser.error().find("path is empty"),
              std::string::npos);

    ArgParser parser2("prog", "test parser");
    parser2.addString("trace", "PATH", "trace file",
                      [](const std::string &value) {
                          return value.empty()
                                     ? std::string("path is empty")
                                     : std::string();
                      });
    EXPECT_TRUE(parseArgs(parser2, {"--trace=t.txt"}));
    EXPECT_EQ(parser2.getString("trace"), "t.txt");
}

TEST(ArgParser, ValidatorNotConsultedWhenFlagAbsent)
{
    bool ran = false;
    ArgParser parser("prog", "test parser");
    parser.addString("skew", "SPEC", "offset spec",
                     [&ran](const std::string &) {
                         ran = true;
                         return std::string("never valid");
                     });
    parser.addBool("verbose", "chatty output");
    ASSERT_TRUE(parseArgs(parser, {"--verbose"}));
    EXPECT_FALSE(ran);
}

TEST(ArgParser, UsageListsFlagsAndEpilog)
{
    ArgParser parser = benchLikeParser();
    parser.setEpilog("Environment:\n  PDDL_BENCH_THREADS  workers");
    std::string usage = parser.usage();
    EXPECT_NE(usage.find("--json"), std::string::npos);
    EXPECT_NE(usage.find("--threads"), std::string::npos);
    EXPECT_NE(usage.find("--verbose"), std::string::npos);
    EXPECT_NE(usage.find("PDDL_BENCH_THREADS"), std::string::npos);
    EXPECT_NE(usage.find("test parser"), std::string::npos);
    // Every flag is optional, so the usage line brackets each one.
    EXPECT_NE(usage.find("usage: prog [--json <DIR>] [--threads <N>] "
                         "[--verbose] [--help]\n"),
              std::string::npos)
        << usage;
}

} // namespace
} // namespace harness
} // namespace pddl
