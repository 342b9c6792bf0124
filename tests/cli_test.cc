#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "util/units.h"

using namespace dcbatt;

namespace {

/** Run @p flags over @p args, prefixed by a program name. */
void
parse(const cli::Flags &flags, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    flags.parse(static_cast<int>(argv.size()), argv.data());
}

/** How many help lines start with flag @p name. */
int
helpLinesFor(const std::string &help, const std::string &name)
{
    std::istringstream lines(help);
    int count = 0;
    for (std::string line; std::getline(lines, line);) {
        std::istringstream words(line);
        std::string first;
        words >> first;
        count += first == name ? 1 : 0;
    }
    return count;
}

TEST(CliParseInteger, AcceptsWholeIntegersInRange)
{
    EXPECT_EQ(cli::parseInteger("--n", "42", 0, 100), 42);
    EXPECT_EQ(cli::parseInteger("--n", "-7", -10, 10), -7);
    EXPECT_EQ(cli::parseInteger("--n", "0", 0, 0), 0);
    EXPECT_EQ(cli::parseInteger("--n", "9223372036854775807", 0,
                                LLONG_MAX),
              LLONG_MAX);
}

TEST(CliParseInteger, RejectsTrailingGarbage)
{
    EXPECT_EXIT(cli::parseInteger("--racks", "16x", 1, INT_MAX),
                ::testing::ExitedWithCode(1),
                "fatal: --racks: '16x' is not an integer in "
                "\\[1, 2147483647\\]");
    EXPECT_EXIT(cli::parseInteger("--racks", "1.5", 1, INT_MAX),
                ::testing::ExitedWithCode(1), "'1.5' is not an integer");
}

TEST(CliParseInteger, RejectsEmptyValue)
{
    EXPECT_EXIT(cli::parseInteger("--msbs", "", 0, 10),
                ::testing::ExitedWithCode(1),
                "fatal: --msbs: '' is not an integer");
}

TEST(CliParseInteger, RejectsOverflow)
{
    EXPECT_EXIT(cli::parseInteger("--seed", "99999999999999999999", 0,
                                  LLONG_MAX),
                ::testing::ExitedWithCode(1),
                "'99999999999999999999' is not an integer");
}

TEST(CliParseInteger, RangeBoundsAreInclusive)
{
    EXPECT_EQ(cli::parseInteger("--t", "1", 1, 8), 1);
    EXPECT_EQ(cli::parseInteger("--t", "8", 1, 8), 8);
    EXPECT_EXIT(cli::parseInteger("--t", "0", 1, 8),
                ::testing::ExitedWithCode(1),
                "fatal: --t: '0' is not an integer in \\[1, 8\\]");
    EXPECT_EXIT(cli::parseInteger("--t", "9", 1, 8),
                ::testing::ExitedWithCode(1), "'9' is not an integer");
}

TEST(CliParseDouble, AcceptsFiniteNumbers)
{
    EXPECT_EQ(cli::parseDouble("--x", "2.5"), 2.5);
    EXPECT_EQ(cli::parseDouble("--x", "-1e3"), -1000.0);
    EXPECT_EQ(cli::parseDouble("--x", "7"), 7.0);
}

TEST(CliParseDouble, RejectsTrailingGarbageAndEmpty)
{
    EXPECT_EXIT(cli::parseDouble("--limit-mw", "2.3x"),
                ::testing::ExitedWithCode(1),
                "fatal: --limit-mw: '2.3x' is not a finite number");
    EXPECT_EXIT(cli::parseDouble("--dod", ""),
                ::testing::ExitedWithCode(1),
                "fatal: --dod: '' is not a finite number");
}

TEST(CliParseDouble, RejectsOverflowInfAndNan)
{
    for (const char *text : {"1e999", "inf", "-inf", "nan", "NaN"}) {
        EXPECT_EXIT(cli::parseDouble("--dod", text),
                    ::testing::ExitedWithCode(1),
                    "is not a finite number")
            << text;
    }
}

TEST(CliFlags, FillsTypedTargets)
{
    int count = 0;
    std::size_t windows = 0;
    std::optional<int> p1;
    std::optional<int> p2;
    double dod = 0.5;
    util::Watts budget{0.0};
    std::optional<util::Seconds> audit;
    std::string path;
    bool verbose = false;
    std::string policy;
    cli::Flags flags;
    flags.addInt("--count", &count, "count");
    flags.addInt("--windows", &windows, "windows");
    flags.addInt("--p1", &p1, "p1");
    flags.addInt("--p2", &p2, "p2");
    flags.addDouble("--dod", &dod, "dod");
    flags.addDouble("--budget-mw", &budget, "budget", 1e6);
    flags.addDouble("--audit-hours", &audit, "audit", 3600.0);
    flags.addString("--out", &path, "PATH", "out");
    flags.addSwitch("--verbose", &verbose, "verbose");
    flags.add("--policy", "NAME", "policy",
              [&policy](const char *, const char *text) {
                  policy = text;
              });
    parse(flags, {"--count", "-3", "--windows", "1200", "--p1", "89",
                  "--dod", "0.7", "--budget-mw", "1.68", "--audit-hours",
                  "0.5", "--out", "a.json", "--verbose", "--policy",
                  "pa"});
    EXPECT_EQ(count, -3);
    EXPECT_EQ(windows, 1200u);
    EXPECT_EQ(p1, 89);
    EXPECT_FALSE(p2.has_value());
    EXPECT_EQ(dod, 0.7);
    EXPECT_EQ(budget, util::megawatts(1.68));
    ASSERT_TRUE(audit.has_value());
    EXPECT_EQ(*audit, util::hours(0.5));
    EXPECT_EQ(path, "a.json");
    EXPECT_TRUE(verbose);
    EXPECT_EQ(policy, "pa");
}

TEST(CliFlags, IntegerTargetsDefaultToTheirTypeRange)
{
    int value = 0;
    unsigned count = 0;
    cli::Flags flags;
    flags.addInt("--value", &value, "value");
    flags.addInt("--count", &count, "count");
    EXPECT_EXIT(parse(flags, {"--value", "2147483648"}),
                ::testing::ExitedWithCode(1),
                "in \\[-2147483648, 2147483647\\]");
    EXPECT_EXIT(parse(flags, {"--count", "-1"}),
                ::testing::ExitedWithCode(1),
                "fatal: --count: '-1' is not an integer in "
                "\\[0, 4294967295\\]");
}

TEST(CliFlags, ExplicitRangeBounds)
{
    int threads = 0;
    cli::Flags flags;
    flags.addInt("--threads", &threads, "threads", 0, 64);
    parse(flags, {"--threads", "64"});
    EXPECT_EQ(threads, 64);
    EXPECT_EXIT(parse(flags, {"--threads", "-1"}),
                ::testing::ExitedWithCode(1),
                "fatal: --threads: '-1' is not an integer in \\[0, 64\\]");
}

TEST(CliFlags, ValueMissingAtEndIsFatal)
{
    int racks = 0;
    cli::Flags flags;
    flags.addInt("--racks", &racks, "racks");
    EXPECT_EXIT(parse(flags, {"--racks"}), ::testing::ExitedWithCode(1),
                "fatal: flag --racks needs a value");
}

TEST(CliFlags, SwitchDoesNotConsumeTheNextToken)
{
    bool verbose = false;
    int racks = 0;
    cli::Flags flags;
    flags.addSwitch("--verbose", &verbose, "verbose");
    flags.addInt("--racks", &racks, "racks");
    parse(flags, {"--verbose", "--racks", "16"});
    EXPECT_TRUE(verbose);
    EXPECT_EQ(racks, 16);
    EXPECT_EXIT(parse(flags, {"--verbose", "16"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown flag: 16 \\(try --help\\)");
}

TEST(CliFlags, UnknownFlagIsFatal)
{
    cli::Flags flags;
    EXPECT_EXIT(parse(flags, {"--single-queue"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown flag: --single-queue \\(try --help\\)");
}

TEST(CliFlags, HelpExitsZero)
{
    cli::Flags flags;
    EXPECT_EXIT(parse(flags, {"--help"}), ::testing::ExitedWithCode(0),
                "");
    EXPECT_EXIT(parse(flags, {"-h"}), ::testing::ExitedWithCode(0), "");
}

TEST(CliFlags, HelpListsEveryRegisteredFlagOnce)
{
    int racks = 0;
    double dod = 0.0;
    std::string csv;
    bool verbose = false;
    cli::Flags flags;
    flags.addInt("--racks", &racks, "fleet size");
    flags.addDouble("--dod", &dod, "target mean DOD,\nsecond line");
    flags.addString("--csv", &csv, "PATH", "series");
    flags.addSwitch("--verbose", &verbose, "debug logging");
    cli::Observability observability;
    observability.addFlags(flags, 60.0);

    std::string help = flags.help("prog");
    EXPECT_EQ(help.rfind("usage: prog [flags]\n", 0), 0u);
    for (const char *name :
         {"--racks", "--dod", "--csv", "--verbose", "--metrics-json",
          "--trace-out", "--timeseries-out", "--timeseries-cadence",
          "--timeseries-mode", "--events-out", "--crash-dir", "--help"}) {
        EXPECT_EQ(helpLinesFor(help, name), 1) << name << "\n" << help;
    }
    EXPECT_NE(help.find("  --racks N "), std::string::npos);
    EXPECT_NE(help.find("  --csv PATH "), std::string::npos);
    EXPECT_NE(help.find("(default 60)"), std::string::npos);
}

TEST(CliFlags, RegisteringAFlagTwiceIsABug)
{
    int a = 0;
    cli::Flags flags;
    flags.addInt("--a", &a, "a");
    EXPECT_DEATH(flags.addInt("--a", &a, "again"), "registered twice");
}

TEST(CliObservability, ValidatesTimeSeriesFlags)
{
    cli::Flags flags;
    cli::Observability observability;
    observability.addFlags(flags);
    EXPECT_EXIT(parse(flags, {"--timeseries-cadence", "0"}),
                ::testing::ExitedWithCode(1),
                "fatal: --timeseries-cadence must be positive");
    EXPECT_EXIT(parse(flags, {"--timeseries-cadence", "5s"}),
                ::testing::ExitedWithCode(1),
                "fatal: --timeseries-cadence: '5s' is not a finite number");
    EXPECT_EXIT(parse(flags, {"--timeseries-mode", "fifo"}),
                ::testing::ExitedWithCode(1),
                "fatal: --timeseries-mode must be decimate or ring");
}

TEST(CliObservability, CrashDirFlagWinsOverEnvironment)
{
    // Arming installs a process-wide crash sink, so run it in a child.
    EXPECT_EXIT(
        {
            setenv("DCBATT_CRASH_DIR", "/nonexistent/env", 1);
            cli::Flags flags;
            cli::Observability observability;
            observability.addFlags(flags);
            parse(flags, {"--crash-dir", "/nonexistent/flag"});
            observability.arm();
            std::exit(observability.crashDir() == "/nonexistent/flag" ? 3
                                                                      : 4);
        },
        ::testing::ExitedWithCode(3), "");
    EXPECT_EXIT(
        {
            setenv("DCBATT_CRASH_DIR", "/nonexistent/env", 1);
            cli::Observability observability;
            observability.arm();
            std::exit(observability.crashDir() == "/nonexistent/env" ? 3
                                                                     : 4);
        },
        ::testing::ExitedWithCode(3), "");
}

} // namespace
