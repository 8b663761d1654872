#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/cli.h"
#include "util/csv.h"
#include "util/expects.h"
#include "util/table.h"

namespace ssplane {
namespace {

TEST(Csv, HeaderAndRows)
{
    std::ostringstream out;
    csv_writer csv(out, {"a", "b"});
    csv.row({1.0, 2.5});
    csv.row({3.0, -4.0});
    EXPECT_EQ(out.str(), "a,b\n1,2.5\n3,-4\n");
}

TEST(Csv, RowWidthMismatchThrows)
{
    std::ostringstream out;
    csv_writer csv(out, {"a", "b"});
    EXPECT_THROW(csv.row({1.0}), contract_violation);
    EXPECT_THROW(csv.row_text({"x", "y", "z"}), contract_violation);
}

TEST(Csv, EscapesTextCellsPerRfc4180)
{
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("São Paulo"), "São Paulo");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");

    std::ostringstream out;
    csv_writer csv(out, {"name", "v"});
    csv.row_text({"attack, 2 planes", "1"});
    EXPECT_EQ(out.str(), "name,v\n\"attack, 2 planes\",1\n");
}

TEST(Csv, FormatNumberCompact)
{
    EXPECT_EQ(format_number(1.0), "1");
    EXPECT_EQ(format_number(0.5), "0.5");
    EXPECT_EQ(format_number(1e9, 4), "1e+09");
    EXPECT_EQ(format_number(std::nan("")), "nan");
}

TEST(Table, AlignsColumns)
{
    table_printer t({"name", "value"});
    t.row({"x", "1"});
    t.row({format_number(2.0), format_number(34.5)});
    std::ostringstream out;
    t.print(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("34.5"), std::string::npos);
    // Header, separator and two rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Cli, ParsesOptionsAndIgnoresPositional)
{
    const char* argv[] = {"prog", "--alpha=1.5", "--flag", "input.txt", "--name=x"};
    cli_args args(5, argv);
    EXPECT_TRUE(args.has("alpha"));
    EXPECT_TRUE(args.has("flag"));
    EXPECT_FALSE(args.has("missing"));
    EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0, 0.0, 10.0), 1.5);
    EXPECT_EQ(args.get("name", ""), "x");
    EXPECT_FALSE(args.has("input.txt"));
}

TEST(Cli, NumbersParseWholeWithinAnInclusiveRange)
{
    const char* argv[] = {"prog", "--a=1.5", "--b=-2.5e3", "--c=86399.5", "--d=0",
                          "--e=2"};
    const cli_args args(6, argv);
    EXPECT_EQ(args.get_double("a", 0.0, 0.0, 2.0), 1.5);
    EXPECT_EQ(args.get_double("b", 0.0, -1.0e4, 0.0), -2500.0);
    EXPECT_EQ(args.get_double("c", 0.0, 0.0, 86400.0), 86399.5);
    EXPECT_EQ(args.get_double("d", 7.0, 0.0, 2.0), 0.0);
    EXPECT_EQ(args.get_double("e", 7.0, 0.0, 2.0), 2.0);
    EXPECT_EQ(args.get_double("absent", 2.5, 0.0, 2.0), 2.5);
}

TEST(Cli, RejectsAnythingButAFiniteNumberInRangeNamingTheFlag)
{
    for (const char* bad : {"abc", "", "nan", "-nan", "inf", "-inf", "1e400", "1.5x",
                            "1.5 ", " 1.5", "+1.5", "0x1", "2.5", "-0.5"}) {
        const std::string flag = std::string("--bandwidth=") + bad;
        const char* argv[] = {"prog", flag.c_str()};
        const cli_args args(2, argv);
        try {
            args.get_double("bandwidth", 1.0, 0.0, 2.0);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("--bandwidth"), std::string::npos)
                << error.what();
        }
    }
}

TEST(Cli, WholeNumbersParseExactlyOverTheFullRange)
{
    const char* argv[] = {"prog", "--zero=0", "--top=18446744073709551615",
                          "--odd=9007199254740993"};
    const cli_args args(4, argv);
    EXPECT_EQ(args.get_uint("zero", 7), 0u);
    EXPECT_EQ(args.get_uint("top", 7), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(args.get_uint("odd", 7), 9007199254740993u); // 2^53 + 1
    EXPECT_EQ(args.get_uint("absent", 7), 7u);
}

TEST(Cli, RejectsAnythingButAWholeNumberNamingTheFlag)
{
    for (const char* bad : {"-1", "1.5", "nan", "1e30", "18446744073709551616", "",
                            "+1", " 1", "0x10"}) {
        const std::string flag = std::string("--seed=") + bad;
        const char* argv[] = {"prog", flag.c_str()};
        const cli_args args(2, argv);
        try {
            args.get_uint("seed", 1);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("--seed"), std::string::npos)
                << error.what();
        }
    }
}

TEST(Cli, WholeNumbersOutsideTheirRangeAreRejected)
{
    const char* argv[] = {"prog", "--sessions=0", "--n=11"};
    const cli_args args(3, argv);
    EXPECT_THROW(args.get_uint("sessions", 1, 1), std::invalid_argument);
    EXPECT_THROW(args.get_uint("n", 1, 0, 10), std::invalid_argument);
    EXPECT_EQ(args.get_uint("n", 1, 0, 11), 11u);
}

TEST(Expects, ThrowsWithMessage)
{
    try {
        expects(false, "my message");
        FAIL() << "expects should have thrown";
    } catch (const contract_violation& e) {
        EXPECT_STREQ(e.what(), "my message");
    }
    EXPECT_NO_THROW(expects(true));
    EXPECT_THROW(ensures(false), contract_violation);
}

} // namespace
} // namespace ssplane
