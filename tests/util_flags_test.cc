#include "src/util/flags.h"

#include <gtest/gtest.h>

namespace tcs {
namespace {

FlagSet Make(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return FlagSet(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetTest, EqualsAndSpaceForms) {
  FlagSet f = Make({"--os=tse", "--sinks", "10"});
  ASSERT_TRUE(f.ok()) << f.error();
  EXPECT_EQ(f.GetString("os"), "tse");
  EXPECT_EQ(f.GetInt("sinks"), 10);
}

TEST(FlagSetTest, BareBooleanFlag) {
  FlagSet f = Make({"--protect", "--csv=false"});
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f.GetBool("protect"));
  EXPECT_FALSE(f.GetBool("csv"));
  EXPECT_FALSE(f.GetBool("absent"));
  EXPECT_TRUE(f.GetBool("absent", true));
}

TEST(FlagSetTest, PositionalArguments) {
  FlagSet f = Make({"replay", "trace.txt", "--protocol=x"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.Positional(0), "replay");
  EXPECT_EQ(f.Positional(1), "trace.txt");
  EXPECT_EQ(f.Positional(2), "");
  EXPECT_EQ(f.GetString("protocol"), "x");
  EXPECT_TRUE(f.Check()) << f.error();
}

TEST(FlagSetTest, UnreadPositionalArgumentIsError) {
  FlagSet f = Make({"rtt", "oops", "extra"});
  EXPECT_EQ(f.Positional(0), "rtt");
  EXPECT_TRUE(f.ok());  // like flags, only Check() knows what was read
  EXPECT_FALSE(f.Check());
  EXPECT_EQ(f.error(), "unexpected argument 'oops'");
}

TEST(FlagSetTest, UnknownFlagIsError) {
  FlagSet f = Make({"--bogus=1"});
  EXPECT_EQ(f.GetString("os", "tse"), "tse");
  EXPECT_TRUE(f.ok());  // parsing accepts any name; only Check() knows what was read
  EXPECT_FALSE(f.Check());
  EXPECT_NE(f.error().find("unknown flag --bogus"), std::string::npos);
}

TEST(FlagSetTest, FailFailsTheCheck) {
  FlagSet f = Make({"--os=beos"});
  f.Fail("unknown --os 'beos'");
  f.Fail("a later error");
  f.GetString("os");
  EXPECT_FALSE(f.Check());
  EXPECT_EQ(f.error(), "unknown --os 'beos'");
}

TEST(FlagSetTest, DuplicateFlagIsError) {
  FlagSet f = Make({"--os=a", "--os=b"});
  EXPECT_FALSE(f.ok());
  EXPECT_NE(f.error().find("twice"), std::string::npos);
}

TEST(FlagSetTest, MalformedIntReported) {
  FlagSet f = Make({"--sinks=ten"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.GetInt("sinks", 7), 7);
  EXPECT_FALSE(f.ok());
  EXPECT_FALSE(f.Check());
  EXPECT_NE(f.error().find("expects an integer, got 'ten'"), std::string::npos);
}

TEST(FlagSetTest, MalformedDoubleReported) {
  FlagSet f = Make({"--mbps=fast"});
  f.GetDouble("mbps");
  EXPECT_FALSE(f.ok());
}

TEST(FlagSetTest, MalformedBoolReported) {
  FlagSet f = Make({"--csv=maybe"});
  f.GetBool("csv");
  EXPECT_FALSE(f.ok());
}

TEST(FlagSetTest, DefaultsWhenAbsent) {
  FlagSet f = Make({});
  EXPECT_EQ(f.GetString("os", "linux"), "linux");
  EXPECT_EQ(f.GetInt("sinks", 3), 3);
  EXPECT_DOUBLE_EQ(f.GetDouble("mbps", 1.5), 1.5);
  EXPECT_TRUE(f.ok());
}

TEST(FlagSetTest, FlagValueStartingWithDashesTreatedAsFlag) {
  // `--os --csv`: --os becomes bare-boolean "true" and --csv is its own flag.
  FlagSet f = Make({"--os", "--csv"});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.GetString("os"), "true");
  EXPECT_TRUE(f.GetBool("csv"));
}

}  // namespace
}  // namespace tcs
