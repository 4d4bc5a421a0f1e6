#include "support/options.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <array>

namespace spar::support {
namespace {

Options make(std::initializer_list<const char*> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, EqualsForm) {
  const Options opt = make({"--n=100", "--eps=0.5"});
  EXPECT_EQ(opt.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(opt.get_double("eps", 0.0), 0.5);
}

TEST(Options, SpaceForm) {
  const Options opt = make({"--n", "42"});
  EXPECT_EQ(opt.get_int("n", 0), 42);
}

TEST(Options, BooleanFlag) {
  const Options opt = make({"--verbose"});
  EXPECT_TRUE(opt.get_bool("verbose", false));
  EXPECT_FALSE(opt.get_bool("quiet", false));
}

TEST(Options, FallbacksWhenMissing) {
  const Options opt = make({});
  EXPECT_EQ(opt.get("name", "default"), "default");
  EXPECT_EQ(opt.get_int("n", -3), -3);
  EXPECT_DOUBLE_EQ(opt.get_double("x", 2.5), 2.5);
}

TEST(Options, PositionalArguments) {
  const Options opt = make({"input.txt", "--n=5", "output.txt"});
  ASSERT_EQ(opt.positional().size(), 2u);
  EXPECT_EQ(opt.positional()[0], "input.txt");
  EXPECT_EQ(opt.positional()[1], "output.txt");
}

TEST(Options, HasDetectsPresence) {
  const Options opt = make({"--flag", "--k=3"});
  EXPECT_TRUE(opt.has("flag"));
  EXPECT_TRUE(opt.has("k"));
  EXPECT_FALSE(opt.has("missing"));
}

TEST(Options, BoolAcceptsSeveralSpellings) {
  EXPECT_TRUE(make({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=no"}).get_bool("a", true));
}

TEST(Options, RejectUnknownNamesTheStrayFlag) {
  const Options opt = make({"--n=5", "--max-bach=8", "--quick", "input.txt"});
  EXPECT_NO_THROW(opt.reject_unknown({"n", "max-bach", "quick"}));
  try {
    opt.reject_unknown({"n", "max-batch", "quick"});
    FAIL() << "an unknown flag must throw";
  } catch (const spar::Error& e) {
    EXPECT_NE(std::string(e.what()).find("--max-bach"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace spar::support
