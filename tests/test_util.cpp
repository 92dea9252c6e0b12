// Unit tests for the utility layer: RNG, statistics, strings, tables, CLI.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <set>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/proc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace cesrm::util {
namespace {

// ---------------------------------------------------------------- check ----

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(CESRM_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(CESRM_CHECK(false), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    CESRM_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 8));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 8);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(17);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform(0.0, 1.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForksAreDecorrelated) {
  Rng parent(43);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

// ---------------------------------------------------------------- stats ----

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, a, b;
  Rng rng(51);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-1.5, 7.5);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Sample, PercentileInterpolation) {
  Sample s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Sample, SingleValue) {
  Sample s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Sample, EmptyPercentileThrows) {
  Sample s;
  EXPECT_THROW(s.percentile(50), CheckError);
}

TEST(Sample, AddAfterPercentileInvalidatesCache) {
  Sample s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bucket 0
  h.add(9.9);   // bucket 4
  h.add(-3.0);  // clamps to 0
  h.add(42.0);  // clamps to 4
  h.add(5.0);   // bucket 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
}

// -------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  foo  bar\tbaz \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
}

TEST(Strings, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(12), "12");
  EXPECT_EQ(fmt_count(123), "123");
  EXPECT_EQ(fmt_count(1234), "1,234");
  EXPECT_EQ(fmt_duration_hms(3600), "1:00:00");
  EXPECT_EQ(fmt_duration_hms(5959), "1:39:19");
  EXPECT_EQ(fmt_duration_hms(61), "0:01:01");
}

// ---------------------------------------------------------------- table ----

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("Title");
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Rows align: every line between rules has the same length.
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RuleInsertedBetweenRows) {
  TextTable t;
  t.set_header({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.to_string();
  // Two rules total: one under the header, one between rows.
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = out.find("---", pos)) != std::string::npos;
       pos += 3)
    ++rules;
  EXPECT_GE(rules, 2u);
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, ParsesAllForms) {
  CliFlags flags("test");
  flags.add_int("count", 1, "");
  flags.add_double("rate", 0.5, "");
  flags.add_string("name", "x", "");
  flags.add_bool("verbose", false, "");
  const char* argv[] = {"prog", "--count=3", "--rate", "2.5", "--verbose",
                        "--name=hello", "positional"};
  ASSERT_TRUE(flags.parse(7, argv));
  EXPECT_EQ(flags.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
  EXPECT_EQ(flags.get_string("name"), "hello");
  EXPECT_TRUE(flags.get_bool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Cli, DefaultsHold) {
  CliFlags flags;
  flags.add_int("n", 7, "");
  flags.add_bool("b", true, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("n"), 7);
  EXPECT_TRUE(flags.get_bool("b"));
}

TEST(Cli, NoPrefixDisablesBool) {
  CliFlags flags;
  flags.add_bool("feature", true, "");
  const char* argv[] = {"prog", "--no-feature"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_FALSE(flags.get_bool("feature"));
}

TEST(Cli, UnknownFlagFails) {
  CliFlags flags;
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Cli, BadValueFails) {
  CliFlags flags;
  flags.add_int("n", 0, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Cli, TypeMismatchThrows) {
  CliFlags flags;
  flags.add_int("n", 0, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_THROW(flags.get_string("n"), CheckError);
  EXPECT_THROW(flags.get_int("missing"), CheckError);
}

// -------------------------------------------------------------- logging ----

TEST(Proc, ParseVmHwmWellFormed) {
  std::istringstream status(
      "Name:\tbench_scale\nVmPeak:\t  123456 kB\nVmHWM:\t   2048 kB\n"
      "VmRSS:\t   1024 kB\n");
  const auto hwm = parse_vm_hwm(status);
  ASSERT_TRUE(hwm.has_value());
  EXPECT_EQ(*hwm, 2048u * 1024u);
}

TEST(Proc, ParseVmHwmMissingLineIsNullopt) {
  std::istringstream status("Name:\tx\nVmRSS:\t 1024 kB\n");
  EXPECT_FALSE(parse_vm_hwm(status).has_value());
}

TEST(Proc, ParseVmHwmMalformedValueIsNullopt) {
  // A VmHWM line whose value is not a number must not read as 0 bytes.
  std::istringstream status("VmHWM:\tgarbage\n");
  EXPECT_FALSE(parse_vm_hwm(status).has_value());
}

TEST(Proc, ParseVmHwmEmptyStreamIsNullopt) {
  std::istringstream status("");
  EXPECT_FALSE(parse_vm_hwm(status).has_value());
}

TEST(Proc, PeakRssOnLinuxIsPlausible) {
  // The repo's platforms all have /proc; when present, the reading must be
  // a real measurement (a running process has a non-zero high-water mark).
  if (const auto rss = peak_rss_bytes()) {
    EXPECT_GT(*rss, 0u);
  }
}

TEST(Logging, ThresholdFilters) {
  const LogLevel saved = log_threshold();
  set_log_threshold(LogLevel::kError);
  // Below-threshold logging must not crash and is cheap.
  CESRM_LOG_DEBUG << "suppressed";
  CESRM_LOG_INFO << "suppressed";
  set_log_threshold(saved);
  SUCCEED();
}

TEST(Logging, ParseNames) {
  EXPECT_EQ(try_parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(try_parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(try_parse_log_level("bogus").has_value());
  EXPECT_EQ(log_level_spellings(), "trace, debug, info, warn, error, off");
  EXPECT_STREQ(log_level_name(LogLevel::kInfo), "INFO");
}

}  // namespace
}  // namespace cesrm::util
