#include "util/time.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

namespace ethergrid {
namespace {

TEST(TimeTest, ConstructorsScaleCorrectly) {
  EXPECT_EQ(usec(5).count(), 5);
  EXPECT_EQ(msec(5).count(), 5000);
  EXPECT_EQ(sec(5).count(), 5000000);
  EXPECT_EQ(sec(0.5).count(), 500000);
  EXPECT_EQ(minutes(2).count(), 120000000);
  EXPECT_EQ(hours(1).count(), 3600000000LL);
}

TEST(TimeTest, ToSecondsRoundTrips) {
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_seconds(msec(1500)), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(kEpoch + sec(7)), 7.0);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t = kEpoch + sec(10);
  EXPECT_EQ((t + sec(5)) - t, sec(5));
  EXPECT_LT(t, t + usec(1));
}

struct DurationCase {
  const char* text;
  std::int64_t expected_us;
};

// Print the case as its text: the default byte dump includes the address
// of `text`, which changes from run to run and so would rename the case.
void PrintTo(const DurationCase& c, std::ostream* os) {
  *os << '"' << c.text << '"';
}

class ParseDurationTest : public ::testing::TestWithParam<DurationCase> {};

TEST_P(ParseDurationTest, Parses) {
  Duration d;
  ASSERT_TRUE(parse_duration(GetParam().text, &d)) << GetParam().text;
  EXPECT_EQ(d.count(), GetParam().expected_us) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    PaperPhrases, ParseDurationTest,
    ::testing::Values(
        DurationCase{"30 minutes", 30LL * 60 * 1000000},
        DurationCase{"1 hour", 3600LL * 1000000},
        DurationCase{"5 minutes", 300LL * 1000000},
        DurationCase{"60 seconds", 60LL * 1000000},
        DurationCase{"900 seconds", 900LL * 1000000},
        DurationCase{"5 seconds", 5LL * 1000000},
        DurationCase{"1 minute", 60LL * 1000000}));

INSTANTIATE_TEST_SUITE_P(
    ShortForms, ParseDurationTest,
    ::testing::Values(DurationCase{"5s", 5000000}, DurationCase{"5 s", 5000000},
                      DurationCase{"10m", 600000000},
                      DurationCase{"2h", 7200000000LL},
                      DurationCase{"1d", 86400000000LL},
                      DurationCase{"250ms", 250000},
                      DurationCase{"1.5s", 1500000},
                      DurationCase{"0.5 hours", 1800000000LL}));

INSTANTIATE_TEST_SUITE_P(
    Compound, ParseDurationTest,
    ::testing::Values(DurationCase{"1h30m", 5400000000LL},
                      DurationCase{"1 hour 30 minutes", 5400000000LL},
                      DurationCase{"2m 30s", 150000000},
                      DurationCase{"1m1s", 61000000}));

INSTANTIATE_TEST_SUITE_P(
    BareNumbersAreSeconds, ParseDurationTest,
    ::testing::Values(DurationCase{"5", 5000000}, DurationCase{"0", 0},
                      DurationCase{"3.25", 3250000}));

class ParseDurationRejectTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ParseDurationRejectTest, Rejects) {
  Duration d;
  EXPECT_FALSE(parse_duration(GetParam(), &d)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, ParseDurationRejectTest,
                         ::testing::Values("", "  ", "abc", "5 lightyears",
                                           "minutes", "5 5 minutes x",
                                           "--3s"));

TEST(FormatDurationTest, RendersHumanReadably) {
  EXPECT_EQ(format_duration(usec(500)), "500us");
  EXPECT_EQ(format_duration(msec(5)), "5ms");
  EXPECT_EQ(format_duration(sec(5)), "5s");
  EXPECT_EQ(format_duration(sec(90)), "1m30s");
  EXPECT_EQ(format_duration(hours(2) + minutes(5)), "2h5m");
}

}  // namespace
}  // namespace ethergrid
