/**
 * @file
 * Unit tests of the statistics package.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace tg {
namespace {

TEST(Sampler, BasicMoments)
{
    Sampler s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(Sampler, ExactQuantiles)
{
    Sampler s;
    for (int i = 1; i <= 100; ++i)
        s.sample(i);
    EXPECT_NEAR(s.quantile(0.5), 50, 1);
    EXPECT_NEAR(s.quantile(0.99), 99, 1);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100);
}

TEST(Sampler, QuantileLinearInterpolation)
{
    // Regression: quantile() used nearest-rank rounding, so quantiles
    // between sample points snapped to one of them.  With linear
    // interpolation the values are exact.
    Sampler s;
    for (double v : {10.0, 20.0, 30.0, 40.0})
        s.sample(v);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 17.5); // pos 0.75 between 10 and 20
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 25.0);  // midpoint of 20 and 30
    EXPECT_DOUBLE_EQ(s.quantile(0.75), 32.5);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);

    Sampler two;
    two.sample(0.0);
    two.sample(100.0);
    EXPECT_DOUBLE_EQ(two.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(two.quantile(0.99), 99.0);
}

TEST(Sampler, StddevStableUnderLargeOffset)
{
    // Regression: stddev() accumulated sum-of-squares, which cancels
    // catastrophically when the mean dwarfs the spread.  Welford's
    // update keeps full precision.
    Sampler s;
    const double base = 1e9;
    for (double v : {base + 1, base + 2, base + 3})
        s.sample(v);
    EXPECT_NEAR(s.stddev(), 1.0, 1e-6);
    EXPECT_DOUBLE_EQ(s.mean(), base + 2);

    // Same spread without the offset must agree.
    Sampler small;
    for (double v : {1.0, 2.0, 3.0})
        small.sample(v);
    EXPECT_NEAR(s.stddev(), small.stddev(), 1e-6);
}

TEST(Sampler, QuantileInterleavedWithSampling)
{
    Sampler s;
    s.sample(3);
    s.sample(1);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 3);
    s.sample(10); // re-sorts lazily
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 10);
}

TEST(Sampler, EmptyIsSafe)
{
    Sampler s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Sampler, QuantileClampsOutOfRangeQ)
{
    // Regression: q outside [0,1] fed the interpolation index arithmetic
    // directly; it must clamp to the extremes instead.
    Sampler s;
    for (double v : {10.0, 20.0, 30.0})
        s.sample(v);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 30.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.5), 30.0);
    EXPECT_DOUBLE_EQ(s.quantile(42.0), 30.0);
    EXPECT_DOUBLE_EQ(s.quantile(-0.5), 10.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(s.quantile(nan), 10.0);
}

TEST(Sampler, QuantileSingleSample)
{
    // Regression: n == 1 is its own case — every quantile is the sample,
    // with no interpolation index arithmetic involved.
    Sampler s;
    s.sample(7.5);
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0, 1.5, -1.0})
        EXPECT_DOUBLE_EQ(s.quantile(q), 7.5) << "q=" << q;
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10.0, 4); // [0,10) [10,20) [20,30) [30,inf)
    h.sample(5);
    h.sample(15);
    h.sample(25);
    h.sample(1000);
    h.sample(-3); // clamps to first bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(StatRegistry, DumpAndLookup)
{
    StatRegistry reg;
    double a = 3;
    Histogram h;
    h.sample(1);
    h.sample(2);
    reg.add("alpha.count", &a);
    reg.add("beta.latency", &h);

    EXPECT_EQ(reg.find("alpha.count"), 3.0);
    EXPECT_FALSE(reg.find("missing").has_value());

    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha.count"), std::string::npos);
    EXPECT_NE(out.find("beta.latency.count"), std::string::npos);
    // A histogram is not a scalar.
    EXPECT_FALSE(reg.find("beta.latency").has_value());
}

TEST(StatRegistry, HistogramsRegisterDumpAndExport)
{
    // Regression: Histogram existed but StatRegistry had no overload for
    // it, so registered histograms were silently dropped from every
    // report.
    StatRegistry reg;
    Histogram h(10.0, 4);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    reg.add("tc.wait_hist", &h);

    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("tc.wait_hist"), std::string::npos);
    EXPECT_NE(out.find("bucket[0,10)"), std::string::npos) << out;
    EXPECT_NE(out.find("bucket[10,20)"), std::string::npos) << out;
    // Empty buckets are elided.
    EXPECT_EQ(out.find("bucket[20,30)"), std::string::npos) << out;
}

TEST(StatRegistry, DumpJsonCoversAllStatKinds)
{
    StatRegistry reg;
    double a = 3;
    std::vector<int> v{1, 2};
    Histogram h(10.0, 2);
    h.sample(5);
    reg.add("alpha.count", &a);
    reg.add("beta.size", &v,
            [](const std::vector<int> &x) { return x.size(); });
    reg.add("gamma.hist", &h);

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string out = os.str();
    EXPECT_EQ(out.rfind("{\"schema\":\"tg-stats-v2\",\"scalars\":{", 0), 0u)
        << out;
    EXPECT_NE(out.find("\"alpha.count\":3,\"beta.size\":2},"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("},\"histograms\":{\"gamma.hist\":"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"buckets\":[1,0]"), std::string::npos) << out;
    EXPECT_EQ(out.find("samplers"), std::string::npos) << out;

    // Two dumps of the same registry are byte-identical (determinism).
    std::ostringstream again;
    reg.dumpJson(again);
    EXPECT_EQ(out, again.str());
}

TEST(StatRegistry, LargeCountersRenderExactly)
{
    // Regression: dump() streamed doubles at the default 6 significant
    // digits (12345678 came out as 1.23457e+07) and dumpJson() at 12, so
    // event counts and bus-busy ticks lost their low digits.
    StatRegistry reg;
    std::uint64_t events = 12345678;
    std::uint64_t busy = 1234567890123;
    double half = 0.5;
    reg.add("sim.events", &events);
    reg.add("tc.busy_ticks", &busy);
    reg.add("x.half", &half);

    std::ostringstream text;
    reg.dump(text);
    EXPECT_NE(text.str().find(" 12345678\n"), std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find(" 1234567890123\n"), std::string::npos);
    EXPECT_NE(text.str().find(" 0.5\n"), std::string::npos);
    EXPECT_EQ(text.str().find("e+"), std::string::npos) << text.str();

    std::ostringstream json;
    reg.dumpJson(json);
    EXPECT_NE(json.str().find("\"sim.events\":12345678,"),
              std::string::npos)
        << json.str();
    EXPECT_NE(json.str().find("\"tc.busy_ticks\":1234567890123,"),
              std::string::npos)
        << json.str();
}

TEST(StatRegistry, FormulasReadLiveValuesAsScalars)
{
    StatRegistry reg;
    const std::string owner = "node0.cache";
    std::uint64_t hits = 3;
    std::vector<int> lines{1, 2};
    reg.add({owner, "hits"}, &hits);
    reg.add({owner, "lines"}, &lines,
            [](const std::vector<int> &v) { return v.size(); });
    hits = 7;
    lines.push_back(3);

    EXPECT_EQ(reg.find("node0.cache.hits"), 7.0);
    EXPECT_EQ(reg.find("node0.cache.lines"), 3.0);
    EXPECT_FALSE(reg.find("node0.cache.misses").has_value());
    EXPECT_FALSE(reg.find("node0.cache").has_value());
    EXPECT_FALSE(reg.find("node0.cachehits").has_value());

    std::ostringstream json;
    reg.dumpJson(json);
    EXPECT_NE(json.str().find("\"scalars\":{\"node0.cache.hits\":7,"
                              "\"node0.cache.lines\":3}"),
              std::string::npos)
        << json.str();
}

TEST(StatRegistry, ReRegistrationReplacesTheEntry)
{
    StatRegistry reg;
    double old_value = 1;
    double new_value = 2;
    reg.add("a.b", &old_value);
    reg.add("a.b", &new_value);
    EXPECT_EQ(reg.find("a.b"), 2.0);

    std::ostringstream text;
    reg.dump(text);
    EXPECT_EQ(text.str().find(" 1\n"), std::string::npos) << text.str();
    EXPECT_NE(text.str().find(" 2\n"), std::string::npos) << text.str();
}

/** One of each stat kind, registered on construction. */
struct Counters
{
    std::uint64_t big = 0;
    std::int64_t neg = 0;
    double third = 0;
    double tiny = 0;
    Histogram hist{2.5, 3};
    std::vector<int> lines;

    explicit Counters(StatRegistry &reg)
    {
        reg.add("c.big", &big);
        reg.add("c.neg", &neg);
        reg.add("c.third", &third);
        reg.add("c.tiny", &tiny);
        reg.add("c.hist", &hist);
        reg.add("c.lines", &lines,
                [](const std::vector<int> &v) { return v.size(); });
    }
};

std::string
saved(const StatRegistry &reg)
{
    std::ostringstream os;
    reg.save(os);
    return os.str();
}

TEST(StatRegistry, SaveRestoreRoundTripsFieldsAndHistograms)
{
    StatRegistry from_reg;
    Counters from(from_reg);
    from.big = (std::uint64_t(1) << 60) + 3; // not a double
    from.neg = -7;
    from.third = 1.0 / 3.0;
    from.tiny = -0x1p-1074; // the smallest subnormal, negated
    from.hist.sample(1);
    from.hist.sample(6);
    from.hist.sample(100);
    from.lines = {1, 2, 3};
    const std::string section = saved(from_reg);
    // Sorted by name; the formula is not written.
    EXPECT_EQ(section.rfind("5\nc.big 1152921504606846979\nc.hist ", 0), 0u)
        << section;
    EXPECT_EQ(section.find("c.lines"), std::string::npos) << section;

    StatRegistry to_reg;
    Counters to(to_reg);
    std::istringstream in(section);
    to_reg.restore(in);
    EXPECT_EQ(to.big, from.big);
    EXPECT_EQ(to.neg, -7);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(to.third),
              std::bit_cast<std::uint64_t>(from.third));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(to.tiny),
              std::bit_cast<std::uint64_t>(from.tiny));
    EXPECT_EQ(to.hist.count(), 3u);
    EXPECT_EQ(to.hist.buckets(), from.hist.buckets());
    EXPECT_TRUE(to.lines.empty());
    EXPECT_EQ(saved(to_reg), section);
}

TEST(StatRegistryDeathTest, RestoreRejectsWhatItCannotStore)
{
    StatRegistry reg;
    Counters c(reg);
    auto restore = [&reg](const std::string &section) {
        std::istringstream in(section);
        reg.restore(in);
    };
    const std::string width = std::to_string(std::bit_cast<std::uint64_t>(2.5));
    const std::string other = std::to_string(std::bit_cast<std::uint64_t>(5.0));
    EXPECT_DEATH(restore("1\nc.gone 1\n"),
                 "'c.gone' is not a registered field or histogram");
    EXPECT_DEATH(restore("1\nc.lines 3\n"),
                 "'c.lines' is not a registered field or histogram");
    EXPECT_DEATH(restore("1\nc.hist " + width + " 2 0 0 0\n"),
                 "'c.hist' has 2 buckets of width 2.5, the registered one 3");
    EXPECT_DEATH(restore("1\nc.hist " + other + " 3 0 0 0 0\n"),
                 "'c.hist' has 3 buckets of width 5, the registered one 3 "
                 "of width 2.5");
    EXPECT_DEATH(restore("2\nc.big 1\n"), "truncated");
}

} // namespace
} // namespace tg
