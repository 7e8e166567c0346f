/**
 * @file
 * Unit tests for tglint: every rule must fire on its fixture, the
 * allow() escape hatch must silence findings, clean code
 * must pass, the baseline ratchet must admit exactly the triaged
 * findings, and rule disabling / output rendering (human, JSON, SARIF)
 * must behave.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index.hpp"
#include "tglint.hpp"

namespace {

using tglint::Baseline;
using tglint::BaselineEntry;
using tglint::Finding;
using tglint::Options;
using tglint::Report;

std::string
fixture(const std::string &name)
{
    return std::string(TGLINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Finding>
lintFixture(const std::string &name, const Options &opts = {})
{
    std::vector<Finding> out;
    EXPECT_TRUE(tglint::lintPath(fixture(name), opts, out))
        << "fixture unreadable: " << name;
    return out;
}

std::set<std::string>
rulesOf(const std::vector<Finding> &fs)
{
    std::set<std::string> r;
    for (const Finding &f : fs)
        r.insert(f.rule);
    return r;
}

TEST(TglintTest, BannedApiFixtureFires)
{
    auto fs = lintFixture("banned_api.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"banned-api"});
    // rand, time, system_clock, getenv, srand.
    EXPECT_EQ(fs.size(), 5u);
}

TEST(TglintTest, UnorderedIterFixtureFires)
{
    auto fs = lintFixture("unordered_iter.cpp");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "unordered-iter");
    EXPECT_NE(fs[0].message.find("table"), std::string::npos);
}

TEST(TglintTest, TickFloatFixtureFires)
{
    auto fs = lintFixture("tick_float.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"tick-float"});
    EXPECT_EQ(fs.size(), 2u); // init form + static_cast form
}

TEST(TglintTest, RawNewFixtureFires)
{
    auto fs = lintFixture("raw_new.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"raw-new"});
    EXPECT_EQ(fs.size(), 2u); // new + delete
}

TEST(TglintTest, FileDocFixtureFires)
{
    auto fs = lintFixture("file_doc.cpp");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "file-doc");
    EXPECT_EQ(fs[0].line, 1);
}

TEST(TglintTest, HotStdFunctionFixtureFires)
{
    auto fs = lintFixture("hot_std_function.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"hot-path-std-function"});
    // Member + parameter fire; the allow()-ed member is suppressed.
    EXPECT_EQ(fs.size(), 2u);
}

TEST(TglintTest, HotHeapAllocFixtureFires)
{
    auto fs = lintFixture("hot_heap_alloc.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"hot-path-heap-alloc"});
    // deque + list members fire; the allow()-ed member is suppressed.
    EXPECT_EQ(fs.size(), 2u);
}

TEST(TglintTest, HotHeapAllocIgnoresColdNamespaces)
{
    // Setup/OS layers may keep node-based containers: they are not on
    // the per-packet path.
    std::vector<Finding> out;
    tglint::lintSource("src/os/os_kernel.hpp",
                       "/** @file os */\n"
                       "#include <deque>\n"
                       "namespace tg::os {\n"
                       "struct Q { std::deque<int> waiters; };\n"
                       "}\n",
                       Options{}, out);
    EXPECT_TRUE(out.empty());
}

TEST(TglintTest, HotStdFunctionIgnoresColdNamespaces)
{
    // The OS / api layers may keep std::function: faults and setup are
    // not per-event paths.
    std::vector<Finding> out;
    tglint::lintSource("src/os/os_kernel.hpp",
                       "/** @file os */\n"
                       "#include <functional>\n"
                       "namespace tg::os {\n"
                       "using Policy = std::function<void(int)>;\n"
                       "}\n",
                       Options{}, out);
    EXPECT_TRUE(out.empty());
}

TEST(TglintTest, AllowCommentSuppressesEveryRule)
{
    // suppressed.cpp contains a banned call, a float->Tick cast, raw
    // new/delete and an unordered range-for — each carrying an allow().
    EXPECT_TRUE(lintFixture("suppressed.cpp").empty());
}

TEST(TglintTest, CleanFixtureIsClean)
{
    EXPECT_TRUE(lintFixture("clean.cpp").empty());
}

TEST(TglintTest, DisabledRuleIsSkipped)
{
    Options opts;
    opts.disabledRules.push_back("banned-api");
    EXPECT_TRUE(lintFixture("banned_api.cpp", opts).empty());
}

TEST(TglintTest, DirectoryScanCoversAllFixtures)
{
    std::vector<Finding> out;
    ASSERT_TRUE(tglint::lintPath(TGLINT_FIXTURE_DIR, Options{}, out));
    // Every rule in the catalogue is represented by some fixture finding.
    auto seen = rulesOf(out);
    for (const std::string &rule : tglint::allRules())
        EXPECT_TRUE(seen.count(rule)) << "no fixture fires rule " << rule;
    // Directory order must be deterministic: findings sorted by path.
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                               [](const Finding &a, const Finding &b) {
                                   return a.file < b.file ||
                                          (a.file == b.file &&
                                           a.line < b.line);
                               }));
}

TEST(TglintTest, GetenvExemptPathIsAllowed)
{
    // The config loader is the one legal getenv site.
    std::vector<Finding> out;
    tglint::lintSource("src/sim/config.cpp",
                       "/** @file config */\n"
                       "const char *v = std::getenv(\"TG_SEED\");\n",
                       Options{}, out);
    EXPECT_TRUE(out.empty());
}

TEST(TglintTest, OrderInsensitiveNamespaceMayIterateUnordered)
{
    // node/ and os/ are outside the determinism contract: the same
    // range-for that fires in tg::net must pass in tg::node.
    std::vector<Finding> out;
    tglint::lintSource("src/node/cache.cpp",
                       "/** @file cache */\n"
                       "#include <unordered_map>\n"
                       "namespace tg::node {\n"
                       "int f() {\n"
                       "  std::unordered_map<int,int> m;\n"
                       "  int s = 0;\n"
                       "  for (auto &kv : m) s += kv.second;\n"
                       "  return s;\n"
                       "}\n"
                       "}\n",
                       Options{}, out);
    EXPECT_TRUE(out.empty());
}

TEST(TglintTest, GlobalMutableStateFixtureFires)
{
    auto fs = lintFixture("global_mutable_state.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"global-mutable-state"});
    // Namespace-scope variable + function-local static + static member;
    // const/constexpr/thread_local and both allow() forms pass.
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_NE(fs[0].message.find("shared by every Cluster"),
              std::string::npos);
}

TEST(TglintTest, PointerKeyedOrderFixtureFires)
{
    auto fs = lintFixture("pointer_keyed_order.cpp");
    EXPECT_EQ(rulesOf(fs), std::set<std::string>{"pointer-keyed-order"});
    // map<Port*,...> + set<const Port*> + comparator-less sort; the
    // stable-id map, comparator sort and allow() form pass.
    EXPECT_EQ(fs.size(), 3u);
}

TEST(TglintTest, IncludeCycleIsReportedOncePerCycle)
{
    tglint::ProjectIndex index;
    ASSERT_TRUE(index.addPath(fixture("cycle_a.hpp"), Options{}));
    ASSERT_TRUE(index.addPath(fixture("cycle_b.hpp"), Options{}));
    index.finalize();

    std::vector<Finding> out;
    tglint::runRules(index, Options{}, out);

    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "include-cycle");
    // Anchored on the cycle's lexicographically-smallest file, at its
    // include line.
    EXPECT_NE(out[0].file.find("cycle_a.hpp"), std::string::npos);
    EXPECT_EQ(out[0].line, 10);
    EXPECT_NE(out[0].message.find("cycle_b.hpp"), std::string::npos);
}

TEST(TglintTest, IncludeCycleNeedsBothFilesInIndex)
{
    // A single file whose include target is outside the index (system
    // header, unscanned tree) cannot form a cycle.
    EXPECT_TRUE(lintFixture("cycle_a.hpp").empty());
}

TEST(TglintTest, RawStringContentsAreNotTokens)
{
    // Plain, prefixed (u8R/LR), custom-delimited and multi-line raw
    // literals all wrap banned tokens; nothing may fire.
    EXPECT_TRUE(lintFixture("raw_string.cpp").empty());
}

TEST(TglintTest, DigitSeparatorsStayIntegral)
{
    EXPECT_TRUE(lintFixture("digit_sep.cpp").empty());
}

TEST(TglintTest, SkipSubstringExcludesFiles)
{
    Options opts;
    opts.skipSubstrings.push_back("banned_api");
    EXPECT_TRUE(lintFixture("banned_api.cpp", opts).empty());
}

TEST(TglintTest, RelaxedPathsDisableOnlyTheRelaxedRules)
{
    Options opts;
    opts.relaxedPathSubstrings.push_back("fixtures/");
    opts.relaxedRules.push_back("file-doc");
    EXPECT_TRUE(lintFixture("file_doc.cpp", opts).empty());
    // Other rules keep firing on relaxed paths.
    EXPECT_EQ(lintFixture("raw_new.cpp", opts).size(), 2u);
}

// ---------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------

TEST(TglintBaselineTest, BaselinedFindingsPassNewOnesFail)
{
    auto fs = lintFixture("raw_new.cpp"); // 2 raw-new findings
    Baseline base;
    base.entries.push_back({"raw_new.cpp", "raw-new", 1});

    Report rep = tglint::applyBaseline(fs, base);
    EXPECT_EQ(rep.baselined.size(), 1u); // entry absorbs one
    ASSERT_EQ(rep.fresh.size(), 1u);     // the second is NEW -> fails
    EXPECT_EQ(rep.fresh[0].rule, "raw-new");
    EXPECT_TRUE(rep.stale.empty());
}

TEST(TglintBaselineTest, FullyBaselinedRunIsClean)
{
    auto fs = lintFixture("raw_new.cpp");
    Baseline base;
    base.entries.push_back({"raw_new.cpp", "raw-new", 2});

    Report rep = tglint::applyBaseline(fs, base);
    EXPECT_TRUE(rep.fresh.empty());
    EXPECT_EQ(rep.baselined.size(), 2u);
    EXPECT_TRUE(rep.stale.empty());
}

TEST(TglintBaselineTest, UnusedCapacityIsReportedStale)
{
    auto fs = lintFixture("raw_new.cpp");
    Baseline base;
    base.entries.push_back({"raw_new.cpp", "raw-new", 5});
    base.entries.push_back({"gone/file.cpp", "banned-api", 1});

    Report rep = tglint::applyBaseline(fs, base);
    EXPECT_TRUE(rep.fresh.empty());
    ASSERT_EQ(rep.stale.size(), 2u);
    EXPECT_EQ(rep.stale[0].file, "raw_new.cpp");
    EXPECT_EQ(rep.stale[0].count, 3); // 5 triaged, only 2 still fire
    EXPECT_EQ(rep.stale[1].file, "gone/file.cpp");
}

TEST(TglintBaselineTest, EntryPathMatchesAsSuffix)
{
    // Committed baselines use repo-relative paths; ctest and CI hand the
    // scanner absolute paths.  "fixtures/raw_new.cpp" must match
    // "<abs>/tests/tools/fixtures/raw_new.cpp".
    auto fs = lintFixture("raw_new.cpp");
    Baseline base;
    base.entries.push_back({"fixtures/raw_new.cpp", "raw-new", 2});
    EXPECT_TRUE(tglint::applyBaseline(fs, base).fresh.empty());

    // A suffix of the filename alone must NOT match.
    Baseline wrong;
    wrong.entries.push_back({"new.cpp", "raw-new", 2});
    EXPECT_EQ(tglint::applyBaseline(fs, wrong).fresh.size(), 2u);
}

TEST(TglintBaselineTest, LoadParsesSchemaAndEntries)
{
    const std::string path =
        ::testing::TempDir() + "/tglint_baseline_ok.json";
    {
        std::ofstream f(path);
        f << "{\n  \"schema\": \"tglint-baseline-v1\",\n"
             "  \"entries\": [\n"
             "    {\"file\": \"src/a.cpp\", \"rule\": \"raw-new\", "
             "\"count\": 2},\n"
             "    {\"file\": \"src/b.cpp\", \"rule\": \"banned-api\", "
             "\"count\": 1}\n  ]\n}\n";
    }
    Baseline base;
    std::string err;
    ASSERT_TRUE(tglint::loadBaseline(path, base, err)) << err;
    ASSERT_EQ(base.entries.size(), 2u);
    EXPECT_EQ(base.entries[0].file, "src/a.cpp");
    EXPECT_EQ(base.entries[0].rule, "raw-new");
    EXPECT_EQ(base.entries[0].count, 2);
    std::remove(path.c_str());
}

TEST(TglintBaselineTest, LoadRejectsWrongSchemaAndMalformedJson)
{
    const std::string path =
        ::testing::TempDir() + "/tglint_baseline_bad.json";
    Baseline base;
    std::string err;

    {
        std::ofstream f(path);
        f << "{\"schema\": \"tglint-baseline-v9\", \"entries\": []}";
    }
    EXPECT_FALSE(tglint::loadBaseline(path, base, err));
    EXPECT_NE(err.find("schema"), std::string::npos);

    {
        std::ofstream f(path);
        f << "{\"entries\": [";
    }
    EXPECT_FALSE(tglint::loadBaseline(path, base, err));

    EXPECT_FALSE(tglint::loadBaseline(path + ".missing", base, err));
    std::remove(path.c_str());
}

TEST(TglintBaselineTest, CommittedBaselineAdmitsNoFreshSrcFindings)
{
    // The acceptance gate of the ratchet itself: a finding the baseline
    // does not know about must surface as fresh.
    Baseline base;
    base.entries.push_back(
        {"tests/sim/event_fn_test.cpp", "hot-path-std-function", 2});
    std::vector<Finding> fs;
    fs.push_back({"/repo/src/sim/queue.cpp", 10, "pointer-keyed-order",
                  "restored pointer-keyed map"});
    Report rep = tglint::applyBaseline(fs, base);
    ASSERT_EQ(rep.fresh.size(), 1u);
    EXPECT_EQ(rep.fresh[0].rule, "pointer-keyed-order");
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

TEST(TglintReportTest, ReportJsonCarriesCountsAndStale)
{
    Report rep;
    rep.fresh.push_back({"a.cpp", 3, "raw-new", "msg"});
    rep.baselined.push_back({"b.cpp", 7, "banned-api", "old"});
    rep.stale.push_back({"gone.cpp", "tick-float", 2});

    std::ostringstream os;
    tglint::printJson(rep, os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"count\":1"), std::string::npos);
    EXPECT_NE(j.find("\"baselinedCount\":1"), std::string::npos);
    EXPECT_NE(j.find("\"file\":\"gone.cpp\""), std::string::npos);
    EXPECT_NE(j.find("\"rule\":\"tick-float\""), std::string::npos);
}

TEST(TglintReportTest, SarifSmoke)
{
    Report rep;
    rep.fresh.push_back({"src/a.cpp", 3, "raw-new", "fresh \"msg\""});
    rep.baselined.push_back({"src/b.cpp", 7, "banned-api", "old"});

    std::ostringstream os;
    tglint::printSarif(rep, os);
    const std::string s = os.str();

    EXPECT_NE(s.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"tglint\""), std::string::npos);
    // Every rule in the catalogue is declared in the driver metadata.
    for (const std::string &rule : tglint::allRules())
        EXPECT_NE(s.find("\"id\":\"" + rule + "\""), std::string::npos)
            << rule;
    EXPECT_NE(s.find("\"baselineState\":\"new\""), std::string::npos);
    EXPECT_NE(s.find("\"baselineState\":\"unchanged\""), std::string::npos);
    EXPECT_NE(s.find("\"startLine\":3"), std::string::npos);
    // Quotes inside messages are escaped: the document stays valid JSON.
    EXPECT_NE(s.find("fresh \\\"msg\\\""), std::string::npos);
}

TEST(TglintReportTest, HumanReportSummarizesCounts)
{
    Report rep;
    rep.baselined.push_back({"b.cpp", 7, "banned-api", "old"});
    std::ostringstream os;
    tglint::printHuman(rep, os);
    EXPECT_NE(os.str().find("clean"), std::string::npos);
    EXPECT_NE(os.str().find("1 baselined"), std::string::npos);
}

TEST(TglintTest, JsonOutputIsWellFormed)
{
    auto fs = lintFixture("raw_new.cpp");
    std::ostringstream os;
    tglint::printJson(fs, os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"count\":2"), std::string::npos);
    EXPECT_NE(j.find("\"rule\":\"raw-new\""), std::string::npos);
}

TEST(TglintTest, HumanOutputNamesFileLineRule)
{
    auto fs = lintFixture("file_doc.cpp");
    std::ostringstream os;
    tglint::printHuman(fs, os);
    EXPECT_NE(os.str().find("file_doc.cpp:1: [file-doc]"),
              std::string::npos);
}

} // namespace
