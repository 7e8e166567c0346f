/**
 * @file
 * Unit tests for tglint: every rule must fire on its fixture, the
 * allow() escape hatch must silence findings, clean code must pass,
 * and the output renderers (human, JSON, SARIF) must behave.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index.hpp"
#include "tglint.hpp"

namespace {

using tglint::Finding;
using tglint::Options;

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
    // new + delete; the "#include <new>" header name does not fire.
    EXPECT_EQ(fs.size(), 2u);
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

TEST(TglintTest, GetenvFiresOnEveryPath)
{
    // No path is exempt: settings reach the model through Config.
    std::vector<Finding> out;
    tglint::lintSource("src/sim/config.cpp",
                       "/** @file config */\n"
                       "const char *v = std::getenv(\"TG_SEED\");\n",
                       Options{}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "banned-api");
}

TEST(TglintTest, RawNewFiresOnAllocatorPaths)
{
    // No path is exempt: an allocator shim justifies each site inline.
    std::vector<Finding> out;
    tglint::lintSource("src/sim/alloc_pool.cpp",
                       "/** @file pool */\n"
                       "int *make(bool b) {\n"
                       "  if (b) return new int(1);\n"
                       "  // tglint: allow(raw-new)  the pool owns it\n"
                       "  return new int(2);\n"
                       "}\n",
                       Options{}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "raw-new");
    EXPECT_EQ(out[0].line, 3);
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
// Report rendering
// ---------------------------------------------------------------------

TEST(TglintReportTest, SarifSmoke)
{
    std::vector<Finding> fs;
    fs.push_back({"src/a.cpp", 3, "raw-new", "fresh \"msg\""});
    fs.push_back({"src/b.cpp", 7, "banned-api", "old"});

    std::ostringstream os;
    tglint::printSarif(fs, os);
    const std::string s = os.str();

    EXPECT_NE(s.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"tglint\""), std::string::npos);
    // Every rule in the catalogue is declared in the driver metadata.
    for (const std::string &rule : tglint::allRules())
        EXPECT_NE(s.find("\"id\":\"" + rule + "\""), std::string::npos)
            << rule;
    // One result per finding.
    EXPECT_NE(s.find("\"ruleId\":\"raw-new\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\":\"banned-api\""), std::string::npos);
    EXPECT_NE(s.find("\"startLine\":3"), std::string::npos);
    EXPECT_NE(s.find("\"startLine\":7"), std::string::npos);
    // Quotes inside messages are escaped: the document stays valid JSON.
    EXPECT_NE(s.find("fresh \\\"msg\\\""), std::string::npos);
}

TEST(TglintReportTest, HumanReportSummarizesCounts)
{
    std::ostringstream clean;
    tglint::printHuman({}, clean);
    EXPECT_EQ(clean.str(), "tglint: clean\n");

    std::ostringstream dirty;
    tglint::printHuman(lintFixture("raw_new.cpp"), dirty);
    EXPECT_NE(dirty.str().find("tglint: 2 finding(s)"), std::string::npos);
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
