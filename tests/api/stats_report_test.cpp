/**
 * @file
 * The statistics surface is one registry: every counter the components
 * expose through typed accessors is registered under
 * "<component>.<counter>" with the same value, and the text report and
 * the tg-stats-v1 JSON dump render the same set of names.
 */

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "coherence/owner_counter.hpp"
#include "hib/hib.hpp"
#include "net/arena.hpp"
#include "net/network.hpp"
#include "net/reroute.hpp"
#include "node/workstation.hpp"

namespace tg {
namespace {

/** Every counter the hand-written report printed and every counter the
 *  repository benchmark reads, as (registered name, accessor value). */
std::vector<std::pair<std::string, double>>
accessorCounters(Cluster &c)
{
    std::vector<std::pair<std::string, double>> out;
    auto put = [&out](std::string name, double v) {
        out.emplace_back(std::move(name), v);
    };
    put("sim.events", double(c.system().events().executed()));
    put("sim.arena_high_water", double(c.system().arena().highWater()));
    const net::Network &net = c.network();
    put("net.switch_forwarded", double(net.switchForwarded()));
    put("net.crc_errors", double(net.corruptions()));
    put("net.retransmissions", double(net.retransmissions()));
    put("net.dup_discards", double(net.duplicateDiscards()));
    put("net.wire_failures", double(net.wireFailures()));
    for (NodeId n = 0; n < NodeId(c.numNodes()); ++n) {
        node::Workstation &ws = c.node(n);
        const std::string p = ws.name() + ".";
        put(p + "cpu.ops_issued", double(ws.cpu().opsIssued()));
        put(p + "cpu.context_switches", double(ws.cpu().contextSwitches()));
        put(p + "cache.hits", double(ws.cache().hits()));
        put(p + "cache.misses", double(ws.cache().misses()));
        put(p + "mmu.hits", double(ws.mmu().hits()));
        put(p + "mmu.misses", double(ws.mmu().misses()));
        put(p + "tc.transactions", double(ws.tc().transactions()));
        put(p + "tc.busy_ticks", double(ws.tc().busyTicks()));
        put(p + "tc.wait_ticks", double(ws.tc().waitTicks()));
        put(p + "mem.touched_bytes", double(ws.mem().touchedBytes()));
        hib::Hib &hib = ws.hib();
        put(p + "hib.packets_handled", double(hib.packetsHandled()));
        put(p + "hib.wire_failures", double(hib.wireFailures()));
        put(p + "hib.outstanding.peak", double(hib.outstanding().peak()));
        put(p + "hib.outstanding.total", double(hib.outstanding().total()));
        put(p + "hib.outstanding.lost", double(hib.outstanding().lost()));
        put(p + "hib.atomic.executed", double(hib.atomicUnit().executed()));
        put(p + "hib.pagectr.accesses",
            double(hib.pageCounters().accesses()));
        put(p + "hib.pagectr.alarms", double(hib.pageCounters().alarms()));
        put(p + "hib.ccache.stalls",
            double(hib.counterCache().stallEvents()));
        put(p + "hib.ccache.stall_ticks",
            double(hib.counterCache().stallTicks()));
        put(p + "hib.ccache.peak", double(hib.counterCache().peakUsed()));
        put(p + "hib.special.key_violations",
            double(hib.specialOps().keyViolations()));
        const auto &coll = hib.collectives();
        put(p + "hib.coll_barriers", double(coll.barriers()));
        put(p + "hib.coll_bcast_msgs", double(coll.bcastMsgs()));
        put(p + "hib.coll_combines", double(coll.combines()));
        put(p + "hib.coll_desc_peak", double(coll.descPeak()));
        put(p + "hib.coll_errors", double(coll.errors()));
    }
    auto &oc = dynamic_cast<coherence::OwnerCounterProtocol &>(
        c.protocol(coherence::ProtocolKind::OwnerCounter));
    put("proto.owner.reflected_writes", double(oc.reflectedWrites()));
    put("proto.owner.ignored_updates", double(oc.ignoredUpdates()));
    return out;
}

/** Remote write, read, fetch&inc and fence, plus a write to an
 *  owner-counter replica, from node 1 against memory homed at node 0. */
void
runMixedOps(Cluster &c)
{
    Segment &seg = c.allocShared("s", 8192, 0);
    Segment &rep = c.allocShared("rep", 8192, 0);
    rep.replicate(1, coherence::ProtocolKind::OwnerCounter);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 7);
        (void)co_await ctx.read(seg.word(0));
        (void)co_await ctx.fetchAdd(seg.word(1));
        co_await ctx.write(rep.word(0), 9);
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
}

TEST(StatsReport, RegistryHoldsEveryAccessorCounter)
{
    Cluster c(ClusterSpec::star(2));
    runMixedOps(c);
    ASSERT_TRUE(c.allDone());

    const StatRegistry &reg = c.system().stats();
    for (const auto &[name, value] : accessorCounters(c)) {
        const std::optional<double> got = reg.find(name);
        ASSERT_TRUE(got.has_value()) << name << " is not registered";
        EXPECT_EQ(*got, value) << name;
    }
    // The run exercised what it claims to, so the equalities above are
    // not all comparisons of zeros.
    EXPECT_GT(*reg.find("node0.hib.atomic.executed"), 0.0);
    EXPECT_GT(*reg.find("proto.owner.reflected_writes"), 0.0);
    EXPECT_GT(*reg.find("node1.tc.busy_ticks"), 0.0);
    EXPECT_GT(*reg.find("net.switch_forwarded"), 0.0);
}

TEST(StatsReport, RerouterCountersRegisteredWhenPresent)
{
    FaultSpec f;
    f.downTrunk(0, 1, 20'000, 1'000'000);
    Cluster c(ClusterSpec::fatTree(8).faults(f));
    const net::Network &net = c.network();
    ASSERT_NE(net.rerouter(), nullptr);

    const StatRegistry &reg = c.system().stats();
    ASSERT_TRUE(reg.find("net.routing_epochs").has_value());
    EXPECT_EQ(*reg.find("net.routing_epochs"), double(net.routingEpochs()));
    ASSERT_TRUE(reg.find("net.reroutes_applied").has_value());
    EXPECT_EQ(*reg.find("net.reroutes_applied"),
              double(net.reroutesApplied()));
    ASSERT_TRUE(reg.find("net.dead_trunks_now").has_value());
    EXPECT_EQ(*reg.find("net.dead_trunks_now"),
              double(net.rerouter()->deadTrunksNow()));

    // A fabric with no rerouter registers no routing-epoch values.
    Cluster plain(ClusterSpec::star(2));
    EXPECT_FALSE(plain.system().stats().find("net.routing_epochs"));
}

/** "name value" lines of the text report, after its two header lines. */
std::map<std::string, std::string>
reportLines(const Cluster &c)
{
    std::ostringstream os;
    c.statsReport(os);
    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line.rfind("=== cluster statistics @ ", 0), 0u) << line;
    std::getline(in, line);
    EXPECT_EQ(line.rfind("topology: ", 0), 0u) << line;
    std::map<std::string, std::string> out;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, value;
        fields >> name >> value;
        EXPECT_FALSE(value.empty()) << line;
        EXPECT_TRUE(out.emplace(name, value).second) << "duplicate " << name;
    }
    return out;
}

/** Names in one top-level section of a tg-stats-v1 document, with the
 *  raw value text for the scalars section. */
std::map<std::string, std::string>
jsonSection(const std::string &doc, const std::string &section,
            const std::string &next)
{
    const std::string open = "\"" + section + "\":{";
    const std::size_t a = doc.find(open);
    const std::size_t b = doc.find("},\"" + next + "\":{");
    EXPECT_NE(a, std::string::npos);
    EXPECT_NE(b, std::string::npos);
    const std::string body = doc.substr(a + open.size(), b - a - open.size());
    std::map<std::string, std::string> out;
    // Top-level keys only: nested objects ({...}) are skipped whole.
    static const std::regex key(R"re("([^"]+)":(\{[^}]*\}|[^,]*))re");
    for (std::sregex_iterator it(body.begin(), body.end(), key), end;
         it != end; ++it)
        out.emplace((*it)[1], (*it)[2]);
    return out;
}

TEST(StatsReport, TextAndJsonRenderTheSameNames)
{
    Cluster c(ClusterSpec::star(2));
    runMixedOps(c);

    std::ostringstream js;
    c.statsJson(js);
    const std::string doc = js.str();
    const auto scalars = jsonSection(doc, "scalars", "samplers");
    const auto samplers = jsonSection(doc, "samplers", "histograms");
    const std::string hopen = "\"histograms\":{";
    const std::string htail = doc.substr(doc.find(hopen));
    std::set<std::string> hists;
    static const std::regex hkey(R"re("([^"]+)":\{"count")re");
    for (std::sregex_iterator it(htail.begin(), htail.end(), hkey), end;
         it != end; ++it)
        hists.insert((*it)[1]);
    ASSERT_FALSE(hists.empty());
    ASSERT_GT(scalars.size(), 30u);

    // Text lines are the scalars verbatim plus "<sampler|histogram>.*"
    // expansions; nothing else, nothing missing.
    const auto text = reportLines(c);
    std::set<std::string> expanded;
    for (const auto &[name, value] : text) {
        auto owned_by = [&name](const std::string &stat) {
            return name.rfind(stat + ".", 0) == 0;
        };
        bool is_expansion = false;
        for (const auto &[s, v] : samplers)
            is_expansion |= owned_by(s);
        for (const auto &h : hists)
            is_expansion |= owned_by(h);
        if (is_expansion) {
            expanded.insert(name);
            continue;
        }
        auto it = scalars.find(name);
        ASSERT_NE(it, scalars.end()) << name << " missing from statsJson";
        EXPECT_EQ(it->second, value) << name;
    }
    EXPECT_EQ(text.size() - expanded.size(), scalars.size());
    for (const auto &[s, v] : samplers)
        EXPECT_TRUE(text.count(s + ".count")) << s;
    for (const auto &h : hists)
        EXPECT_TRUE(text.count(h + ".count")) << h;
}

} // namespace
} // namespace tg
