/**
 * @file
 * Tests that the hardware cost model reproduces Table 1 of the paper at
 * the default configuration and scales with the design parameters.
 */

#include <gtest/gtest.h>

#include <map>

#include "hwcost/gate_count.hpp"

namespace tg {
namespace {

std::map<std::string, hwcost::BlockCost>
byName(const Config &cfg)
{
    std::map<std::string, hwcost::BlockCost> m;
    for (const auto &row : hwcost::hibGateCount(cfg))
        m[row.block] = row;
    return m;
}

TEST(GateCount, MatchesTable1AtDefaults)
{
    const auto rows = byName(Config{});

    EXPECT_EQ(rows.at("Central control").gates, 1000u);
    EXPECT_DOUBLE_EQ(rows.at("Central control").sramKbits, 0.5);
    EXPECT_EQ(rows.at("Turbochannel interface").gates, 550u);
    EXPECT_EQ(rows.at("Incoming link intf.").gates, 1000u);
    EXPECT_DOUBLE_EQ(rows.at("Incoming link intf.").sramKbits, 2.0);
    EXPECT_EQ(rows.at("Outgoing link intf.").gates, 750u);
    EXPECT_DOUBLE_EQ(rows.at("Outgoing link intf.").sramKbits, 2.0);

    EXPECT_EQ(rows.at("Subtotal message related").gates, 3300u);
    EXPECT_DOUBLE_EQ(rows.at("Subtotal message related").sramKbits, 4.5);

    EXPECT_EQ(rows.at("Atomic operations").gates, 1500u);
    EXPECT_EQ(rows.at("Multicast (eager sharing)").gates, 400u);
    EXPECT_DOUBLE_EQ(rows.at("Multicast (eager sharing)").sramKbits, 512.0);
    EXPECT_EQ(rows.at("Page Access Counters").gates, 800u);
    EXPECT_DOUBLE_EQ(rows.at("Page Access Counters").sramKbits, 2048.0);

    EXPECT_EQ(rows.at("Subtotal shared mem. rel.").gates, 2700u);
}

TEST(GateCount, ScalesWithMulticastEntries)
{
    Config cfg;
    cfg.multicastEntries = 64 * 1024;
    EXPECT_DOUBLE_EQ(byName(cfg).at("Multicast (eager sharing)").sramKbits,
                     2048.0);
}

TEST(GateCount, ScalesWithCounterCoverage)
{
    Config cfg;
    cfg.counterPages = 16 * 1024;
    EXPECT_DOUBLE_EQ(byName(cfg).at("Page Access Counters").sramKbits,
                     512.0);
}

TEST(GateCount, RenderedTableContainsPaperStrings)
{
    const auto rows = hwcost::hibGateCount(Config{});
    const std::string table = hwcost::renderGateCountTable(rows);
    EXPECT_NE(table.find("16 K multicast list entries x 32 bits"),
              std::string::npos);
    EXPECT_NE(table.find("64 K pages x (16+16) bits"), std::string::npos);
    EXPECT_NE(table.find("16 MBytes = 128 Mbits of DRAM"),
              std::string::npos);
}

} // namespace
} // namespace tg
