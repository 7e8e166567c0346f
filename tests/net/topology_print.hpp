/**
 * @file
 * gtest printer for net::TopologySpec, shared by the suites that take
 * one as their parameter.  gtest lists each case with its parameter
 * printed after the name, and ctest takes that listing as the test's
 * name.  Without a printer gtest dumps the struct's bytes, padding
 * included, and the padding differs between builds; this prints every
 * field by name instead.
 */

#ifndef TELEGRAPHOS_TESTS_NET_TOPOLOGY_PRINT_HPP
#define TELEGRAPHOS_TESTS_NET_TOPOLOGY_PRINT_HPP

#include <ostream>

#include "net/topology.hpp"

namespace tg::net {

/** Found by gtest through argument-dependent lookup. */
inline void
PrintTo(const TopologySpec &s, std::ostream *os)
{
    *os << "(kind=" << s.model().name() << " nodes=" << s.nodes
        << " nodesPerSwitch=" << s.nodesPerSwitch << " torusX=" << s.torusX
        << " torusY=" << s.torusY << " torusZ=" << s.torusZ
        << " spines=" << s.spines << ")";
}

} // namespace tg::net

#endif // TELEGRAPHOS_TESTS_NET_TOPOLOGY_PRINT_HPP
