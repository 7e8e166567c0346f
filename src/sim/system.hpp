/**
 * @file
 * System: the root object owning the event queue, configuration, RNG and
 * statistics registry shared by every component of one simulation.
 */

#ifndef TELEGRAPHOS_SIM_SYSTEM_HPP
#define TELEGRAPHOS_SIM_SYSTEM_HPP

#include <memory>
#include <string>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/invariant.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tg::net {
class PacketArena;
}

namespace tg {

/**
 * One simulation universe.
 *
 * All SimObjects hold a reference to their System; the System outlives
 * them (it is created first and destroyed last by the Cluster).
 */
class System
{
  public:
    explicit System(const Config &cfg);
    ~System();

    EventQueue &events() { return _events; }
    const Config &config() const { return _config; }
    Rng &rng() { return _rng; }
    StatRegistry &stats() { return _stats; }
    const StatRegistry &stats() const { return _stats; }

    /** Packet conservation ledger (audit layer, DESIGN.md section 7). */
    audit::PacketLedger &ledger() { return _ledger; }
    const audit::PacketLedger &ledger() const { return _ledger; }

    /** Packet-lifecycle tracer (DESIGN.md section 8). */
    trace::Tracer &tracer() { return _tracer; }
    const trace::Tracer &tracer() const { return _tracer; }

    /** Pooled in-flight packet storage shared by the whole datapath
     *  (DESIGN.md section 14).  One arena per simulation universe so
     *  handles stay valid across every queue/link/switch boundary. */
    net::PacketArena &arena() { return *_arena; }
    const net::PacketArena &arena() const { return *_arena; }

    Tick now() const { return _events.now(); }

  private:
    Config _config;
    EventQueue _events;
    Rng _rng;
    StatRegistry _stats;
    audit::PacketLedger _ledger;
    trace::Tracer _tracer;
    std::unique_ptr<net::PacketArena> _arena;
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_SYSTEM_HPP
