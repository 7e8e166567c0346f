/**
 * @file
 * Deterministic per-link fault injector.
 *
 * Telegraphos links are FPGA-clocked parallel ribbon cables between
 * workstations — a medium where bit errors, dropped transfers and
 * unplugged cables are routine, not exceptional.  The FaultInjector
 * decides, per packet transmission on one link hop, whether the wire
 * corrupts, drops or duplicates the transfer, and whether the link is
 * administratively down at a given instant.  A corruption flips one of
 * the packet's 128 address/value bits; the receiving link discards
 * every corrupted copy, so it needs only the fact of it (net/link.hpp).
 *
 * Determinism: every injector owns a private RNG seeded from
 * (Config::seed, FNV-1a hash of the link name).  Decisions therefore
 * depend only on the seed, the link identity and the order of
 * transmissions on that link — never on the construction order of other
 * components or on draws from other streams — so any fault run replays
 * bit-identically.
 */

#ifndef TELEGRAPHOS_NET_FAULT_HPP
#define TELEGRAPHOS_NET_FAULT_HPP

#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace tg::net {

/** Per-link source of injected wire faults, driven by Config::fault. */
class FaultInjector
{
  public:
    /**
     * @param spec       the cluster-wide fault specification (must outlive
     *                   the injector; it lives in System's Config)
     * @param seed       Config::seed
     * @param link_name  name of the link this injector is attached to
     */
    FaultInjector(const FaultSpec &spec, std::uint64_t seed,
                  const std::string &link_name);

    /** True when this link can experience injected *random* faults
     *  (spec enabled and the link name matches the spec's filter).
     *  Targeted down-windows apply independently of this: a window whose
     *  target pattern matches the link downs it even when the link is
     *  outside the random-fault filter. */
    bool active() const { return _active; }

    /** Does down-window @p w cover this link?  Targeted windows match
     *  the link name against their glob; untargeted windows follow the
     *  spec-wide linkFilter. */
    bool windowApplies(const FaultWindow &w) const;

    /** Union-merged down-windows applicable to this link, sorted by
     *  start (abutting/overlapping windows coalesced).  The fabric-level
     *  rerouter plans routing epochs from this, and every outage query
     *  below answers from it, so both agree on where an outage starts. */
    const std::vector<FaultWindow> &mergedDownWindows() const
    {
        return _down;
    }

    // ------------------------------------------------------------------
    // Per-transmission decisions (each consumes RNG state; call exactly
    // once per transmission to keep replays aligned)
    // ------------------------------------------------------------------

    /** Should this transmission vanish on the wire? */
    bool dropNow();

    /** Should this transmission arrive with a flipped bit?  A yes also
     *  draws the bit's position, so the stream keeps that draw. */
    bool corruptNow();

    /** Should this transmission be delivered twice? */
    bool duplicateNow();

    // ------------------------------------------------------------------
    // Administrative link state (pure functions of time; no RNG)
    // ------------------------------------------------------------------

    /** Is the link administratively down at @p now? */
    bool isDown(Tick now) const;

    /** End of the outage covering @p now (returns @p now if the link is
     *  up). */
    Tick downUntil(Tick now) const;

    /** Start of the outage covering @p now (returns @p now if the link
     *  is up). */
    Tick downStart(Tick now) const;

    /** Has the outage covering @p now lasted longer than the spec's
     *  linkDownDeadline? */
    bool downPastDeadline(Tick now) const;

    const FaultSpec &spec() const { return _spec; }

  private:
    /** The merged window covering @p now, or nullptr when up. */
    const FaultWindow *outageAt(Tick now) const;

    const FaultSpec &_spec;
    std::string _name;
    bool _active;
    Rng _rng;
    std::vector<FaultWindow> _down; ///< merged, disjoint, sorted
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_FAULT_HPP
