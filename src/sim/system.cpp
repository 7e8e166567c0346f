/**
 * @file
 * System root object construction and validation.
 */

#include "sim/system.hpp"

#include "net/arena.hpp"
#include "sim/glob.hpp"
#include "sim/log.hpp"

namespace tg {

FaultSpec &
FaultSpec::downLink(const std::string &pattern, Tick from, Tick until)
{
    downWindows.push_back(FaultWindow{from, until, pattern});
    return *this;
}

FaultSpec &
FaultSpec::downTrunk(std::size_t a, std::size_t b, Tick from, Tick until)
{
    downLink("*.trunk" + std::to_string(a) + "to" + std::to_string(b),
             from, until);
    downLink("*.trunk" + std::to_string(b) + "to" + std::to_string(a),
             from, until);
    return *this;
}

void
FaultSpec::validate() const
{
    auto rate = [](const char *what, double p) {
        if (p < 0 || p > 1)
            fatal("fault.%s must be a probability in [0,1] (got %g)", what,
                  p);
    };
    rate("bitErrorRate", bitErrorRate);
    rate("dropRate", dropRate);
    rate("duplicateRate", duplicateRate);
    for (const auto &w : downWindows) {
        if (w.until <= w.from)
            fatal("fault.downWindows: window [%llu, %llu) is empty",
                  (unsigned long long)w.from, (unsigned long long)w.until);
        if (!w.target.empty() && !globValid(w.target))
            fatal("fault.downWindows: malformed target pattern '%s' "
                  "('*'/'?' glob over printable names; no '**', '[')",
                  w.target.c_str());
    }
    if (retryTimeout == 0)
        fatal("fault.retryTimeout must be positive");
    // The retransmit timer waits retryTimeout << backoff, backoff <= cap.
    if (retryTimeout > (kMaxTick >> backoffCap))
        fatal("fault.retryTimeout << backoffCap overflows a Tick "
              "(%llu << %u)",
              (unsigned long long)retryTimeout, backoffCap);
    if (linkDownDeadline == 0)
        fatal("fault.linkDownDeadline must be positive");
}

void
Config::validate() const
{
    if (linkBytesPerTick <= 0)
        fatal("linkBytesPerTick must be positive");
    if (switchQueuePackets == 0)
        fatal("switchQueuePackets must be >= 1");
    fault.validate();
}

System::System(const Config &cfg)
    : _config(cfg), _rng(cfg.seed),
      _arena(std::make_unique<net::PacketArena>(_stats))
{
    _config.validate();
    _tracer.setEnabled(cfg.tracePackets);
    _stats.add("sim.events", &_events,
               [](const EventQueue &q) { return q.executed(); });
}

System::~System() = default;

} // namespace tg
