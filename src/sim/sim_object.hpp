/**
 * @file
 * SimObject: common base for every named component in the simulation.
 */

#ifndef TELEGRAPHOS_SIM_SIM_OBJECT_HPP
#define TELEGRAPHOS_SIM_SIM_OBJECT_HPP

#include <string>
#include <utility>

#include "sim/log.hpp"
#include "sim/system.hpp"

namespace tg {

/**
 * Base class giving components a hierarchical name and access to the
 * shared System (event queue, config, RNG, stats).
 */
class SimObject
{
  public:
    SimObject(System &sys, std::string name);
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    System &system() { return _sys; }
    const Config &config() const { return _sys.config(); }
    Tick now() const { return _sys.now(); }

    /** Schedule @p f @p delta ticks from now on the shared queue (built
     *  in its event slot). */
    template <typename F>
    void
    schedule(Tick delta, F &&f)
    {
        _sys.events().schedule(delta, std::forward<F>(f));
    }

  protected:
    System &_sys;
    std::string _name;
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_SIM_OBJECT_HPP
