/**
 * @file
 * Per-node operating system model.
 *
 * Telegraphos needs the OS only for setup (mapping shared pages) and for
 * the slow paths: page faults, counter alarms, and the Telegraphos I
 * PAL-code launch sequences.  This kernel model charges 1995-era DEC
 * OSF/1 costs for those paths and dispatches them to registered services
 * (the VSM baseline, replication policies, ...).
 */

#ifndef TELEGRAPHOS_OS_OS_KERNEL_HPP
#define TELEGRAPHOS_OS_OS_KERNEL_HPP

#include <functional>
#include <vector>

#include "node/workstation.hpp"
#include "sim/sim_object.hpp"

namespace tg::os {

/** The operating system of one workstation. */
class OsKernel : public SimObject
{
  public:
    /**
     * A fault service inspects a faulting access and either repairs the
     * mapping (then calls retry) and returns true, or returns false to
     * let the next service try.
     */
    using FaultService =
        std::function<bool(VAddr, bool, std::function<void()>,
                           std::function<void(std::string)>)>;

    /** Alarm policy: invoked on page-counter alarms (2.2.6). */
    using AlarmPolicy = std::function<void(PAddr page_frame, bool is_write)>;

    OsKernel(System &sys, const std::string &name, node::Workstation &ws);

    node::Workstation &workstation() { return _ws; }

    /** Hook the kernel into the CPU fault path and the HIB alarm line. */
    void install();

    /** Register a fault service (tried in registration order). */
    void addFaultService(FaultService svc);

    /** Set the policy consulted on page-counter alarms. */
    void setAlarmPolicy(AlarmPolicy policy);

    std::uint64_t faults() const { return _faults; }
    std::uint64_t alarms() const { return _alarms; }

  private:
    void handleFault(VAddr va, bool is_write, std::function<void()> retry,
                     std::function<void(std::string)> kill);
    void handleAlarm(PAddr page_frame, bool is_write);

    node::Workstation &_ws;
    std::vector<FaultService> _services;
    AlarmPolicy _alarmPolicy;
    std::uint64_t _faults = 0;
    std::uint64_t _alarms = 0;
};

} // namespace tg::os

#endif // TELEGRAPHOS_OS_OS_KERNEL_HPP
