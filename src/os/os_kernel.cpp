/**
 * @file
 * Operating-system cost model: traps, page faults,
 * interrupts and replication services.
 */

#include "os/os_kernel.hpp"

#include <cinttypes>

namespace tg::os {

OsKernel::OsKernel(System &sys, const std::string &name,
                   node::Workstation &ws)
    : SimObject(sys, name), _ws(ws)
{
    sys.stats().add({_name, "faults"}, &_faults);
    sys.stats().add({_name, "alarms"}, &_alarms);
}

void
OsKernel::install()
{
    _ws.cpu().setFaultHandler(
        [this](VAddr va, bool w, std::function<void()> retry,
               std::function<void(std::string)> kill) {
            handleFault(va, w, std::move(retry), std::move(kill));
        });
    _ws.hib().setAlarmHandler([this](PAddr page, bool w) {
        handleAlarm(page, w);
    });
}

void
OsKernel::addFaultService(FaultService svc)
{
    _services.push_back(std::move(svc));
}

void
OsKernel::setAlarmPolicy(AlarmPolicy policy)
{
    _alarmPolicy = std::move(policy);
}

void
OsKernel::handleFault(VAddr va, bool is_write, std::function<void()> retry,
                      std::function<void(std::string)> kill)
{
    ++_faults;
    // Trap into the kernel.
    schedule(config().osTrap, [this, va, is_write, retry = std::move(retry),
                               kill = std::move(kill)] {
        for (auto &svc : _services) {
            if (svc(va, is_write, retry, kill))
                return;
        }
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "segmentation fault: va=%llx %s", (unsigned long long)va,
                      is_write ? "write" : "read");
        kill(buf);
    });
}

void
OsKernel::handleAlarm(PAddr page_frame, bool is_write)
{
    ++_alarms;
    if (_alarmPolicy)
        _alarmPolicy(page_frame, is_write);
}

} // namespace tg::os
