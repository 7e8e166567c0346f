/**
 * @file
 * Audit-layer global state: the setter of the TG_AUDIT runtime gate.
 */

#include "sim/invariant.hpp"

namespace tg::audit {

void
setEnabled(bool on)
{
    detail::g_enabled = on;
}

} // namespace tg::audit
