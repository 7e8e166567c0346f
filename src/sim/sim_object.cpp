/**
 * @file
 * SimObject base class plumbing.
 */

#include "sim/sim_object.hpp"

#include <utility>

namespace tg {

SimObject::SimObject(System &sys, std::string name)
    : _sys(sys), _name(std::move(name))
{
}

} // namespace tg
