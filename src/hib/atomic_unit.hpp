/**
 * @file
 * Remote atomic operation unit (paper section 2.2.3).
 *
 * Executes fetch-and-store, fetch-and-inc and compare-and-swap on the
 * node's shared memory on behalf of local and remote requesters.  All
 * operations on one node serialize through this unit, which is what makes
 * them atomic.
 */

#ifndef TELEGRAPHOS_HIB_ATOMIC_UNIT_HPP
#define TELEGRAPHOS_HIB_ATOMIC_UNIT_HPP

#include "net/packet.hpp"
#include "node/main_memory.hpp"
#include "sim/event.hpp"
#include "sim/ring.hpp"
#include "sim/sim_object.hpp"

namespace tg::hib {

/** Serializing read-modify-write engine over one node's shared memory. */
class AtomicUnit : public SimObject
{
  public:
    AtomicUnit(System &sys, const std::string &name,
               node::MainMemory &storage);

    /**
     * Queue one atomic operation.
     * @param op      operation selector
     * @param offset  node-local offset of the target word
     * @param a       first operand (store value / increment / cas compare)
     * @param b       second operand (cas new value)
     * @param done    receives the *old* value of the word
     */
    void request(net::AtomicOp op, PAddr offset, Word a, Word b,
                 Fn<void(Word)> done);

    std::uint64_t executed() const { return _executed; }

  private:
    struct Pending
    {
        net::AtomicOp op;
        PAddr offset;
        Word a, b;
        Fn<void(Word)> done;
    };

    void startNext();

    node::MainMemory &_storage;
    Ring<Pending> _queue;
    bool _busy = false;
    std::uint64_t _executed = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_ATOMIC_UNIT_HPP
