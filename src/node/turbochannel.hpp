/**
 * @file
 * TurboChannel I/O bus model.
 *
 * The HIB plugs into the TurboChannel of a DEC 3000/300 (paper section
 * 2.1).  The bus is a shared resource between the CPU's programmed-I/O
 * accesses and the HIB's DMA into main memory; transactions are granted
 * FIFO and each occupies the bus for its transfer time.  This contention
 * is what makes remote reads so much more expensive than remote writes in
 * the paper's measurements.
 */

#ifndef TELEGRAPHOS_NODE_TURBOCHANNEL_HPP
#define TELEGRAPHOS_NODE_TURBOCHANNEL_HPP

#include "sim/event.hpp"
#include "sim/ring.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace tg::node {

/** FIFO-arbitrated shared bus. */
class TurboChannel : public SimObject
{
  public:
    TurboChannel(System &sys, const std::string &name);

    /**
     * Request the bus for @p hold ticks; @p done runs when the
     * transaction completes (bus released).  @p traceId optionally tags
     * the transaction with a lifecycle-tracer operation id; the grant is
     * then recorded as a TcGrant span.
     */
    void transact(Tick hold, Fn<void()> done, std::uint64_t traceId = 0);

    /** Transactions completed. */
    std::uint64_t transactions() const { return _count; }

    /** Total ticks the bus was held. */
    Tick busyTicks() const { return _busyTicks; }

    /** Aggregate queueing delay experienced by transactions. */
    Tick waitTicks() const { return _waitTicks; }

  private:
    struct Txn
    {
        Tick hold;
        Tick enqueued;
        Fn<void()> done;
        std::uint64_t traceId;
    };

    void grantNext();

    Ring<Txn> _queue;
    bool _busy = false;
    std::uint64_t _count = 0;
    Tick _busyTicks = 0;
    Tick _waitTicks = 0;
    /** Arbitration wait-time distribution (ticks), 64 x 100-tick buckets. */
    Histogram _waitHist{100.0, 64};
};

} // namespace tg::node

#endif // TELEGRAPHOS_NODE_TURBOCHANNEL_HPP
