/**
 * @file
 * Runtime audit layer: TG_AUDIT invariant checks and the trace
 * hash behind the determinism contract (DESIGN.md section 7).
 *
 * The simulator's whole experimental method rests on two properties:
 *
 *  1. *Determinism* — same configuration + seed => bit-identical run.
 *     TraceHash folds every fired event (and every packet crossing a HIB
 *     boundary) into one 64-bit accumulator, one multiply per word, so
 *     two runs can be compared exhaustively by comparing one number.
 *
 *  2. *Conservation* — nothing is silently lost.  PacketLedger counts
 *     packets at the HIB injection/consumption boundaries and at the
 *     reliability layer's permanent-failure exit, maintaining
 *     injected == delivered + dropped + in-flight at every instant.
 *
 * TG_AUDIT(cond, ...) panics when an invariant is violated.  The checks
 * are always compiled in and always on: there is no switch to turn them
 * off.
 */

#ifndef TELEGRAPHOS_SIM_INVARIANT_HPP
#define TELEGRAPHOS_SIM_INVARIANT_HPP

#include <cstdint>
#include <string>

#include "sim/log.hpp"

/**
 * Assert a simulator invariant: panic with a printf-style message when
 * @p cond is false.
 */
#define TG_AUDIT(cond, ...)                                                  \
    do {                                                                     \
        if (!(cond))                                                         \
            ::tg::panic(__VA_ARGS__);                                        \
    } while (0)

namespace tg::audit {

/**
 * 64-bit word-at-a-time accumulator over the run's observable history.
 *
 * Mixed inputs: (tick, sequence) of every fired event, plus the
 * end-to-end fields of every packet injected into and consumed from the
 * network.  Equal hashes over two complete runs mean equal traces for
 * every practical purpose; unequal hashes pinpoint divergence.
 */
class TraceHash
{
  public:
    /** FNV-1a's 64-bit offset basis and prime: the start state and the
     *  (odd) multiplier of every step. */
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    /**
     * Fold one 64-bit word: xor it in, multiply by the odd kPrime, fold
     * the high half down.  For a fixed word each of the three steps is a
     * bijection of the 64-bit state, so two equally long streams that
     * differ in exactly one word always end in different digests.  One
     * multiply per word, where byte-wise FNV-1a needs eight dependent
     * ones.
     */
    void
    mix(std::uint64_t v)
    {
        _h = (_h ^ v) * kPrime;
        _h ^= _h >> 32;
        ++_mixed;
    }

    /** Current digest. */
    std::uint64_t value() const { return _h; }

    /** Number of words folded in so far. */
    std::uint64_t mixed() const { return _mixed; }

    void
    reset()
    {
        _h = kOffset;
        _mixed = 0;
    }

    /** Restore a previously observed accumulator state (checkpoint
     *  restore, DESIGN.md section 14.5): subsequent mixes continue the
     *  original stream bit-for-bit. */
    void
    restore(std::uint64_t h, std::uint64_t mixed)
    {
        _h = h;
        _mixed = mixed;
    }

  private:
    std::uint64_t _h = kOffset;
    std::uint64_t _mixed = 0;
};

/**
 * Cluster-wide packet conservation ledger.
 *
 * Counting boundaries:
 *  - onInjected():  a HIB handed a packet to the network (Hib::inject)
 *  - onDelivered(): a HIB consumed a packet from its ingress FIFO
 *  - onDropped():   the link reliability layer permanently failed it
 *
 * Invariant (checked on every transition):
 * delivered + dropped never exceeds injected, i.e. the network never
 * manufactures packets; at quiescence the in-flight population is zero.
 */
struct PacketLedger
{
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;

    void onInjected() { ++injected; }

    void
    onDelivered()
    {
        ++delivered;
        TG_AUDIT(delivered + dropped <= injected,
                 "packet conservation violated: delivered=%llu dropped=%llu "
                 "injected=%llu",
                 (unsigned long long)delivered, (unsigned long long)dropped,
                 (unsigned long long)injected);
    }

    void
    onDropped()
    {
        ++dropped;
        TG_AUDIT(delivered + dropped <= injected,
                 "packet conservation violated: delivered=%llu dropped=%llu "
                 "injected=%llu",
                 (unsigned long long)delivered, (unsigned long long)dropped,
                 (unsigned long long)injected);
    }

    /** Packets currently inside the network (queues, wires, backlogs). */
    std::uint64_t inFlight() const { return injected - delivered - dropped; }

    /**
     * Quiescence check: with no event pending, every injected packet must
     * be accounted for.  @return true when conserved; otherwise false
     * with an explanation in @p why (when non-null).
     */
    bool
    quiescent(std::string *why = nullptr) const
    {
        if (inFlight() == 0)
            return true;
        if (why)
            *why = "in-flight packets at quiescence: injected=" +
                   std::to_string(injected) +
                   " delivered=" + std::to_string(delivered) +
                   " dropped=" + std::to_string(dropped);
        return false;
    }
};

} // namespace tg::audit

#endif // TELEGRAPHOS_SIM_INVARIANT_HPP
