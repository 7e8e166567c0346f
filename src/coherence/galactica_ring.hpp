/**
 * @file
 * Galactica Net style ring-update protocol (paper section 2.4, ref [15]).
 *
 * All holders of a page form a sharing ring.  A writer applies its update
 * locally and sends it around the ring; each node applies it and forwards
 * it; the update dies when it returns to its origin.  When two writers
 * collide, both eventually observe the other's update circulating; the
 * lower-priority one (larger node id here) *backs off* by adopting the
 * winner's value and circulating a corrective update once its own update
 * completes the loop.
 *
 * All copies converge to the winner's value, but a third node can observe
 * the value sequence "1, 2, 1" — a sequence that is not a valid program
 * order under any consistency model, which is exactly the anomaly the
 * paper contrasts its counter protocol against.  Bench S4 measures it.
 */

#ifndef TELEGRAPHOS_COHERENCE_GALACTICA_RING_HPP
#define TELEGRAPHOS_COHERENCE_GALACTICA_RING_HPP

#include <map>

#include "coherence/protocol.hpp"

namespace tg::coherence {

/** Ring-circulated updates with priority back-off. */
class GalacticaRingProtocol : public Protocol
{
  public:
    GalacticaRingProtocol(System &sys, Fabric &fabric);

    void localWrite(NodeId n, PageEntry &e, PAddr local_addr, Word value,
                    Fn<void()> done) override;

    bool handlePacket(NodeId n, PageEntry &e,
                      const net::Packet &pkt) override;

    void onCopyAdded(PageEntry &e, NodeId n) override;

    std::uint64_t backoffs() const { return _backoffs; }
    std::uint64_t correctives() const { return _correctives; }

  private:
    struct PendingWrite
    {
        Word value = 0;
        bool backoff = false;   ///< lost a conflict: re-issue winner value
        Word winnerValue = 0;
    };

    void forward(NodeId n, PageEntry &e, const net::Packet &pkt);
    void sendRing(NodeId from, PageEntry &e, PAddr home_addr, Word value,
                  bool corrective);

    /** (node, home word address) -> pending local write. */
    std::map<std::pair<NodeId, PAddr>, PendingWrite> _pending;
    std::uint64_t _backoffs = 0;
    std::uint64_t _correctives = 0;
};

} // namespace tg::coherence

#endif // TELEGRAPHOS_COHERENCE_GALACTICA_RING_HPP
