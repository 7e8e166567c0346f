/**
 * @file
 * Coherence protocol interface.
 *
 * A Protocol decides how stores to replicated shared pages propagate.
 * The Cpu performs the local copy update (rule 1(i) of section 2.3.3)
 * and then hands the store to the page's protocol; incoming coherence
 * packets are dispatched to the protocol by the receiving HIB.
 */

#ifndef TELEGRAPHOS_COHERENCE_PROTOCOL_HPP
#define TELEGRAPHOS_COHERENCE_PROTOCOL_HPP

#include <string>

#include "coherence/directory.hpp"
#include "net/packet.hpp"
#include "sim/event.hpp"
#include "sim/sim_object.hpp"

namespace tg::hib {
class Hib;
}
namespace tg::node {
class MainMemory;
}

namespace tg::coherence {

/**
 * What protocols need from the rest of the machine.  Implemented by the
 * Cluster; keeps the coherence layer free of API-layer dependencies.
 */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    virtual hib::Hib &hibOf(NodeId n) = 0;
    virtual node::MainMemory &memOf(NodeId n) = 0;
    virtual Directory &directory() = 0;
    virtual System &system() = 0;

    /**
     * A protocol removed @p n's copy of @p e (invalidation): the OS must
     * remap the affected virtual pages at @p n to remote access against
     * @p target_frame (the surviving authoritative copy — the exclusive
     * writer's frame) and flush TLBs.  The fabric knows the segments, so
     * it does the remap.
     */
    virtual void onCopyInvalidated(PageEntry &e, NodeId n,
                                   PAddr target_frame) = 0;
};

/** Base class of all coherence protocols. */
class Protocol : public SimObject
{
  public:
    Protocol(System &sys, const std::string &name, Fabric &fabric);

    /**
     * A store by node @p n's CPU hit its local copy of page @p e.  The
     * protocol performs the local apply itself (rule 1(i) of section
     * 2.3.3 makes the apply, the counter increment and the forward one
     * atomic store operation — so a counter-cache stall delays all
     * three, and no incoming update can slip between them).
     * @param local_addr global PA of the word in n's local copy
     * @param done       release the processor (protocols may delay this,
     *                   e.g. on a full counter cache)
     */
    virtual void localWrite(NodeId n, PageEntry &e, PAddr local_addr,
                            Word value, Fn<void()> done) = 0;

    /**
     * A remote WriteReq arrived at the page's home and was applied there.
     * Default: nothing extra (the Hib already wrote + acked).  Update
     * protocols propagate to the other copies here.
     */
    virtual void remoteWriteAtHome(NodeId home, PageEntry &e,
                                   const net::Packet &pkt);

    /**
     * A coherence packet (Update / WriteOwner / RingUpdate / InvReq /
     * InvAck) for page @p e arrived at node @p n.  The caller looked the
     * entry up by the packet's home page.
     * @return true when consumed.
     */
    virtual bool handlePacket(NodeId n, PageEntry &e,
                              const net::Packet &pkt) = 0;

    /** A new copy of @p e appeared at @p n (hook for table maintenance). */
    virtual void onCopyAdded(PageEntry &e, NodeId n);

    ProtocolKind kind() const { return _kind; }

  protected:
    /**
     * Write @p value into @p n's copy of @p e at page offset of
     * @p home_addr and notify observers.  Storage-level; timing is
     * charged by the caller's path.
     */
    void applyToCopy(NodeId n, PageEntry &e, PAddr home_addr, Word value,
                     NodeId origin);

    /** Home-relative address of @p local_addr (a word in @p n's copy). */
    PAddr homeAddrOf(PageEntry &e, NodeId n, PAddr local_addr) const;

    /**
     * From @p src's HIB, inject one Update carrying (@p home_addr,
     * @p value, @p origin) to every holder of a copy of @p e except
     * @p src, in copy order.
     * @return the number of updates injected.
     */
    std::size_t updateCopies(NodeId src, PageEntry &e, PAddr home_addr,
                             Word value, NodeId origin, bool track);

    Fabric &_fabric;
    ProtocolKind _kind = ProtocolKind::None;
};

} // namespace tg::coherence

#endif // TELEGRAPHOS_COHERENCE_PROTOCOL_HPP
