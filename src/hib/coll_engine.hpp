/**
 * @file
 * NIC-resident collective engine (DESIGN.md section 15).
 *
 * The paper's HIB already carries the pieces a network interface needs to
 * run collectives without host involvement: eager-update multicast tables
 * (section 2.2.7), remote atomics (2.2.3) and the outstanding-operation
 * counter hardware (2.3.5).  This unit composes them — Quadrics/Myrinet
 * style — into per-communicator state machines for barrier, broadcast,
 * reduce and all-reduce over a deterministic k-ary tree built from
 * TopologyModel::hops (net/coll_tree.hpp).
 *
 * Protocol: the host assembles a descriptor in its Telegraphos context
 * (kCtxCollOp/Group/Root/Datum), then reads kCtxCollGo — one blocking
 * programmed-I/O read that arms the local state machine and stalls until
 * the collective completes locally.  Everything between arm and complete
 * is CollUp / CollDown packets handled NIC-to-NIC:
 *
 *   - up phase (barrier / reduce / all-reduce): each node waits for its
 *     tree children's CollUp packets, folds their partial values through
 *     the atomic unit's combine path, and sends one CollUp to its parent
 *   - down phase (barrier release, broadcast payload, all-reduce total):
 *     CollDown packets fan out from the root along the same tree; an
 *     interior NIC forwards to its children immediately on receipt, with
 *     no host on the path — the multicast unit's fan-out in tree form
 *
 * Equivalence contract: every member must issue the same sequence of
 * collective ops on a group (MPI ordering rules).  The per-group sequence
 * number then matches up/down packets to descriptors, so a NIC can
 * service packets for a collective its own host has not issued yet.
 *
 * Failure contract: when link reliability permanently drops a CollUp or
 * CollDown, the victim NIC synthesizes the lost arrival/release with the
 * error flag set, so every member still completes — the error surfaces
 * through the coll_errors counter (the API layer turns it into OpError).
 */

#ifndef TELEGRAPHOS_HIB_COLL_ENGINE_HPP
#define TELEGRAPHOS_HIB_COLL_ENGINE_HPP

#include <map>
#include <memory>
#include <vector>

#include "hib/special_ops.hpp"
#include "net/coll_tree.hpp"
#include "net/packet.hpp"
#include "sim/sim_object.hpp"

namespace tg::hib {

class Hib;

/**
 * Shared description of one communicator group: members, fabric shape and
 * the lazily built per-root trees.  One instance is shared by every
 * member's engine (it is immutable after construction apart from the tree
 * cache, and the simulation is single-threaded), which also guarantees
 * all members agree on the tree bit-for-bit.
 */
class CollGroup
{
  public:
    CollGroup(std::uint32_t id, std::vector<NodeId> members,
              const net::TopologySpec &topo, std::size_t fanout);

    std::uint32_t id() const { return _id; }
    const std::vector<NodeId> &members() const { return _members; }
    std::size_t size() const { return _members.size(); }

    /** Rank of @p node in the group; panics when not a member. */
    std::size_t rankOf(NodeId node) const;

    /** The deterministic reduction/multicast tree rooted at @p root_rank
     *  (built on first use, cached). */
    const net::CollTree &tree(std::size_t root_rank);

  private:
    std::uint32_t _id;
    std::vector<NodeId> _members;
    net::TopologySpec _topo;
    std::size_t _fanout;
    std::map<NodeId, std::size_t> _rankByNode;
    std::map<std::size_t, net::CollTree> _trees;
};

using CollGroupPtr = std::shared_ptr<CollGroup>;

/** Per-node collective state machines (one engine per HIB). */
class CollEngine : public SimObject
{
  public:
    using OnWord = Fn<void(Word)>;
    using OnDone = Fn<void()>;

    /** Named "<hib>.coll"; its statistics are "<hib>.coll_*". */
    CollEngine(System &sys, Hib &hib);

    /** Make this node a member of @p group (Communicator construction). */
    void registerGroup(CollGroupPtr group);

    /**
     * Stage the host-side payload buffer for the next collective issued
     * through context @p ctx_idx (broadcast data in/out).  Modelling
     * shortcut: stands in for the descriptor's payload DMA address; the
     * data transfer cost itself is charged at completion.
     */
    void stage(std::uint32_t ctx_idx, std::vector<Word> *io);

    /**
     * Arm the local state machine from the descriptor in context
     * @p ctx_idx (the kCtxCollGo read path).  @p done fires when the
     * collective completes locally: the reduced total at a reduce root /
     * everywhere for all-reduce, 0 otherwise.
     */
    void issue(std::uint32_t ctx_idx, const CollArgs &args, OnWord done);

    /** Service one CollUp/CollDown packet from the ingress pump. */
    void handlePacket(net::Packet &&pkt, OnDone finished);

    /** A CollUp/CollDown was permanently lost and this NIC is the victim
     *  (dst): synthesize the arrival/release with the error flag set. */
    void onWireFailure(const net::Packet &pkt);

    /** Collectives completed locally with the error flag set. */
    std::uint64_t errors() const { return _errors; }

    std::uint64_t barriers() const { return _barriers; }
    std::uint64_t bcastMsgs() const { return _bcastMsgs; }
    std::uint64_t combines() const { return _combines; }
    std::uint64_t descPeak() const { return _descPeak; }

  private:
    /** One in-flight collective on this node, keyed by (group, seq). */
    struct Pending
    {
        CollOp op = CollOp::None;
        std::uint32_t root = 0;   ///< root rank
        bool armed = false;       ///< local descriptor issued
        bool upSent = false;      ///< CollUp sent to parent
        bool released = false;    ///< CollDown received / root turnaround
        bool error = false;       ///< wire failure touched this subtree
        std::size_t arrived = 0;  ///< child CollUp packets folded in
        Word partial = 0;         ///< running combine of datum + children
        Word downValue = 0;       ///< release/total value from CollDown
        std::shared_ptr<std::vector<Word>> payload; ///< bcast words
        std::vector<Word> *io = nullptr; ///< staged host buffer
        OnWord done;              ///< blocked kCtxCollGo reader
        std::uint64_t traceId = 0;
    };

    using Key = std::pair<std::uint32_t, std::uint64_t>;

    Pending &ensurePending(CollGroup &g, std::uint64_t seq, CollOp op,
                           std::uint32_t root);
    void tryAdvance(CollGroup &g, std::uint64_t seq, Pending &p);
    void sendUp(CollGroup &g, std::uint64_t seq, Pending &p);
    void sendDown(CollGroup &g, std::uint64_t seq, Pending &p);
    void complete(CollGroup &g, std::uint64_t seq, Pending &p, Word result);
    void applyDown(CollGroup &g, std::uint64_t seq, Pending &p,
                   const net::Packet &pkt);
    CollGroup *groupOf(std::uint32_t id);
    std::size_t myRank(CollGroup &g) const;

    Hib &_hib;
    std::map<std::uint32_t, CollGroupPtr> _groups;
    std::map<std::uint32_t, std::uint64_t> _nextSeq; ///< per group
    std::map<std::uint32_t, std::vector<Word> *> _staged; ///< per context
    std::map<Key, Pending> _pending;

    std::uint64_t _barriers = 0;  ///< barriers completed locally
    std::uint64_t _bcastMsgs = 0; ///< CollDown fan-out packets sent
    std::uint64_t _combines = 0;  ///< reduce combines via the atomic path
    std::uint64_t _descNow = 0;   ///< descriptors currently armed
    std::uint64_t _descPeak = 0;  ///< high-water mark of armed descriptors
    std::uint64_t _errors = 0;    ///< completions carrying the error flag
    std::uint16_t _traceComp = 0;
};

} // namespace tg::hib

#endif // TELEGRAPHOS_HIB_COLL_ENGINE_HPP
