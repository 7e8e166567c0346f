/**
 * @file
 * Communicator: backend-selectable collective operations.
 *
 * A Communicator is a group of nodes with a unified collective API —
 * barrier, broadcast, sum-reduce, all-reduce — executed on one of two
 * backends chosen at cluster construction (ClusterSpec::collectives):
 *
 *  - CollectiveBackend::Host composes the paper's primitives in
 *    software: broadcast through eager-update pages (section 2.2.7),
 *    each root's page mapped out on that root's first broadcast,
 *    reduce through remote fetch&add at a scratch home (2.2.3), barrier
 *    through sense-reversing atomics with the MEMORY_BARRIER embedded
 *    (2.3.5).  The CPU drives every step and polls for completion.
 *
 *  - CollectiveBackend::Nic offloads the whole collective to the HIB's
 *    collective engine (hib::CollEngine, DESIGN.md section 15): the host
 *    writes one descriptor into its Telegraphos context and blocks on a
 *    single register read while the combine/fan-out tree runs
 *    NIC-to-NIC.
 *
 * Both backends implement identical semantics — same values delivered,
 * same completion rules — so they are differentially testable; only the
 * cost model differs.  Every operation yields Result<...>: a wire
 * failure that touched the collective (a lost contribution, release or
 * payload) surfaces as OpError::LinkFailure on the members it affected,
 * never as silently wrong data.
 *
 * Communicators are built exclusively through Cluster::communicator();
 * there is no public constructor.
 */

#ifndef TELEGRAPHOS_API_COLLECTIVES_HPP
#define TELEGRAPHOS_API_COLLECTIVES_HPP

#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/result.hpp"
#include "api/segment.hpp"
#include "hib/coll_engine.hpp"
#include "sim/trace.hpp"

namespace tg {

/**
 * Outcome of a rooted reduction.  The sum only materializes at the
 * root; atRoot tells the caller whether value is meaningful (the old
 * API returned a bare Word where non-roots read a bogus 0).
 */
struct ReduceOut
{
    bool atRoot = false; ///< this member is the root
    Word value = 0;      ///< the sum (valid only when atRoot)
};

/** A group of nodes with a backend-selectable collective API. */
class Communicator
{
  public:
    /** Construction passkey: only Cluster::communicator() can mint one,
     *  making that factory the single construction path. */
    class BuildKey
    {
        friend class Cluster;
        BuildKey() = default;
    };

    Communicator(BuildKey, Cluster &cluster, const std::string &name,
                 std::vector<NodeId> members, CollectiveBackend backend,
                 std::uint32_t group_id, std::size_t max_words);

    std::size_t size() const { return _members.size(); }
    const std::vector<NodeId> &members() const { return _members; }
    CollectiveBackend backend() const { return _backend; }

    /** Block until every member arrived (reusable). */
    Task<Result<void>> barrier(Ctx &ctx);

    /**
     * Broadcast @p io from @p root: the root sends io's contents, every
     * member (root included) returns with io holding exactly the root's
     * words.
     */
    Task<Result<void>> broadcast(Ctx &ctx, std::vector<Word> &io,
                                 NodeId root);

    /** Sum-reduce @p contribution at @p root.  Only the root's
     *  ReduceOut carries the sum (atRoot distinguishes it). */
    Task<Result<ReduceOut>> reduceSum(Ctx &ctx, Word contribution,
                                      NodeId root);

    /** Sum-reduce and distribute: every member receives the sum. */
    Task<Result<Word>> allReduceSum(Ctx &ctx, Word contribution);

  private:
    friend class Cluster; // checkpoint()/restore() carry the host state

    static constexpr std::size_t kRounds = 4; ///< host reduce rotation

    /** A root whose broadcast page is mapped (host backend). */
    struct BcastRoot
    {
        Segment *seg = nullptr;          ///< null until materialised
        std::vector<std::uint64_t> seen; ///< per-member cursor, by rank
    };

    std::size_t rankOf(NodeId n) const;

    /** Host-backend completion-poll gap, proportional to group size so
     *  large groups don't bury the scratch home under poll reads. */
    Tick pollGap() const;

    /** Faults visible to @p ctx's member so far: the node's wire-failure
     *  count plus (NIC backend) its engine's error-completion count. */
    std::uint64_t faultsNow(Ctx &ctx) const;
    OpError errorSince(Ctx &ctx, std::uint64_t before) const;

    /** Host-backend lifecycle op (the NIC backend's ops are opened by
     *  the engine itself): begin + CpuIssue record. */
    std::uint64_t hostTraceBegin(trace::OpKind kind);
    void hostTraceEnd(std::uint64_t id);

    // Host broadcast layout.  Construction reserves, mapping nothing,
    // one VA block of size() x _pages and, on every member, one
    // shared-frame block of the same size.  Root r's slot is offset
    // r x _pages in each block: its page lives at that VA, is homed in
    // that slot of root r's block and is received into that slot of
    // every other member's block.  The first broadcast from r maps it
    // (bcastRoot()).  Within a root's page:
    //   word 0:            generation counter
    //   word 1:            payload word count
    //   words 8..8+max:    payload
    VAddr bcastGenVa(std::size_t rank) const
    {
        return _bcast[rank].seg->word(0);
    }
    VAddr bcastCountVa(std::size_t rank) const
    {
        return _bcast[rank].seg->word(1);
    }
    VAddr bcastWordVa(std::size_t rank, std::size_t w) const
    {
        return _bcast[rank].seg->word(8 + w);
    }

    /** Root @p rank's broadcast state, its page mapped at the reserved
     *  addresses (and its cursors zeroed) on first use. */
    BcastRoot &bcastRoot(std::size_t rank);

    // Host reduce scratch (homed at members[0]), rotated over kRounds
    // slots: slot s accumulator at word(s), arrivals at word(kRounds+s).
    VAddr accVa(std::size_t slot) const { return _scratch->word(slot); }
    VAddr arrVa(std::size_t slot) const
    {
        return _scratch->word(kRounds + slot);
    }
    // Host barrier words: count at word(2*kRounds), generation at +1.
    VAddr barCountVa() const { return _scratch->word(2 * kRounds); }
    VAddr barGenVa() const { return _scratch->word(2 * kRounds + 1); }

    Task<Result<void>> hostBroadcast(Ctx &ctx, std::vector<Word> &io,
                                     NodeId root, std::uint64_t before);

    Cluster &_cluster;
    std::string _name;
    std::vector<NodeId> _members;
    CollectiveBackend _backend;
    std::uint32_t _groupId;
    std::size_t _maxWords;

    // Host-backend state (empty/null on the NIC backend).
    std::size_t _pages = 0;          ///< pages per root's slot
    VAddr _bcastVa = 0;              ///< reserved VA block
    std::vector<PAddr> _bcastFrames; ///< reserved frame block, by rank
    std::vector<BcastRoot> _bcast;   ///< by root rank
    Segment *_scratch = nullptr;
    std::vector<std::uint64_t> _reduceRound; ///< by rank
};

} // namespace tg

#endif // TELEGRAPHOS_API_COLLECTIVES_HPP
