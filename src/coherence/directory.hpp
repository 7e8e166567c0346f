/**
 * @file
 * Shared-page directory.
 *
 * Records, for every shared page that has replicas: its home (owner)
 * frame, the owner node, the per-node local copy frames, and the
 * coherence protocol governing it.  The paper's owner-based scheme keeps
 * the full copy list only at the owner (section 2.3.1); we centralize the
 * *bookkeeping* for simulation convenience but the protocols only consult
 * fields their hardware would hold locally, and all costs are charged on
 * the distributed paths.
 *
 * The directory also carries a write-observation hook used by tests and
 * benches to record the exact sequence of values each node's copy goes
 * through (this is how the Figure 2 / Galactica "1,2,1" experiments
 * observe inconsistency).
 */

#ifndef TELEGRAPHOS_COHERENCE_DIRECTORY_HPP
#define TELEGRAPHOS_COHERENCE_DIRECTORY_HPP

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/sim_object.hpp"

namespace tg::coherence {

class Protocol;

/** Coherence policy selector for a shared page. */
enum class ProtocolKind
{
    None,         ///< no replicas: plain remote reads/writes
    Naive,        ///< direct eager multicast from every writer (fig. 2)
    OwnerCounter, ///< the paper's owner + pending-counter protocol (2.3.3)
    GalacticaRing,///< Galactica Net style ring updates with back-off (2.4)
    Invalidate,   ///< page-level invalidation on write
};

const char *protocolKindName(ProtocolKind k);

/** Directory state of one replicated page. */
struct PageEntry
{
    PAddr home = 0;    ///< global PA page base of the owner copy
    NodeId owner = 0;  ///< owner node (defines update order, section 2.3.1)
    ProtocolKind kind = ProtocolKind::None;
    Protocol *protocol = nullptr; ///< non-owning; set by the cluster

    /** node -> global PA page base of that node's local copy.  The owner
     *  appears here too, mapping to home. */
    std::map<NodeId, PAddr> copies;

    /** Sharing-ring order for the Galactica protocol. */
    std::vector<NodeId> ring;

    bool hasCopy(NodeId n) const { return copies.count(n) != 0; }

    /** Local copy frame of @p n (panics if absent). */
    PAddr copyFrame(NodeId n) const;

    /** Next node after @p n in the sharing ring. */
    NodeId ringNext(NodeId n) const;
};

/** Observation record of one applied update (test/bench hook). */
struct ApplyEvent
{
    Tick when;
    NodeId node;     ///< whose copy changed
    PAddr homeAddr;  ///< home-relative identity of the word
    Word value;
    NodeId origin;   ///< node whose store caused this
};

/** The cluster-wide page directory. */
class Directory : public SimObject
{
  public:
    Directory(System &sys, const std::string &name);
    ~Directory() override;

    /** Register a replicated page rooted at @p home_frame. */
    PageEntry &create(PAddr home_frame, NodeId owner, ProtocolKind kind,
                      Protocol *protocol);

    /** Remove an entry entirely. */
    void destroy(PAddr home_frame);

    /** Record that @p node holds a copy at @p frame. */
    void addCopy(PageEntry &e, NodeId node, PAddr frame);

    /** Remove @p node's copy. */
    void removeCopy(PageEntry &e, NodeId node);

    /** Entry whose home page is @p home_frame (nullptr if none). */
    PageEntry *byHome(PAddr home_frame);

    /** Entry that has a copy (home included) at page @p frame. */
    PageEntry *byFrame(PAddr frame);

    /** Entry containing global address @p addr through any copy. */
    PageEntry *byAddr(PAddr addr);

    /** All entries in ascending home order (checkpointing, DESIGN.md
     *  section 14.5). */
    std::vector<const PageEntry *> entries() const;

    /**
     * Checkpoint restore: force the entry for @p home_frame to the
     * captured owner/copies/ring, creating it with @p kind and
     * @p protocol when the setup replay did not (runtime-created pages,
     * e.g. replicatePageLive on a fresh home).  The frame index is
     * rebuilt so byFrame/byAddr lookups stay consistent.
     */
    PageEntry &restoreEntry(PAddr home_frame, NodeId owner,
                            ProtocolKind kind, Protocol *protocol,
                            const std::map<NodeId, PAddr> &copies,
                            const std::vector<NodeId> &ring);

    /** Register a write-observation hook (appended; all fire). */
    void observe(std::function<void(const ApplyEvent &)> cb);

    /** Notify observers that a copy was updated. */
    void notifyApply(NodeId node, PAddr home_addr, Word value, NodeId origin);

    /** Page base of @p addr. */
    PAddr
    pageOf(PAddr addr) const
    {
        return addr - (addr % config().pageBytes);
    }

  private:
    // Ordered maps by contract (DESIGN.md section 7): any future walk
    // over directory state must enumerate pages deterministically.
    std::map<PAddr, std::unique_ptr<PageEntry>> _byHome;
    std::map<PAddr, PageEntry *> _byFrame;
    std::vector<std::function<void(const ApplyEvent &)>> _observers;
};

} // namespace tg::coherence

#endif // TELEGRAPHOS_COHERENCE_DIRECTORY_HPP
