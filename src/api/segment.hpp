/**
 * @file
 * Segment: a region of Telegraphos shared memory.
 *
 * A segment is homed on its owner node's shared memory (HIB SRAM on
 * prototype I, pinned main memory on prototype II) and mapped at the same
 * virtual address on every node.  Remote nodes reach it through HIB
 * remote reads/writes; replication, eager-update mapping and access
 * counters are configured per segment.
 */

#ifndef TELEGRAPHOS_API_SEGMENT_HPP
#define TELEGRAPHOS_API_SEGMENT_HPP

#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "sim/types.hpp"

namespace tg {

class Cluster;

/** A shared-memory segment. */
class Segment
{
  public:
    Segment(Cluster &cluster, std::string name, VAddr base,
            std::size_t pages, NodeId owner, PAddr home_frame);

    const std::string &name() const { return _name; }
    VAddr base() const { return _base; }
    std::size_t pages() const { return _pages; }
    std::size_t bytes() const;
    NodeId owner() const { return _owner; }
    PAddr homeFrame() const { return _home; }

    /** Virtual address of 64-bit word @p i. */
    VAddr word(std::size_t i) const { return _base + i * 8; }

    /** Shadow virtual address of word @p i (Telegraphos II launches). */
    VAddr shadowWord(std::size_t i) const;

    /** Home (owner-side) physical address of word @p i. */
    PAddr homeWord(std::size_t i) const { return _home + i * 8; }

    /** Home physical page base of page @p p. */
    PAddr homePage(std::size_t p) const;

    /**
     * Give @p n a local copy of the whole segment under protocol
     * @p kind (instant bookkeeping; use for experiment setup —
     * Cluster::replicatePageLive is the charged runtime path).
     */
    void replicate(NodeId n, coherence::ProtocolKind kind);

    /** Default protocol used when alarm-driven replication creates
     *  entries for this segment's pages. */
    void setReplicationKind(coherence::ProtocolKind kind) { _replKind = kind; }
    coherence::ProtocolKind replicationKind() const { return _replKind; }

    /**
     * Raw eager-update mapping (paper section 2.2.7, message-passing
     * flavour): give @p reader a local receive copy and map the owner's
     * pages out to it through the HIB multicast list.  No directory
     * entry is created; single-writer usage is assumed.
     */
    void eagerTo(NodeId reader);

    /**
     * Program the access counters for this segment's pages on node
     * @p n's HIB and mark @p n's mappings as counted (section 2.2.6).
     */
    void armCounters(NodeId n, std::uint16_t reads, std::uint16_t writes);

    /** Functional read of word @p i straight from the home storage
     *  (test/bench oracle, no timing). */
    Word peek(std::size_t i) const;

    /** Functional read of word @p i from @p n's local copy (oracle). */
    Word peekCopy(NodeId n, std::size_t i) const;

    /** Functional write of word @p i at home (initialisation). */
    void poke(std::size_t i, Word v);

  private:
    friend class Cluster;

    /** Map a fresh local copy of page @p p at @p n; returns its frame. */
    PAddr mapLocalCopy(NodeId n, std::size_t p);

    Cluster &_cluster;
    std::string _name;
    VAddr _base;
    std::size_t _pages;
    NodeId _owner;
    PAddr _home;
    coherence::ProtocolKind _replKind = coherence::ProtocolKind::OwnerCounter;
};

} // namespace tg

#endif // TELEGRAPHOS_API_SEGMENT_HPP
