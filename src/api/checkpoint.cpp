/**
 * @file
 * Cluster checkpoint/restore (DESIGN.md section 14.5).
 *
 * A checkpoint captures the *semantic* state of a quiescent cluster —
 * everything that influences the future schedule, packet contents or
 * trace hash — as a self-contained text blob (schema tg-ckpt-v4):
 *
 *  - simulation clock, event sequence counter, executed-event count
 *  - the determinism trace hash (value + words mixed)
 *  - the RNG stream state (spawn keys and Ctx forks continue exactly)
 *  - the packet-conservation ledger
 *  - per node: memory words, cache tags, TLB contents, page tables,
 *    allocator cursors, scheduler shape and HIB ticket/page-counter
 *    state
 *  - the shared-page directory (owner, copies, rings)
 *  - every statistic: the StatRegistry's own section (StatRegistry::save)
 *
 * Deliberately NOT captured: in-flight hardware state (queues, wires,
 * pending replies — quiescence guarantees there is none) and coroutine
 * frames (finished programs have none; restored clusters spawn their
 * next programs fresh).  The restore contract is: rebuild the cluster
 * from the same spec, replay the same setup calls (allocShared/
 * allocPrivate/segment replication), restore, then continue the
 * workload — the trace hash and the statistics evolve bit-identically
 * to a run that never checkpointed (DESIGN.md section 14.5).
 */

#include "api/cluster.hpp"

#include <sstream>

#include "api/segment.hpp"
#include "hib/hib.hpp"
#include "net/packet.hpp"

namespace tg {

namespace {

constexpr const char *kMagic = "tg-ckpt-v4";

/** Token-stream reader: whitespace-separated tags and unsigned values,
 *  fatal() on any shape mismatch (a checkpoint is machine-written, so a
 *  parse failure means corruption or a schema change, not user input). */
class Reader
{
  public:
    explicit Reader(const std::string &blob) : _in(blob) {}

    void
    expect(const char *tag)
    {
        std::string got;
        if (!(_in >> got) || got != tag)
            fatal("checkpoint: expected '%s', got '%s'", tag, got.c_str());
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        if (!(_in >> v))
            fatal("checkpoint: truncated blob (expected integer)");
        return v;
    }

    /** The unread rest of the blob. */
    std::istream &stream() { return _in; }

  private:
    std::istringstream _in;
};

void
writePte(std::ostream &os, VAddr vpn, const node::Pte &pte)
{
    os << vpn << " " << pte.frame << " " << unsigned(pte.mode) << " "
       << unsigned(pte.write) << " " << unsigned(pte.eager) << " "
       << unsigned(pte.counted) << "\n";
}

std::pair<VAddr, node::Pte>
readPte(Reader &r)
{
    const VAddr vpn = r.u64();
    node::Pte pte;
    pte.frame = r.u64();
    pte.mode = static_cast<node::PageMode>(r.u64());
    pte.write = r.u64() != 0;
    pte.eager = r.u64() != 0;
    pte.counted = r.u64() != 0;
    return {vpn, pte};
}

} // namespace

std::string
Cluster::checkpoint()
{
    if (!_sys->events().empty())
        fatal("checkpoint: %zu events pending — only a quiescent cluster "
              "can be checkpointed",
              _sys->events().pending());
    if (config().fault.enabled())
        fatal("checkpoint: unsupported while the fault layer is engaged "
              "(reliability-protocol state is not serialized)");
    std::string why;
    if (!_sys->ledger().quiescent(&why))
        fatal("checkpoint: %s", why.c_str());

    std::ostringstream os;
    os << kMagic << "\n";
    os << "clock " << _sys->now() << " " << _sys->events().trace().mixed()
       << "\n";
    // The event sequence counter is not directly observable; recover it
    // from executed() — at quiescence every scheduled event has fired,
    // so the next sequence number equals the number executed.
    os << "events " << _sys->events().executed() << "\n";
    os << "hash " << _sys->events().trace().value() << " "
       << _sys->events().trace().mixed() << "\n";
    const auto rng = _sys->rng().state();
    os << "rng " << rng[0] << " " << rng[1] << " " << rng[2] << " "
       << rng[3] << "\n";
    const auto &ledger = _sys->ledger();
    os << "ledger " << ledger.injected << " " << ledger.delivered << " "
       << ledger.dropped << "\n";
    os << "va " << _vaNext << "\n";

    os << "nodes " << _nodes.size() << "\n";
    for (std::size_t n = 0; n < _nodes.size(); ++n) {
        node::Workstation &ws = *_nodes[n];
        os << "node " << n << "\n";
        os << "alloc " << ws.nextAsid() << " " << ws.mainNext() << " "
           << ws.shmNext() << "\n";
        os << "ctx " << _nextCtxIdx[n] << " " << _tidCtx[n].size();
        for (std::uint32_t c : _tidCtx[n])
            os << " " << c;
        os << "\n";
        os << "cpu " << ws.cpu().numThreads() << "\n";
        os << "hib " << ws.hib().peekTicket() << "\n";

        const auto words = ws.mem().dumpWords();
        os << "mem " << words.size() << "\n";
        for (const auto &[off, val] : words)
            os << off << " " << val << "\n";

        const auto &tags = ws.cache().tags();
        std::size_t live = 0;
        for (PAddr t : tags)
            live += t != 0;
        os << "cache " << tags.size() << " " << live << "\n";
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] != 0)
                os << i << " " << tags[i] << "\n";
        }

        const auto tlb = ws.mmu().dumpTlb();
        os << "tlb " << tlb.size() << "\n";
        for (const auto &e : tlb) {
            os << e.asid << " ";
            writePte(os, e.vpn, e.pte);
        }

        const auto pages = ws.hib().pageCounters().dump();
        os << "pagec " << pages.size() << "\n";
        for (const auto &[frame, c] : pages)
            os << frame << " " << c.reads << " " << c.writes << "\n";

        os << "spaces " << ws.spaces().size() << "\n";
        for (const auto &as : ws.spaces()) {
            const auto ptes = as->dumpPages();
            os << "space " << as->asid() << " " << ptes.size() << "\n";
            for (const auto &[vpn, pte] : ptes)
                writePte(os, vpn, pte);
        }
    }

    const auto entries = _dir->entries();
    os << "dir " << entries.size() << "\n";
    for (const coherence::PageEntry *e : entries) {
        os << "page " << e->home << " " << e->owner << " "
           << unsigned(e->kind) << " " << e->copies.size() << "\n";
        for (const auto &[node, frame] : e->copies)
            os << node << " " << frame << "\n";
        os << e->ring.size();
        for (NodeId r : e->ring)
            os << " " << r;
        os << "\n";
    }
    os << "stats ";
    _sys->stats().save(os);
    os << "end\n";
    return os.str();
}

void
Cluster::restore(const std::string &blob)
{
    if (_started)
        fatal("restore: cluster already ran — restore into a freshly "
              "built cluster (replay the setup calls, then restore)");
    if (!_sys->events().empty())
        fatal("restore: %zu events pending before restore",
              _sys->events().pending());
    if (config().fault.enabled())
        fatal("restore: unsupported while the fault layer is engaged");

    Reader r(blob);
    r.expect(kMagic);
    r.expect("clock");
    const Tick now = r.u64();
    (void)r.u64(); // mixed count repeated below with the hash
    r.expect("events");
    const std::uint64_t executed = r.u64();
    _sys->events().restoreClock(now, /*seq=*/executed, executed);
    r.expect("hash");
    {
        const std::uint64_t h = r.u64();
        const std::uint64_t mixed = r.u64();
        _sys->events().trace().restore(h, mixed);
    }
    r.expect("rng");
    {
        std::array<std::uint64_t, 4> s{};
        for (auto &v : s)
            v = r.u64();
        _sys->rng().setState(s);
    }
    r.expect("ledger");
    {
        auto &ledger = _sys->ledger();
        ledger.injected = r.u64();
        ledger.delivered = r.u64();
        ledger.dropped = r.u64();
    }
    r.expect("va");
    _vaNext = r.u64();

    r.expect("nodes");
    if (r.u64() != _nodes.size())
        fatal("restore: checkpoint has a different node count (rebuild "
              "from the same spec first)");
    for (std::size_t n = 0; n < _nodes.size(); ++n) {
        node::Workstation &ws = *_nodes[n];
        r.expect("node");
        if (r.u64() != n)
            fatal("restore: node record out of order");
        r.expect("alloc");
        {
            const std::uint32_t next_asid =
                static_cast<std::uint32_t>(r.u64());
            const PAddr main_next = r.u64();
            const PAddr shm_next = r.u64();
            ws.restoreAllocators(next_asid, main_next, shm_next);
        }
        r.expect("ctx");
        _nextCtxIdx[n] = static_cast<std::uint32_t>(r.u64());
        _tidCtx[n].resize(r.u64());
        for (auto &c : _tidCtx[n])
            c = static_cast<std::uint32_t>(r.u64());
        r.expect("cpu");
        ws.cpu().restoreScheduler(r.u64());
        r.expect("hib");
        ws.hib().restoreCounters(r.u64());

        r.expect("mem");
        for (std::uint64_t i = 0, count = r.u64(); i < count; ++i) {
            const PAddr off = r.u64();
            ws.mem().write(off, r.u64());
        }

        r.expect("cache");
        {
            std::vector<PAddr> tags(r.u64(), 0);
            for (std::uint64_t i = 0, live = r.u64(); i < live; ++i) {
                const std::size_t idx = r.u64();
                if (idx >= tags.size())
                    fatal("restore: cache tag index out of range");
                tags[idx] = r.u64();
            }
            ws.cache().restoreState(tags);
        }

        r.expect("tlb");
        {
            std::vector<node::Mmu::TlbSnapshot> entries(r.u64());
            for (auto &e : entries) {
                e.asid = static_cast<std::uint32_t>(r.u64());
                auto [vpn, pte] = readPte(r);
                e.vpn = vpn;
                e.pte = pte;
            }
            ws.mmu().restoreTlb(entries);
        }

        r.expect("pagec");
        {
            std::vector<std::pair<PAddr, hib::PageCounters::Counters>>
                pages(r.u64());
            for (auto &[frame, c] : pages) {
                frame = r.u64();
                c.reads = static_cast<std::uint16_t>(r.u64());
                c.writes = static_cast<std::uint16_t>(r.u64());
            }
            ws.hib().pageCounters().restore(pages);
        }

        r.expect("spaces");
        for (std::uint64_t i = 0, count = r.u64(); i < count; ++i) {
            r.expect("space");
            const std::uint32_t asid = static_cast<std::uint32_t>(r.u64());
            std::vector<std::pair<VAddr, node::Pte>> ptes(r.u64());
            for (auto &p : ptes)
                p = readPte(r);
            // Spaces created by dead isolated programs have no replayed
            // counterpart; their tables are unreachable, so skip them.
            for (const auto &as : ws.spaces()) {
                if (as->asid() == asid) {
                    as->restorePages(ptes);
                    break;
                }
            }
        }
    }

    r.expect("dir");
    for (std::uint64_t i = 0, count = r.u64(); i < count; ++i) {
        r.expect("page");
        const PAddr home = r.u64();
        const NodeId owner = static_cast<NodeId>(r.u64());
        const auto kind = static_cast<coherence::ProtocolKind>(r.u64());
        std::map<NodeId, PAddr> copies;
        for (std::uint64_t c = 0, ncopies = r.u64(); c < ncopies; ++c) {
            const NodeId node = static_cast<NodeId>(r.u64());
            copies[node] = r.u64();
        }
        std::vector<NodeId> ring(r.u64());
        for (auto &node : ring)
            node = static_cast<NodeId>(r.u64());
        coherence::Protocol *proto =
            kind == coherence::ProtocolKind::None ? nullptr
                                                  : &protocol(kind);
        _dir->restoreEntry(home, owner, kind, proto, copies, ring);
    }

    // Last: the directory has now created every protocol, so every stat
    // the checkpointed cluster registered is registered here too.
    r.expect("stats");
    _sys->stats().restore(r.stream());
    r.expect("end");
}

} // namespace tg
