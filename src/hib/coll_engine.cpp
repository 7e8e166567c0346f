/**
 * @file
 * NIC-resident collective state machines: tree up-combine and down
 * fan-out, descriptor arming, and wire-failure synthesis.
 */

#include "hib/coll_engine.hpp"

#include <algorithm>

#include "hib/hib.hpp"
#include "sim/invariant.hpp"

namespace tg::hib {

namespace {

/** Pack op / error flag / root rank into Packet::value2. */
Word
packControl(CollOp op, bool error, std::uint32_t root)
{
    return Word(op) | (error ? Word(0x100) : 0) | (Word(root) << 16);
}

CollOp
controlOp(Word v)
{
    return static_cast<CollOp>(v & 0xff);
}

bool
controlError(Word v)
{
    return (v & 0x100) != 0;
}

std::uint32_t
controlRoot(Word v)
{
    return std::uint32_t(v >> 16);
}

trace::OpKind
kindFor(CollOp op)
{
    switch (op) {
      case CollOp::Barrier: return trace::OpKind::CollBarrier;
      case CollOp::Bcast: return trace::OpKind::CollBcast;
      case CollOp::Reduce:
      case CollOp::AllReduce: return trace::OpKind::CollReduce;
      case CollOp::None: break;
    }
    return trace::OpKind::Other;
}

} // namespace

// ---------------------------------------------------------------------
// CollGroup
// ---------------------------------------------------------------------

CollGroup::CollGroup(std::uint32_t id, std::vector<NodeId> members,
                     const net::TopologySpec &topo)
    : _id(id), _members(std::move(members)), _topo(topo)
{
    TG_AUDIT(!_members.empty(), "CollGroup %u: no members", id);
    for (std::size_t r = 0; r < _members.size(); ++r) {
        const bool fresh = _rankByNode.emplace(_members[r], r).second;
        if (!fresh)
            fatal("CollGroup %u: node %u listed twice", id,
                  unsigned(_members[r]));
    }
}

std::size_t
CollGroup::rankOf(NodeId node) const
{
    const auto it = _rankByNode.find(node);
    if (it == _rankByNode.end())
        panic("CollGroup %u: node %u is not a member", _id, unsigned(node));
    return it->second;
}

const net::CollTree &
CollGroup::tree(std::size_t root_rank)
{
    TG_AUDIT(root_rank < _members.size(), "CollGroup %u: root rank %zu "
             "out of range", _id, root_rank);
    auto it = _trees.find(root_rank);
    if (it == _trees.end())
        it = _trees
                 .emplace(root_rank,
                          net::buildCollTree(_topo, _members, root_rank,
                                             Config::collFanout))
                 .first;
    return it->second;
}

// ---------------------------------------------------------------------
// CollEngine
// ---------------------------------------------------------------------

CollEngine::CollEngine(System &sys, Hib &hib)
    : SimObject(sys, hib.name() + ".coll"), _hib(hib)
{
    // Registered unconditionally (like hib.wire_failures): the tg-stats-v2
    // surface always carries the collective counters, zero or not.
    auto &reg = sys.stats();
    reg.add({hib.name(), "coll_barriers"}, &_barriers);
    reg.add({hib.name(), "coll_bcast_msgs"}, &_bcastMsgs);
    reg.add({hib.name(), "coll_combines"}, &_combines);
    reg.add({hib.name(), "coll_desc_now"}, &_descNow);
    reg.add({hib.name(), "coll_desc_peak"}, &_descPeak);
    reg.add({hib.name(), "coll_errors"}, &_errors);
}

void
CollEngine::registerGroup(CollGroupPtr group)
{
    TG_AUDIT(group != nullptr, "%s: null group", _name.c_str());
    _groups[group->id()] = std::move(group);
}

void
CollEngine::stage(std::uint32_t ctx_idx, std::vector<Word> *io)
{
    _staged[ctx_idx] = io;
}

CollGroup *
CollEngine::groupOf(std::uint32_t id)
{
    const auto it = _groups.find(id);
    return it == _groups.end() ? nullptr : it->second.get();
}

std::size_t
CollEngine::myRank(CollGroup &g) const
{
    return g.rankOf(_hib.nodeId());
}

CollEngine::Pending &
CollEngine::ensurePending(CollGroup &g, std::uint64_t seq, CollOp op,
                          std::uint32_t root)
{
    Pending &p = _pending[Key{g.id(), seq}];
    if (p.op == CollOp::None) {
        p.op = op;
        p.root = root;
        // One lifecycle op per member per collective; packets between
        // NICs ride on the sender's id, local completion closes ours.
        p.traceId = _sys.tracer().beginOp(kindFor(op));
    }
    // MPI ordering contract: every member issues the same collectives in
    // the same order on a group, so descriptor seq and packet seq agree.
    TG_AUDIT(p.op == op && p.root == root,
             "%s: group %u seq %llu op mismatch (members must issue "
             "collectives in identical order)",
             _name.c_str(), g.id(), (unsigned long long)seq);
    return p;
}

void
CollEngine::issue(std::uint32_t ctx_idx, const CollArgs &args, OnWord done)
{
    CollGroup *g = groupOf(args.group);
    if (!g || args.op == CollOp::None) {
        warn("%s: collective GO with bad descriptor (group %u)",
             _name.c_str(), args.group);
        done(0);
        return;
    }
    const std::uint64_t seq = _nextSeq[args.group]++;
    Pending &p = ensurePending(*g, seq, args.op, args.root);
    TG_AUDIT(!p.armed, "%s: group %u seq %llu armed twice", _name.c_str(),
             args.group, (unsigned long long)seq);
    p.armed = true;
    p.partial += args.datum;
    p.done = std::move(done);
    if (const auto it = _staged.find(ctx_idx); it != _staged.end()) {
        p.io = it->second;
        _staged.erase(it);
    }
    _descNow += 1;
    _descPeak = std::max(_descPeak, _descNow);
    _sys.tracer().record(p.traceId, trace::Span::CpuIssue, now());
    tryAdvance(*g, seq, p);
}

void
CollEngine::handlePacket(net::Packet &&pkt, OnDone finished)
{
    CollGroup *g = groupOf(std::uint32_t(pkt.addr));
    if (!g) {
        warn("%s: collective packet for unknown group %llu", _name.c_str(),
             (unsigned long long)pkt.addr);
        finished();
        return;
    }
    const CollOp op = controlOp(pkt.value2);
    const std::uint32_t root = controlRoot(pkt.value2);
    const bool err = controlError(pkt.value2);
    const std::uint64_t seq = pkt.seq;

    if (pkt.type == net::PacketType::CollUp) {
        // Fold the child's partial through the combine path: barrier
        // arrivals are a counter bump, reduces a full atomic-unit RMW.
        const Tick cost = op == CollOp::Barrier ? config().counterOp
                                                : config().hibAtomic;
        ensurePending(*g, seq, op, root);
        const Key key{g->id(), seq};
        schedule(cost, [this, key, value = pkt.value, err,
                        finished = std::move(finished)]() mutable {
            const auto it = _pending.find(key);
            if (it == _pending.end()) {
                finished();
                return;
            }
            Pending &p = it->second;
            CollGroup *grp = groupOf(key.first);
            if (p.op != CollOp::Barrier)
                ++_combines;
            p.partial += value;
            p.error |= err;
            ++p.arrived;
            tryAdvance(*grp, key.second, p);
            finished();
        });
        return;
    }

    Pending &p = ensurePending(*g, seq, op, root);
    p.error |= err;
    applyDown(*g, seq, p, pkt);
    finished();
}

void
CollEngine::onWireFailure(const net::Packet &pkt)
{
    CollGroup *g = groupOf(std::uint32_t(pkt.addr));
    if (!g)
        return;
    const CollOp op = controlOp(pkt.value2);
    const std::uint32_t root = controlRoot(pkt.value2);
    const std::uint64_t seq = pkt.seq;
    Pending &p = ensurePending(*g, seq, op, root);
    p.error = true;

    if (pkt.type == net::PacketType::CollUp) {
        // A child's arrival is gone for good: synthesize it (with its
        // partial, which the victim-side packet copy still carries) so
        // the collective terminates; the error flag rides up and down.
        if (p.op != CollOp::Barrier)
            ++_combines;
        p.partial += pkt.value;
        ++p.arrived;
        tryAdvance(*g, seq, p);
        return;
    }
    // A release/payload meant for this NIC is gone: synthesize the
    // receipt so this whole subtree still completes.
    applyDown(*g, seq, p, pkt);
}

void
CollEngine::applyDown(CollGroup &g, std::uint64_t seq, Pending &p,
                      const net::Packet &pkt)
{
    if (p.released)
        return; // duplicate (wire-failure synthesis raced a late copy)
    p.released = true;
    p.downValue = pkt.value;
    if (pkt.bulk)
        p.payload = pkt.bulk;
    // Forward to this node's subtree immediately — no host on the path.
    sendDown(g, seq, p);
    tryAdvance(g, seq, p);
}

void
CollEngine::sendUp(CollGroup &g, std::uint64_t seq, Pending &p)
{
    const net::CollTree &tree = g.tree(p.root);
    const std::size_t rank = myRank(g);
    net::Packet pkt;
    pkt.type = net::PacketType::CollUp;
    pkt.dst = g.members()[tree.parent[rank]];
    pkt.addr = g.id();
    pkt.seq = seq;
    pkt.value = p.partial;
    pkt.value2 = packControl(p.op, p.error, p.root);
    pkt.payloadBytes = 16;
    pkt.traceId = p.traceId;
    _hib.inject(std::move(pkt), /*track=*/false);
}

void
CollEngine::sendDown(CollGroup &g, std::uint64_t seq, Pending &p)
{
    const net::CollTree &tree = g.tree(p.root);
    const std::size_t rank = myRank(g);
    for (const std::size_t child : tree.children[rank]) {
        net::Packet pkt;
        pkt.type = net::PacketType::CollDown;
        pkt.dst = g.members()[child];
        pkt.addr = g.id();
        pkt.seq = seq;
        pkt.value = p.downValue;
        pkt.value2 = packControl(p.op, p.error, p.root);
        pkt.payloadBytes = 8;
        if (p.payload) {
            pkt.bulk = p.payload;
            pkt.payloadBytes =
                8 + std::uint32_t(p.payload->size()) * 8;
        }
        pkt.traceId = p.traceId;
        _hib.inject(std::move(pkt), /*track=*/false);
        _bcastMsgs += 1;
    }
}

void
CollEngine::tryAdvance(CollGroup &g, std::uint64_t seq, Pending &p)
{
    if (p.op == CollOp::None || !p.armed)
        return;
    const net::CollTree &tree = g.tree(p.root);
    const std::size_t rank = myRank(g);
    const std::size_t nchild = tree.children[rank].size();

    if (p.op == CollOp::Bcast) {
        if (rank == p.root && !p.released) {
            // Root: stage the payload and start the fan-out.
            p.released = true;
            p.payload = std::make_shared<std::vector<Word>>(
                p.io ? *p.io : std::vector<Word>{});
            sendDown(g, seq, p);
        }
        if (p.released)
            complete(g, seq, p, 0);
        return;
    }

    // Up phase (barrier / reduce / all-reduce).
    if (!p.upSent && p.arrived == nchild) {
        p.upSent = true;
        if (rank == p.root) {
            // Turnaround: the root's combine is the global result.
            p.released = true;
            p.downValue = p.partial;
            if (p.op != CollOp::Reduce)
                sendDown(g, seq, p);
            complete(g, seq, p,
                     p.op == CollOp::Barrier ? 0 : p.downValue);
            return;
        }
        sendUp(g, seq, p);
        if (p.op == CollOp::Reduce) {
            // MPI semantics: a non-root reduce completes once its
            // contribution is on the wire; only the root holds the sum.
            complete(g, seq, p, 0);
            return;
        }
    }
    if (p.upSent && p.released)
        complete(g, seq, p,
                 p.op == CollOp::Barrier ? 0 : p.downValue);
}

void
CollEngine::complete(CollGroup &g, std::uint64_t seq, Pending &p,
                     Word result)
{
    if (p.error)
        ++_errors;
    if (p.op == CollOp::Barrier)
        ++_barriers;
    _descNow -= 1;

    // Broadcast receivers DMA the payload into the staged host buffer
    // (delivered verbatim: io ends up exactly the root's words).
    Tick dma = 0;
    if (p.op == CollOp::Bcast && p.io && p.payload &&
        myRank(g) != p.root) {
        p.io->assign(p.payload->begin(), p.payload->end());
        dma = config().prototype == Prototype::TelegraphosI
                  ? config().hibSram
                  : config().tcWriteTxn(
                        std::uint32_t(p.payload->size()) * 2);
    }

    OnWord done = std::move(p.done);
    const std::uint64_t traceId = p.traceId;
    _pending.erase(Key{g.id(), seq});
    auto fire = [this, traceId, done = std::move(done), result]() mutable {
        _sys.tracer().record(traceId, trace::Span::Completion, now());
        if (done)
            done(result);
    };
    if (dma > 0)
        schedule(dma, std::move(fire));
    else
        fire();
}

} // namespace tg::hib
