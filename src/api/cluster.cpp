/**
 * @file
 * Cluster implementation: builds the machine room (nodes,
 * HIBs, network, directory, protocols), spawns programs and runs the
 * simulation to completion.
 */

#include "api/cluster.hpp"

#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "coherence/galactica_ring.hpp"
#include "coherence/invalidate.hpp"
#include "coherence/naive_multicast.hpp"
#include "coherence/owner_counter.hpp"
#include "node/address.hpp"

namespace tg {

using coherence::PageEntry;
using coherence::ProtocolKind;
using node::PageMode;
using node::Pte;

ClusterSpec
ClusterSpec::star(std::size_t nodes)
{
    ClusterSpec s;
    s._topology.kind = net::TopologyKind::Star;
    s._topology.nodes = nodes;
    return s;
}

ClusterSpec
ClusterSpec::chain(std::size_t nodes, std::size_t perSwitch)
{
    ClusterSpec s;
    s._topology.kind = net::TopologyKind::Chain;
    s._topology.nodes = nodes;
    s._topology.nodesPerSwitch = perSwitch;
    return s;
}

ClusterSpec
ClusterSpec::ring(std::size_t nodes, std::size_t perSwitch)
{
    ClusterSpec s;
    s._topology.kind = net::TopologyKind::Ring;
    s._topology.nodes = nodes;
    s._topology.nodesPerSwitch = perSwitch;
    return s;
}

ClusterSpec
ClusterSpec::torus(std::size_t x, std::size_t y, std::size_t perSwitch)
{
    ClusterSpec s;
    s._topology.kind = net::TopologyKind::Torus2D;
    s._topology.torusX = x;
    s._topology.torusY = y;
    s._topology.nodesPerSwitch = perSwitch;
    s._topology.nodes = x * y * perSwitch;
    return s;
}

ClusterSpec
ClusterSpec::torus3d(std::size_t x, std::size_t y, std::size_t z,
                     std::size_t perSwitch)
{
    ClusterSpec s;
    s._topology.kind = net::TopologyKind::Torus3D;
    s._topology.torusX = x;
    s._topology.torusY = y;
    s._topology.torusZ = z;
    s._topology.nodesPerSwitch = perSwitch;
    s._topology.nodes = x * y * z * perSwitch;
    return s;
}

ClusterSpec
ClusterSpec::fatTree(std::size_t nodes, std::size_t perSwitch,
                     std::size_t spines)
{
    ClusterSpec s;
    s._topology.kind = net::TopologyKind::FatTree;
    s._topology.nodes = nodes;
    s._topology.nodesPerSwitch = perSwitch;
    s._topology.spines = spines == 0 ? perSwitch : spines;
    return s;
}

ClusterSpec
ClusterSpec::fromTopology(const net::TopologySpec &t)
{
    ClusterSpec s;
    s._topology = t;
    return s;
}

ClusterSpec
ClusterSpec::forKind(net::TopologyKind kind, std::size_t nodes,
                     std::size_t perSwitch)
{
    switch (kind) {
      case net::TopologyKind::Star:
        return star(nodes);
      case net::TopologyKind::Chain:
        return chain(nodes, perSwitch);
      case net::TopologyKind::Ring:
        return ring(nodes, perSwitch);
      case net::TopologyKind::Torus2D: {
        const std::size_t nsw =
            perSwitch ? (nodes + perSwitch - 1) / perSwitch : 1;
        std::size_t gx = 1;
        for (std::size_t d = 1; d * d <= nsw; ++d)
            if (nsw % d == 0)
                gx = d;
        return torus(gx, nsw / gx, perSwitch);
      }
      case net::TopologyKind::Torus3D: {
        // Most-cubical switch grid for nodes/perSwitch switches: the
        // largest factor pair (a, b*c) with b*c split most-squarely in
        // turn.  Rounds nodes up to fill the grid.
        const std::size_t nsw =
            perSwitch ? (nodes + perSwitch - 1) / perSwitch : 1;
        std::size_t gz = 1;
        for (std::size_t d = 1; d * d * d <= nsw; ++d)
            if (nsw % d == 0)
                gz = d;
        const std::size_t rest = nsw / gz;
        std::size_t gy = 1;
        for (std::size_t d = 1; d * d <= rest; ++d)
            if (rest % d == 0)
                gy = d;
        return torus3d(rest / gy, gy, gz, perSwitch);
      }
      case net::TopologyKind::FatTree:
        return fatTree(nodes, perSwitch);
    }
    panic("forKind: unknown topology kind %d", int(kind));
}

ClusterSpec &
ClusterSpec::protocol(coherence::ProtocolKind kind)
{
    defaultProtocol = kind;
    return *this;
}

ClusterSpec &
ClusterSpec::collectives(CollectiveBackend b)
{
    defaultCollectives = b;
    return *this;
}

ClusterSpec &
ClusterSpec::trace(bool on)
{
    config.tracePackets = on;
    return *this;
}

ClusterSpec &
ClusterSpec::traceSample(std::uint32_t shift)
{
    config.traceSampleShift = shift;
    return *this;
}

ClusterSpec &
ClusterSpec::seed(std::uint64_t s)
{
    config.seed = s;
    return *this;
}

ClusterSpec &
ClusterSpec::prototype(Prototype p)
{
    config.prototype = p;
    return *this;
}

ClusterSpec &
ClusterSpec::faults(const FaultSpec &f)
{
    config.fault = f;
    return *this;
}

Expected<std::unique_ptr<Cluster>, ConfigError>
Cluster::build(const ClusterSpec &spec)
{
    if (auto valid = spec.topology().validate(); !valid)
        return valid.error();
    return std::make_unique<Cluster>(spec);
}

Cluster::Cluster(const ClusterSpec &spec)
    : _defaultProtocol(spec.defaultProtocol),
      _collBackend(spec.defaultCollectives)
{
    _sys = std::make_unique<System>(spec.config);
    _dir = std::make_unique<coherence::Directory>(*_sys, "dir");
    _net = std::make_unique<net::Network>(*_sys, "net", spec.topology());

    const std::size_t n = spec.topology().nodes;
    _nextCtxIdx.assign(n, 0);
    _tidCtx.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
        auto ws = std::make_unique<node::Workstation>(
            *_sys, "node" + std::to_string(i), static_cast<NodeId>(i));
        ws->hib().setDirectory(_dir.get());
        _net->attach(static_cast<NodeId>(i), ws->hib());
        auto os = std::make_unique<os::OsKernel>(
            *_sys, "os" + std::to_string(i), *ws);
        os->install();
        _nodes.push_back(std::move(ws));
        _kernels.push_back(std::move(os));
    }

    _protocols.push_back(
        std::make_unique<coherence::NaiveMulticastProtocol>(*_sys, *this));
    _protocols.push_back(
        std::make_unique<coherence::OwnerCounterProtocol>(*_sys, *this));
    _protocols.push_back(
        std::make_unique<coherence::GalacticaRingProtocol>(*_sys, *this));
    _protocols.push_back(
        std::make_unique<coherence::InvalidateProtocol>(*_sys, *this));

    if (spec.config.fault.enabled()) {
        _net->setFailureHandler(
            [this](net::Packet &&pkt) { wireFailure(std::move(pkt)); });
    }
}

void
Cluster::wireFailure(net::Packet &&pkt)
{
    // Who loses an expected completion when this packet vanishes?  For
    // replies and acks it is the node still waiting for them (dst); for
    // coherence updates it is the write's origin (whose outstanding
    // counter tracks the reflected copies); for requests it is the
    // sender.
    NodeId victim;
    switch (pkt.type) {
      case net::PacketType::WriteAck:
      case net::PacketType::UpdateAck:
      case net::PacketType::ReadReply:
      case net::PacketType::AtomicReply:
      case net::PacketType::CopyData:
      case net::PacketType::InvAck:
      case net::PacketType::PageData:
      // Collective tree traffic: the receiving NIC synthesizes the lost
      // arrival/release so every member still completes (coll_engine).
      case net::PacketType::CollUp:
      case net::PacketType::CollDown:
        victim = pkt.dst;
        break;
      case net::PacketType::Update:
      case net::PacketType::RingUpdate:
      case net::PacketType::WriteOwner:
        victim = pkt.origin;
        break;
      default:
        victim = pkt.src;
        break;
    }

    for (auto &ctx : _ctxs) {
        if (ctx->self() == victim)
            ctx->noteWireFailure();
    }
    _kernels[victim]->onWireFailure(pkt);
    hibOf(victim).onWireFailure(pkt);
}

Cluster::~Cluster() = default;

coherence::Protocol &
Cluster::protocol(ProtocolKind kind)
{
    for (auto &p : _protocols) {
        if (p->kind() == kind)
            return *p;
    }
    fatal("no protocol instance for kind %s", protocolKindName(kind));
}

VAddr
Cluster::allocVa(std::size_t pages)
{
    const VAddr va = _vaNext;
    _vaNext += VAddr(pages) * config().pageBytes;
    return va;
}

Segment &
Cluster::allocShared(const std::string &name, std::size_t bytes,
                     NodeId owner)
{
    const std::size_t page_bytes = config().pageBytes;
    const std::size_t pages = (bytes + page_bytes - 1) / page_bytes;
    const VAddr va = allocVa(pages);
    const PAddr home = node(owner).allocShmFrames(pages);

    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        Pte pte;
        pte.frame = home;
        pte.mode = (static_cast<NodeId>(i) == owner) ? PageMode::SharedLocal
                                                     : PageMode::SharedRemote;
        _nodes[i]->defaultAddressSpace().mapRange(va, pages, pte);
    }

    _segments.push_back(
        std::make_unique<Segment>(*this, name, va, pages, owner, home));
    _segments.back()->setReplicationKind(_defaultProtocol);
    return *_segments.back();
}

VAddr
Cluster::allocPrivate(NodeId n, std::size_t bytes)
{
    const std::size_t page_bytes = config().pageBytes;
    const std::size_t pages = (bytes + page_bytes - 1) / page_bytes;
    const VAddr va = allocVa(pages);
    Pte pte;
    pte.frame = node(n).allocMainFrames(pages);
    pte.mode = PageMode::Private;
    node(n).defaultAddressSpace().mapRange(va, pages, pte);
    return va;
}

Communicator &
Cluster::communicator(const std::string &name, std::vector<NodeId> members,
                      std::size_t max_words)
{
    _comms.push_back(std::make_unique<Communicator>(
        Communicator::BuildKey{}, *this, name, std::move(members),
        _collBackend, _nextGroupId++, max_words));
    return *_comms.back();
}

Segment *
Cluster::segmentOfHome(PAddr home_page)
{
    for (auto &s : _segments) {
        if (home_page >= s->homeFrame() &&
            home_page < s->homeFrame() + s->pages() * config().pageBytes)
            return s.get();
    }
    return nullptr;
}

void
Cluster::onCopyInvalidated(PageEntry &e, NodeId n, PAddr target_frame)
{
    Segment *seg = segmentOfHome(e.home);
    if (!seg)
        return;
    const std::size_t page =
        static_cast<std::size_t>((e.home - seg->homeFrame()) /
                                 config().pageBytes);
    const VAddr va = seg->base() + page * config().pageBytes;
    node::AddressSpace &as = node(n).defaultAddressSpace();
    if (Pte *pte = as.find(va)) {
        pte->frame = target_frame;
        pte->mode = PageMode::SharedRemote;
    }
    node(n).mmu().flushPage(as.asid(), va);
}

void
Cluster::replicatePageLive(NodeId n, PAddr home_page,
                           std::function<void()> done)
{
    Segment *seg = segmentOfHome(home_page);
    if (!seg) {
        warn("replicatePageLive: no segment for page %llx",
             (unsigned long long)home_page);
        if (done)
            done();
        return;
    }

    PageEntry *e = _dir->byHome(home_page);
    if (!e) {
        coherence::Protocol &proto = protocol(seg->replicationKind());
        e = &_dir->create(home_page, seg->owner(), seg->replicationKind(),
                          &proto);
        proto.onCopyAdded(*e, seg->owner());
    }
    if (e->hasCopy(n)) {
        if (done)
            done();
        return;
    }

    const PAddr local = node(n).allocShmFrames(1);
    // Register the copy first so updates flow to it while it fills.
    _dir->addCopy(*e, n, local);
    e->protocol->onCopyAdded(*e, n);

    // OS work: fault-level bookkeeping, then a HIB bulk copy, then the
    // remap + TLB flush.
    const Tick os_cost = config().osTrap + config().osPageFault;
    _sys->events().schedule(os_cost, [this, n, seg, home_page, local,
                                      done = std::move(done)] {
        hibOf(n).startCopy(home_page, local, config().pageBytes,
                           [this, n, seg, home_page, local, done] {
                               const std::size_t page =
                                   static_cast<std::size_t>(
                                       (home_page - seg->homeFrame()) /
                                       config().pageBytes);
                               const VAddr va = seg->base() +
                                                page * config().pageBytes;
                               node::AddressSpace &as =
                                   node(n).defaultAddressSpace();
                               if (Pte *pte = as.find(va)) {
                                   pte->frame = local;
                                   pte->mode = PageMode::SharedLocal;
                               }
                               node(n).mmu().flushPage(as.asid(), va);
                               if (done)
                                   done();
                           });
    });
}

int
Cluster::spawn(NodeId n, Body body)
{
    return spawnIn(n, node(n).defaultAddressSpace(), std::move(body));
}

int
Cluster::spawnIsolated(NodeId n, Body body)
{
    return spawnIn(n, node(n).newAddressSpace(), std::move(body));
}

int
Cluster::spawnIn(NodeId n, node::AddressSpace &as, Body body)
{
    node::Workstation &ws = node(n);
    const std::uint32_t idx = _nextCtxIdx[n]++;
    if (idx >= config().hibContexts)
        fatal("node %u out of Telegraphos contexts", unsigned(n));
    const std::uint32_t key =
        static_cast<std::uint32_t>(_sys->rng().next() | 1);
    ws.hib().specialOps().assignKey(idx, key);

    // Map this thread's Telegraphos context page (the mapping is the
    // protection: other processes' contexts stay unmapped).
    const VAddr ctx_va = allocVa(1);
    Pte ctx_pte;
    ctx_pte.frame =
        node::makePAddr(n, hib::SpecialOpsUnit::contextRegBase(idx));
    ctx_pte.mode = PageMode::HibControl;
    as.map(ctx_va, ctx_pte);

    // Map the Telegraphos I special-register page (PAL-mediated access).
    const VAddr special_va = allocVa(1);
    Pte sp_pte;
    sp_pte.frame = node::makePAddr(n, node::kHibRegBase);
    sp_pte.mode = PageMode::HibControl;
    as.map(special_va, sp_pte);

    auto ctx = std::make_unique<Ctx>(*this, n, ws.cpu(), as, idx, key,
                                     ctx_va, special_va,
                                     _sys->rng().fork());
    Ctx *raw = ctx.get();
    _ctxs.push_back(std::move(ctx));
    const int tid = ws.cpu().addThread(&as, [raw, body = std::move(body)] {
        return body(*raw);
    });
    if (std::size_t(tid) >= _tidCtx[n].size())
        _tidCtx[n].resize(tid + 1, 0);
    _tidCtx[n][tid] = idx;
    return tid;
}

void
Cluster::enableFlashOsSupport()
{
    // Two uncached device-register accesses per switch (save old PID,
    // write new one) inside the interrupt handler.
    const Tick extra = 2 * config().tcWriteTxn(2);
    for (std::size_t n = 0; n < _nodes.size(); ++n) {
        _nodes[n]->cpu().setSwitchHook(
            [this, n](int tid) {
                const auto &map = _tidCtx[n];
                if (std::size_t(tid) < map.size())
                    hibOf(NodeId(n)).specialOps().setPid(map[tid]);
            },
            extra);
    }
}

Tick
Cluster::run(Tick limit)
{
    // Kick every idle CPU: programs may have been spawned after an
    // earlier run() (start() is a no-op while a thread is running).
    _started = true;
    for (auto &ws : _nodes)
        ws->cpu().start();
    while (!allDone()) {
        if (_sys->events().empty()) {
            warn("cluster: event queue drained with programs unfinished "
                 "(deadlock?)");
            break;
        }
        if (_sys->now() >= limit) {
            warn("cluster: run limit reached at %llu ticks",
                 (unsigned long long)_sys->now());
            break;
        }
        _sys->events().run(100'000);
    }
    return _sys->now();
}

bool
Cluster::allDone() const
{
    for (const auto &ws : _nodes) {
        if (!ws->cpu().allDone())
            return false;
    }
    return true;
}

bool
Cluster::anyKilled() const
{
    for (const auto &ws : _nodes) {
        for (std::size_t t = 0; t < ws->cpu().numThreads(); ++t) {
            if (ws->cpu().threadInfo(static_cast<int>(t)).killed)
                return true;
        }
    }
    return false;
}

void
Cluster::observeWrites(
    std::function<void(const coherence::ApplyEvent &)> cb)
{
    _dir->observe(std::move(cb));
}

void
Cluster::statsReport(std::ostream &os) const
{
    os << "=== cluster statistics @ " << _sys->now() << " ns ("
       << toUs(_sys->now()) << " us) ===\ntopology: "
       << _net->spec().describe() << "\n";
    _sys->stats().dump(os);
}

} // namespace tg
