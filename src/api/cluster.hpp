/**
 * @file
 * Cluster: the top-level public API of the Telegraphos reproduction.
 *
 * A Cluster owns a complete simulated machine room: N workstations with
 * HIBs, the switch network, the shared-page directory and the coherence
 * protocols.  Users allocate shared segments, spawn coroutine programs on
 * nodes, and run the simulation:
 *
 * @code
 *   tg::Cluster cluster(tg::ClusterSpec::star(2));
 *   auto &seg = cluster.allocShared("data", 4096, 0);
 *   cluster.spawn(1, [&](tg::Ctx &ctx) -> tg::Task<void> {
 *       co_await ctx.write(seg.word(0), 42);     // remote write
 *       tg::Word v = co_await ctx.read(seg.word(0)); // remote read
 *       co_await ctx.fence();
 *   });
 *   cluster.run();
 * @endcode
 *
 * Specs come from the named constructors
 * (star/chain/ring/torus/torus3d/fatTree) refined by chainers;
 * Cluster::build() is the non-aborting factory for user-supplied
 * configurations.
 */

#ifndef TELEGRAPHOS_API_CLUSTER_HPP
#define TELEGRAPHOS_API_CLUSTER_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/directory.hpp"
#include "coherence/protocol.hpp"
#include "net/network.hpp"
#include "node/workstation.hpp"
#include "os/os_kernel.hpp"
#include "sim/expected.hpp"
#include "sim/system.hpp"
#include "sim/task.hpp"

namespace tg {

class Communicator;
class Ctx;
class Segment;

/**
 * Where collective operations execute (DESIGN.md section 15).
 *
 * Host: software trees over the paper's primitives — eager-update
 * broadcast pages, remote fetch&add reductions, sense-reversing
 * barriers.  The CPU drives every step.
 *
 * Nic: the HIB's collective engine — the host writes one descriptor and
 * blocks on a single register read while CollUp/CollDown packets run the
 * combine/fan-out tree NIC-to-NIC.
 */
enum class CollectiveBackend
{
    Host,
    Nic,
};

/**
 * Everything needed to build a cluster.
 *
 * Construct with a named topology constructor and refine with chainers:
 *
 * @code
 *   auto spec = tg::ClusterSpec::torus(4, 4, 4)
 *                   .protocol(tg::coherence::ProtocolKind::OwnerCounter)
 *                   .trace(true)
 *                   .seed(7);
 * @endcode
 *
 * The interconnect description is read-only (topology() accessor):
 * every spec comes from the named builders or, for runtime-assembled
 * sweeps, fromTopology().
 */
struct ClusterSpec
{
    Config config;
    /** Replication protocol newly allocated segments default to. */
    coherence::ProtocolKind defaultProtocol =
        coherence::ProtocolKind::OwnerCounter;
    /** Backend Cluster::communicator() builds collectives on. */
    CollectiveBackend defaultCollectives = CollectiveBackend::Host;

    /** The interconnect description the builders assembled. */
    const net::TopologySpec &topology() const { return _topology; }

    /**
     * Adopt a runtime-assembled net::TopologySpec verbatim (parameter
     * sweeps, rejection-path tests).  Validation still happens in
     * Cluster::build() / the Cluster constructor.
     */
    static ClusterSpec fromTopology(const net::TopologySpec &t);

    // ------------------------------------------------------------------
    // Named constructors (one per topology)
    // ------------------------------------------------------------------

    /** One central switch, @p nodes one hop apart. */
    static ClusterSpec star(std::size_t nodes);

    /** Switches in a line, @p perSwitch nodes each. */
    static ClusterSpec chain(std::size_t nodes, std::size_t perSwitch = 4);

    /** Switches in a cycle (>= 3), @p perSwitch nodes each. */
    static ClusterSpec ring(std::size_t nodes, std::size_t perSwitch = 4);

    /** @p x by @p y torus of switches, @p perSwitch nodes each
     *  (nodes = x * y * perSwitch). */
    static ClusterSpec torus(std::size_t x, std::size_t y,
                             std::size_t perSwitch = 4);

    /** @p x by @p y by @p z torus of switches, @p perSwitch nodes each
     *  (nodes = x * y * z * perSwitch). */
    static ClusterSpec torus3d(std::size_t x, std::size_t y, std::size_t z,
                               std::size_t perSwitch = 4);

    /** Two-level fat-tree: leaves of @p perSwitch nodes under @p spines
     *  spine switches (0: one spine per leaf uplink = perSwitch). */
    static ClusterSpec fatTree(std::size_t nodes,
                               std::size_t perSwitch = 4,
                               std::size_t spines = 0);

    /** Topology chosen at runtime (parameter sweeps).  Star/Chain/Ring
     *  map directly; Torus2D/Torus3D pick the most-square (most-cubical)
     *  switch grid for nodes/perSwitch switches (nodes is rounded up to
     *  fill it); FatTree gets perSwitch spines. */
    static ClusterSpec forKind(net::TopologyKind kind, std::size_t nodes,
                               std::size_t perSwitch = 4);

    // ------------------------------------------------------------------
    // Chainers
    // ------------------------------------------------------------------

    /** Default replication protocol for shared segments. */
    ClusterSpec &protocol(coherence::ProtocolKind kind);

    /** Backend for Communicator collective operations. */
    ClusterSpec &collectives(CollectiveBackend b);

    /** Record packet-lifecycle spans (latency breakdowns, p50/p99). */
    ClusterSpec &trace(bool on = true);

    /** Seed for all stochastic decisions (determinism contract). */
    ClusterSpec &seed(std::uint64_t s);

    /** Which hardware prototype is modelled. */
    ClusterSpec &prototype(Prototype p);

    /** Link fault model (inert spec disables it). */
    ClusterSpec &faults(const FaultSpec &f);

    /** Escape hatch: arbitrary Config tuning without raw field pokes at
     *  call sites
     *  (`spec.tune([](tg::Config &c) { c.switchQueuePackets = 8; })`). */
    template <typename F>
    ClusterSpec &
    tune(F &&fn)
    {
        fn(config);
        return *this;
    }

  private:
    net::TopologySpec _topology;
};

/** A simulated Telegraphos workstation cluster. */
class Cluster : public coherence::Fabric
{
  public:
    using Body = std::function<Task<void>(Ctx &)>;

    /**
     * Construct-or-die: validates the spec via fatal() on rejection.
     * Fine for tests and fixed-configuration tools; code taking user
     * input should use build().
     */
    explicit Cluster(const ClusterSpec &spec);
    ~Cluster() override;

    /**
     * Non-aborting factory: returns the built cluster, or the
     * ConfigError explaining why the spec was rejected (0 nodes,
     * non-rectangular torus, port overflow, ...).  fatal() never fires
     * on this path for bad user input.
     */
    static Expected<std::unique_ptr<Cluster>, ConfigError>
    build(const ClusterSpec &spec);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    System &system() override { return *_sys; }
    const Config &config() const { return _sys->config(); }
    std::size_t numNodes() const { return _nodes.size(); }
    node::Workstation &node(NodeId n) { return *_nodes.at(n); }
    os::OsKernel &os(NodeId n) { return *_kernels.at(n); }
    net::Network &network() { return *_net; }
    Tick now() const { return _sys->now(); }

    // coherence::Fabric
    hib::Hib &hibOf(NodeId n) override { return _nodes.at(n)->hib(); }
    node::MainMemory &memOf(NodeId n) override { return _nodes.at(n)->mem(); }
    coherence::Directory &directory() override { return *_dir; }
    void onCopyInvalidated(coherence::PageEntry &e, NodeId n,
                           PAddr target_frame) override;

    coherence::Protocol &protocol(coherence::ProtocolKind kind);

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /**
     * Allocate a shared segment of @p bytes homed on @p owner and map it
     * at the same virtual address into every node's default address
     * space (remote nodes access it through the HIB).
     */
    Segment &allocShared(const std::string &name, std::size_t bytes,
                         NodeId owner);

    /** Allocate private (cacheable, node-local) memory on @p n. */
    VAddr allocPrivate(NodeId n, std::size_t bytes);

    /**
     * Build a communicator over @p members on the spec's collective
     * backend (ClusterSpec::collectives).  This is the only construction
     * path: group ids, NIC engine registration and host scratch memory
     * are cluster-managed.  @p max_words is the widest broadcast payload.
     * On the host backend this reserves every root's broadcast page
     * and maps none: a root's page is mapped on its first broadcast.
     */
    Communicator &communicator(const std::string &name,
                               std::vector<NodeId> members,
                               std::size_t max_words = 64);

    /** Reserve @p pages of virtual address space (no mapping installed);
     *  used by software layers like the VSM baseline. */
    VAddr allocVaPages(std::size_t pages) { return allocVa(pages); }

    /**
     * Charged, runtime replication of one page (used by alarm policies):
     * copies the page to @p n with the HIB's bulk-copy engine, registers
     * the copy, remaps the virtual page and flushes the TLB.
     */
    void replicatePageLive(NodeId n, PAddr home_page,
                           std::function<void()> done = nullptr);

    // ------------------------------------------------------------------
    // Programs
    // ------------------------------------------------------------------

    /** Spawn a program on node @p n; returns its thread id on that node. */
    int spawn(NodeId n, Body body);

    /**
     * Spawn a program in a *fresh address space* on @p n: nothing is
     * mapped except its own Telegraphos context page and the special
     * register page.  Demonstrates the paper's protection model
     * (section 2.1): without mappings, shared segments are simply
     * unreachable — any access faults.
     */
    int spawnIsolated(NodeId n, Body body);

    /**
     * Model a FLASH-style modified operating system (section 2.2.5):
     * install context-switch hooks that save/restore the HIB's PID
     * register, charging the extra interrupt-handler work per switch.
     * Without this, LaunchMode::FlashPid silently corrupts contexts
     * under multiprogramming — exactly the paper's argument for keys.
     */
    void enableFlashOsSupport();

    /**
     * Run the simulation until every spawned program finished or
     * @p limit ticks passed.  @return simulated end time.
     */
    Tick run(Tick limit = kMaxTick);

    /** True when every spawned program has finished. */
    bool allDone() const;

    /** True when any program was killed (protection fault etc.). */
    bool anyKilled() const;

    /** Register a write-observation hook (tests/benches). */
    void observeWrites(std::function<void(const coherence::ApplyEvent &)> cb);

    // ------------------------------------------------------------------
    // Audit layer (DESIGN.md section 7)
    // ------------------------------------------------------------------

    /**
     * Schedule digest of the run so far: every fired event's (when, seq)
     * plus every packet crossing a HIB boundary, folded one word at a
     * time (audit::TraceHash).  Two same-seed runs of the same program
     * must produce equal digests — the determinism contract.  An engine
     * change may move it (DESIGN.md section 7.4).
     */
    std::uint64_t traceHash() const { return _sys->events().trace().value(); }

    /** Words folded into the trace hash (sanity: must be > 0 after run). */
    std::uint64_t traceLength() const { return _sys->events().trace().mixed(); }

    /**
     * Model digest of the run so far: the tick and fields of every
     * packet crossing a HIB boundary and every operation completion a
     * CPU observes (node, tick, value), nothing from the event engine.
     * Only a change to the simulated model may move it.
     */
    std::uint64_t modelHash() const { return _sys->model().value(); }

    /** Words folded into the model digest. */
    std::uint64_t modelLength() const { return _sys->model().mixed(); }

    /**
     * Quiescence check for a finished run: every injected packet was
     * delivered or visibly dropped, and no HIB still holds a
     * pending-write counter (a counter-cache slot or an outstanding
     * operation) that nothing left in the run can release.  @return
     * true when quiescent; otherwise false with the first imbalance in
     * @p why.
     */
    bool auditQuiescent(std::string *why = nullptr) const;

    /**
     * Write the end-of-run statistics report: time and topology, then
     * every registered counter (StatRegistry::dump, the same stats
     * statsJson renders), one "<component>.<counter> value" line each.
     */
    void statsReport(std::ostream &os) const;

    /** Dump every registered stat as a single JSON object
     *  (StatRegistry::dumpJson, schema tg-stats-v2). */
    void statsJson(std::ostream &os) const
    {
        _sys->stats().dumpJson(os);
    }

    // ------------------------------------------------------------------
    // Packet-lifecycle tracer (DESIGN.md section 8)
    // ------------------------------------------------------------------

    /** The tracer (enable via Config::tracePackets or setEnabled()). */
    trace::Tracer &tracer() { return _sys->tracer(); }
    const trace::Tracer &tracer() const { return _sys->tracer(); }

    /** Per-operation latency breakdown derived from the recording: the
     *  paper's 0.70 us / 7.2 us anchors decomposed into component
     *  costs, one table block per operation kind. */
    trace::Breakdown latencyBreakdown() const
    {
        return _sys->tracer().breakdown();
    }

    /** All segments allocated so far. */
    const std::vector<std::unique_ptr<Segment>> &segments() const
    {
        return _segments;
    }

    /** Segment containing home page @p home_page (nullptr if none). */
    Segment *segmentOfHome(PAddr home_page);

    // ------------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md section 14.5)
    // ------------------------------------------------------------------

    /**
     * Serialize the cluster's semantic state into a self-contained text
     * blob (schema tg-ckpt-v6): simulation clock + event sequence, trace
     * hash, RNG stream, packet ledger, each host communicator's mapped
     * broadcast roots and cursors, per-node memory / cache / TLB /
     * page-table / HIB-ticket state, the page directory and every stat
     * field and histogram (StatRegistry::save).
     *
     * Only legal at quiescence (no pending events, packet ledger
     * conserved) with the fault layer disengaged — in-flight hardware
     * state is deliberately never serialized.  Stat formulas are
     * recomputed, not saved; only mem.touched_bytes, the host's
     * footprint, can differ after a restore (DESIGN.md section 14.5).
     */
    std::string checkpoint();

    /**
     * Restore a checkpoint() blob.  Must be called on a freshly built
     * cluster *after* replaying the identical setup sequence (same spec,
     * same allocShared/allocPrivate/segment-replication/communicator
     * calls, no spawns or runs yet).  After restore, continuing the
     * workload produces bit-identical trace hashes and stats to a run
     * that never checkpointed.  fatal()s on schema/shape mismatches.
     */
    void restore(const std::string &blob);

  private:
    friend class Communicator;
    friend class Segment;

    VAddr allocVa(std::size_t pages);

    /**
     * The map half of allocShared(): add @p pages at @p va, homed at
     * @p home on @p owner, to the shared mappings every node's default
     * address space sees, and return the new segment.  The caller
     * reserved @p va (allocVa) and @p home (@p owner's allocShmFrames)
     * beforehand.
     */
    Segment &mapShared(const std::string &name, VAddr va, std::size_t pages,
                       NodeId owner, PAddr home);

    int spawnIn(NodeId n, node::AddressSpace &as, Body body);

    std::unique_ptr<System> _sys;
    std::unique_ptr<coherence::Directory> _dir;
    std::unique_ptr<net::Network> _net;
    node::SharedMappings _shared;
    std::vector<std::unique_ptr<node::Workstation>> _nodes;
    std::vector<std::unique_ptr<os::OsKernel>> _kernels;
    std::vector<std::unique_ptr<coherence::Protocol>> _protocols;
    std::vector<std::unique_ptr<Segment>> _segments;
    std::vector<std::unique_ptr<Ctx>> _ctxs;
    std::vector<std::unique_ptr<Communicator>> _comms;

    coherence::ProtocolKind _defaultProtocol =
        coherence::ProtocolKind::OwnerCounter;
    CollectiveBackend _collBackend = CollectiveBackend::Host;
    std::uint32_t _nextGroupId = 1;
    VAddr _vaNext = 0x2000'0000;
    std::vector<std::uint32_t> _nextCtxIdx; // per node
    /** Telegraphos context index of each thread, per node (PID hook). */
    std::vector<std::vector<std::uint32_t>> _tidCtx;
    bool _started = false;
};

} // namespace tg

#endif // TELEGRAPHOS_API_CLUSTER_HPP
