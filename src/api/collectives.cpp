/**
 * @file
 * Communicator implementation: the software (Host) collective
 * algorithms and the thin descriptor path onto the NIC engine.
 */

#include "api/collectives.hpp"

#include <algorithm>

namespace tg {

namespace {
constexpr Tick kPoll = 600;
} // namespace

Tick
Communicator::pollGap() const
{
    // Completion polls back off proportionally to the group size: with
    // hundreds of members spinning remote reads at one home node, a
    // fixed gap buries the home (and the simulator) under poll traffic
    // that only adds queueing ahead of the arrivals it waits for.
    return kPoll * Tick(_members.size());
}

Communicator::Communicator(BuildKey, Cluster &cluster,
                           const std::string &name,
                           std::vector<NodeId> members,
                           CollectiveBackend backend,
                           std::uint32_t group_id, std::size_t max_words)
    : _cluster(cluster), _name(name), _members(std::move(members)),
      _backend(backend), _groupId(group_id), _maxWords(max_words)
{
    if (_members.size() < 2)
        fatal("Communicator %s: needs at least 2 members", name.c_str());

    if (_backend == CollectiveBackend::Nic) {
        // One shared group object registered with every member's engine:
        // all members see the same reduction/multicast tree bit-for-bit,
        // and no host scratch memory exists at all.
        auto group = std::make_shared<hib::CollGroup>(
            group_id, _members, cluster.network().spec());
        for (NodeId m : _members)
            cluster.hibOf(m).collectives().registerGroup(group);
        return;
    }

    // Reserve every root's broadcast slot, one cursor bump each; a run
    // maps only the roots that broadcast (bcastRoot()).
    const std::size_t page_bytes = cluster.config().pageBytes;
    _pages = ((8 + max_words) * 8 + page_bytes - 1) / page_bytes;
    const std::size_t block = _members.size() * _pages;
    _bcastVa = cluster.allocVa(block);
    for (NodeId m : _members)
        _bcastFrames.push_back(cluster.node(m).allocShmFrames(block));
    _bcast.resize(_members.size());
    _scratch = &cluster.allocShared(name + ".scratch",
                                    (2 * kRounds + 8) * 8, _members[0]);
    _reduceRound.assign(_members.size(), 0);
}

Communicator::BcastRoot &
Communicator::bcastRoot(std::size_t rank)
{
    BcastRoot &root = _bcast[rank];
    if (root.seg)
        return root;
    const PAddr slot = PAddr(rank * _pages) * _cluster.config().pageBytes;
    root.seg = &_cluster.mapShared(_name + ".bcast" + std::to_string(rank),
                                   _bcastVa + slot, _pages, _members[rank],
                                   _bcastFrames[rank] + slot);
    for (std::size_t m = 0; m < _members.size(); ++m) {
        if (m != rank)
            root.seg->eagerTo(_members[m], _bcastFrames[m] + slot);
    }
    root.seen.assign(_members.size(), 0);
    return root;
}

std::size_t
Communicator::rankOf(NodeId n) const
{
    auto it = std::find(_members.begin(), _members.end(), n);
    if (it == _members.end())
        fatal("Communicator: node %u is not a member", unsigned(n));
    return std::size_t(it - _members.begin());
}

std::uint64_t
Communicator::faultsNow(Ctx &ctx) const
{
    // Failures visible to this member: losses charged to its node, plus
    // (NIC backend) collectives its engine completed with the error flag
    // — a loss elsewhere in the tree rides down to it in-band.
    std::uint64_t n = ctx.wireFailures();
    if (_backend == CollectiveBackend::Nic)
        n += _cluster.hibOf(ctx.self()).collectives().errors();
    return n;
}

OpError
Communicator::errorSince(Ctx &ctx, std::uint64_t before) const
{
    return faultsNow(ctx) > before ? OpError::LinkFailure : OpError::None;
}

std::uint64_t
Communicator::hostTraceBegin(trace::OpKind kind)
{
    const std::uint64_t id = _cluster.tracer().beginOp(kind);
    _cluster.tracer().record(id, trace::Span::CpuIssue, _cluster.now());
    return id;
}

void
Communicator::hostTraceEnd(std::uint64_t id)
{
    _cluster.tracer().record(id, trace::Span::Completion, _cluster.now());
}

Task<Result<void>>
Communicator::barrier(Ctx &ctx)
{
    const std::uint64_t before = faultsNow(ctx);

    if (_backend == CollectiveBackend::Nic) {
        co_await ctx.collLaunch(_groupId, hib::CollOp::Barrier, 0, 0);
        co_return Result<void>(errorSince(ctx, before));
    }

    const std::uint64_t op = hostTraceBegin(trace::OpKind::CollBarrier);
    co_await ctx.barrier(barCountVa(), barGenVa(), Word(_members.size()),
                         pollGap());
    hostTraceEnd(op);
    co_return Result<void>(errorSince(ctx, before));
}

Task<Result<void>>
Communicator::broadcast(Ctx &ctx, std::vector<Word> &io, NodeId root)
{
    const std::size_t root_rank = rankOf(root);
    if (ctx.self() == root && io.size() > _maxWords)
        fatal("Communicator: broadcast of %zu words exceeds max %zu",
              io.size(), _maxWords);
    const std::uint64_t before = faultsNow(ctx);

    if (_backend == CollectiveBackend::Nic) {
        // Stage the payload buffer against this thread's context, then
        // launch: the engine reads it at the root and DMAs the delivered
        // words into it everywhere else.
        _cluster.hibOf(ctx.self()).collectives().stage(ctx.ctxIndex(),
                                                       &io);
        co_await ctx.collLaunch(_groupId, hib::CollOp::Bcast,
                                std::uint32_t(root_rank), 0);
        co_return Result<void>(errorSince(ctx, before));
    }

    co_return co_await hostBroadcast(ctx, io, root, before);
}

Task<Result<void>>
Communicator::hostBroadcast(Ctx &ctx, std::vector<Word> &io, NodeId root,
                            std::uint64_t before)
{
    const std::size_t root_rank = rankOf(root);
    const std::uint64_t gen =
        ++bcastRoot(root_rank).seen[rankOf(ctx.self())];
    const std::uint64_t op = hostTraceBegin(trace::OpKind::CollBcast);

    if (ctx.self() == root) {
        // Local stores into the eager-update page: the HIB multicasts
        // them to every member's receive copy (section 2.2.7).
        for (std::size_t w = 0; w < io.size(); ++w)
            co_await ctx.write(bcastWordVa(root_rank, w), io[w]);
        co_await ctx.write(bcastCountVa(root_rank), Word(io.size()));
        co_await ctx.fence(); // payload before the generation bump
        co_await ctx.write(bcastGenVa(root_rank), Word(gen));
        co_await ctx.fence();
        hostTraceEnd(op);
        co_return Result<void>(errorSince(ctx, before));
    }

    // Members poll their *local* copy of the root's generation word.
    while (co_await ctx.read(bcastGenVa(root_rank)) < Word(gen))
        co_await ctx.compute(pollGap());
    const Word count = co_await ctx.read(bcastCountVa(root_rank));
    io.resize(std::size_t(count));
    for (std::size_t w = 0; w < io.size(); ++w)
        io[w] = co_await ctx.read(bcastWordVa(root_rank, w));
    hostTraceEnd(op);
    co_return Result<void>(errorSince(ctx, before));
}

Task<Result<ReduceOut>>
Communicator::reduceSum(Ctx &ctx, Word contribution, NodeId root)
{
    const std::size_t root_rank = rankOf(root);
    const std::uint64_t before = faultsNow(ctx);

    if (_backend == CollectiveBackend::Nic) {
        const Word sum = co_await ctx.collLaunch(
            _groupId, hib::CollOp::Reduce, std::uint32_t(root_rank),
            contribution);
        co_return Result<ReduceOut>(ReduceOut{ctx.self() == root, sum},
                                    errorSince(ctx, before));
    }

    const std::uint64_t op = hostTraceBegin(trace::OpKind::CollReduce);
    const std::uint64_t round = _reduceRound[rankOf(ctx.self())]++;
    const std::size_t slot = round % kRounds;
    const Word parties = Word(_members.size());

    // Contribute, then signal arrival (both remote atomics at the
    // scratch home; fetch&add returns make them race-free).
    co_await ctx.fetchAdd(accVa(slot), contribution);
    co_await ctx.fetchAdd(arrVa(slot), 1);

    Word result = 0;
    if (ctx.self() == root) {
        while (co_await ctx.read(arrVa(slot)) < parties)
            co_await ctx.compute(pollGap());
        result = co_await ctx.read(accVa(slot));
        // Reset the slot for its reuse kRounds from now; everyone has
        // arrived, so no contribution can race the reset.
        co_await ctx.write(accVa(slot), 0);
        co_await ctx.write(arrVa(slot), 0);
        co_await ctx.fence();
    } else {
        // Non-roots must not run ahead into the same slot before the
        // root drained it: wait for the reset.
        while (co_await ctx.read(arrVa(slot)) != 0)
            co_await ctx.compute(pollGap());
    }
    hostTraceEnd(op);
    co_return Result<ReduceOut>(ReduceOut{ctx.self() == root, result},
                                errorSince(ctx, before));
}

Task<Result<Word>>
Communicator::allReduceSum(Ctx &ctx, Word contribution)
{
    const std::uint64_t before = faultsNow(ctx);

    if (_backend == CollectiveBackend::Nic) {
        const Word sum = co_await ctx.collLaunch(
            _groupId, hib::CollOp::AllReduce, 0, contribution);
        co_return Result<Word>(sum, errorSince(ctx, before));
    }

    const NodeId root = _members[0];
    const ReduceOut part = co_await reduceSum(ctx, contribution, root);
    std::vector<Word> io;
    if (ctx.self() == root)
        io.push_back(part.value);
    co_await broadcast(ctx, io, root);
    co_return Result<Word>(io.empty() ? 0 : io[0],
                           errorSince(ctx, before));
}

} // namespace tg
