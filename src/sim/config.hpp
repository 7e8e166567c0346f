/**
 * @file
 * Global timing and sizing configuration for a simulated Telegraphos
 * cluster.
 *
 * Every latency is in ticks (= nanoseconds).  The constants are calibrated
 * so that a two-node cluster in the default configuration reproduces the
 * paper's measured numbers (section 3.2): remote write ~0.70 us, remote
 * read ~7.2 us on DEC 3000 model 300 workstations with TurboChannel.
 *
 * The DEC 3000/300 ("Pelican") has a 150 MHz Alpha 21064 and a TurboChannel
 * I/O bus running at 12.5 MHz (80 ns per bus cycle); programmed-I/O
 * transactions on it take several bus cycles plus arbitration, which is why
 * single-word I/O-space accesses are expensive — the effect the paper's
 * latency table shows.
 */

#ifndef TELEGRAPHOS_SIM_CONFIG_HPP
#define TELEGRAPHOS_SIM_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace tg {

/** One scheduled administrative link outage: down in [from, until). */
struct FaultWindow
{
    Tick from = 0;
    Tick until = 0;
    /**
     * Restrict this window to links whose name matches this glob
     * ('*' = any substring, e.g. "*.trunk3to4" downs one directed trunk
     * channel).  Empty: the window follows the spec-wide linkFilter like
     * every other fault.  Validated by FaultSpec::validate().
     */
    std::string target;
};

/**
 * Fault model of the ribbon-cable links plus the link-level reliability
 * protocol that recovers from it (DESIGN.md, "Fault model & reliability
 * protocol").
 *
 * All probabilities are per packet transmission on one link hop, drawn
 * from a per-link RNG that is a pure function of Config::seed and the
 * link name — fault runs replay bit-identically.  The default spec is
 * inert: enabled() is false and every link uses the original zero-cost
 * fast path, preserving the paper's latency calibration exactly.
 */
struct FaultSpec
{
    /** Probability a transmission arrives with a flipped payload bit
     *  (the receiver discards and NACKs it). */
    double bitErrorRate = 0;
    /** Probability a transmission vanishes on the wire. */
    double dropRate = 0;
    /** Probability a transmission is delivered twice. */
    double duplicateRate = 0;
    /** Scheduled link-down/up windows (administrative outages). */
    std::vector<FaultWindow> downWindows;
    /** Restrict faults to links whose name contains this substring
     *  (empty: faults apply to every link).  The reliability protocol
     *  itself engages on every link whenever the spec is enabled. */
    std::string linkFilter;

    // ------------------------------------------------------------------
    // Reliability protocol (go-back-N), active when enabled()
    // ------------------------------------------------------------------
    /** Sender window: max unacknowledged packets per lane. */
    static constexpr std::uint32_t windowPackets = 16;
    /** Base retransmit timeout before exponential backoff (ticks). */
    Tick retryTimeout = 20'000;
    /** Backoff doublings cap: timeout <= retryTimeout << backoffCap. */
    static constexpr std::uint32_t backoffCap = 6;
    // retryTimeout << backoffCap must be a defined shift of a Tick.
    static_assert(backoffCap < 64);
    /** Retransmit budget per packet; one more failure is permanent. */
    std::uint32_t maxRetries = 8;
    /** A link administratively down longer than this fails queued and
     *  unacknowledged traffic immediately (visible-error failover path)
     *  instead of letting it ride out the retry budget. */
    Tick linkDownDeadline = 2'000'000;

    /** True when any fault can ever occur under this spec. */
    bool
    enabled() const
    {
        return bitErrorRate > 0 || dropRate > 0 || duplicateRate > 0 ||
               !downWindows.empty();
    }

    /**
     * Append a down-window restricted to links matching @p pattern
     * ('*' glob).  Chainable; the pattern is checked by validate().
     */
    FaultSpec &downLink(const std::string &pattern, Tick from, Tick until);

    /**
     * Down both directed channels of the trunk between switches @p a and
     * @p b in [from, until): appends "*.trunk<a>to<b>" and
     * "*.trunk<b>to<a>" targeted windows.
     */
    FaultSpec &downTrunk(std::size_t a, std::size_t b, Tick from,
                         Tick until);

    /** Sanity checks; fatal() on nonsense (bad rates, empty or
     *  malformed-pattern windows).  Called by Config::validate. */
    void validate() const;
};

/** Which hardware prototype is modelled (section 2.2.4 of the paper). */
enum class Prototype
{
    /**
     * Telegraphos I: shared data lives in SRAM on the HIB; special
     * operations are launched via a HIB "special mode" inside an
     * uninterruptible PAL-code sequence.  No pending-write counter cache.
     */
    TelegraphosI,
    /**
     * Telegraphos II: shared data lives in (pinned) main memory; special
     * operations use Telegraphos contexts, keys and shadow addressing and
     * survive context switches.  Has the pending-write counter cache.
     */
    TelegraphosII,
};

/**
 * All parameters of the model.
 *
 * Plain fields are what experiments vary: prototype, CPU quantum,
 * counter-cache entries, multicast and access-counter coverage, link
 * bandwidth, switch queue depth, seed, packet tracing and the fault
 * spec.  The `static constexpr` members are the fixed hardware behind
 * the paper's section 3.2 anchors and Table 1 (DEC 3000/300 with its
 * caches, TLB and write buffer, its TurboChannel, the Telegraphos I HIB
 * and links, DEC OSF/1); no experiment varies them, so they cannot be
 * set.  Both read the same way: `config().hibLatch`.
 */
struct Config
{
    // ------------------------------------------------------------------
    // Prototype selection
    // ------------------------------------------------------------------
    Prototype prototype = Prototype::TelegraphosII;

    // ------------------------------------------------------------------
    // CPU (DEC Alpha 21064 @ 150 MHz)
    // ------------------------------------------------------------------
    /** Cost of one ALU instruction (approx. 1 cycle @ 150 MHz). */
    static constexpr Tick cpuInstruction = 7;
    /** Extra issue cost of a load/store instruction. */
    static constexpr Tick cpuMemIssue = 7;
    /** Round-robin scheduling quantum when >1 thread shares a CPU (10 ms). */
    Tick cpuQuantum = 10'000'000;
    /** Cost of a context switch (save/restore, cache pollution). */
    static constexpr Tick contextSwitch = 20'000;

    // ------------------------------------------------------------------
    // Memory hierarchy
    // ------------------------------------------------------------------
    /** Page size: 8 KB, as on Alpha. */
    static constexpr std::uint32_t pageBytes = 8192;
    /** Local cache hit latency. */
    static constexpr Tick cacheHit = 13;
    /** Main-memory access on cache miss. */
    static constexpr Tick memAccess = 180;
    /** Direct-mapped cache size in bytes. */
    static constexpr std::uint32_t cacheBytes = 8192;
    /** Cache line size in bytes. */
    static constexpr std::uint32_t cacheLineBytes = 32;
    static_assert((pageBytes & (pageBytes - 1)) == 0,
                  "pageBytes must be a power of two");
    static_assert(pageBytes % cacheLineBytes == 0,
                  "cacheLineBytes must divide pageBytes");
    /** TLB entries (fully associative, FIFO replacement). */
    static constexpr std::uint32_t tlbEntries = 32;
    /** TLB miss penalty (PAL-code refill on Alpha). */
    static constexpr Tick tlbMiss = 300;

    // ------------------------------------------------------------------
    // TurboChannel I/O bus (12.5 MHz => 80 ns per cycle)
    // ------------------------------------------------------------------
    /** Bus cycle time. */
    static constexpr Tick tcCycle = 80;
    /** Cycles to arbitrate + address for any transaction. */
    static constexpr std::uint32_t tcSetupCycles = 3;
    /** Cycles to transfer one 32-bit word. */
    static constexpr std::uint32_t tcWordCycles = 1;
    /** Extra cycles a programmed-I/O *read* holds the bus (request half;
     *  uncached device reads on the Pelican carry long wait states). */
    static constexpr std::uint32_t tcReadReqCycles = 16;
    /** CPU-side overhead of an uncached I/O-space access (memory barrier
     *  before the TC access, read stall setup). */
    static constexpr Tick cpuUncachedOverhead = 150;
    /** Entries in the CPU's uncached-store write buffer (Alpha 21064
     *  has a 4-entry write buffer; I/O-space stores complete into it). */
    static constexpr std::uint32_t writeBufferEntries = 4;
    /** Cost of inserting a store into the write buffer. */
    static constexpr Tick writeBufferInsert = 20;

    // ------------------------------------------------------------------
    // Host Interface Board (FPGA in prototype I)
    // ------------------------------------------------------------------
    /** HIB processing time to latch + queue an outgoing request. */
    static constexpr Tick hibLatch = 120;
    /** HIB processing time to service an incoming packet (FPGA-grade
     *  state machines in prototype I). */
    static constexpr Tick hibService = 300;
    /** Access to HIB-local shared SRAM (Telegraphos I). */
    static constexpr Tick hibSram = 400;
    /** HIB internal queue beyond the link FIFO ("Telegraphos queueing",
     *  section 3.2): the one egress queue accepts stores at TurboChannel
     *  speed until it holds hibFifoPackets + this, then back-pressure
     *  reaches the processor. */
    static constexpr std::uint32_t hibBacklogPackets = 112;
    /** Atomic-unit read-modify-write time. */
    static constexpr Tick hibAtomic = 300;
    /** Outgoing/incoming link FIFO capacity in packets (2 Kbit each). */
    static constexpr std::uint32_t hibFifoPackets = 16;
    /** Multicast list capacity (Table 1: 16 K entries). */
    std::uint32_t multicastEntries = 16 * 1024;
    /** Pages covered by access counters (Table 1: 64 K pages). */
    std::uint32_t counterPages = 64 * 1024;
    /** Width of each page access counter in bits (Table 1: 16+16). */
    static constexpr std::uint32_t pageCounterBits = 16;
    /** Pending-write counter cache entries (section 2.3.4: 16-32).
     *  0 models Telegraphos I, which omits the cache (section 2.3.4). */
    std::uint32_t counterCacheEntries = 16;
    /** Cost of one counter-cache increment/decrement (two SRAM accesses
     *  plus the add, section 2.3.3 overhead discussion). */
    static constexpr Tick counterOp = 40;
    /** Number of Telegraphos contexts in the HIB register file. */
    static constexpr std::uint32_t hibContexts = 64;
    /** Fan-out (max children per node) of the NIC collective engine's
     *  k-ary reduction/multicast trees (DESIGN.md section 15). */
    static constexpr std::uint32_t collFanout = 4;

    // ------------------------------------------------------------------
    // Telegraphos network (switches + ribbon-cable links)
    // ------------------------------------------------------------------
    /** Link bandwidth in bytes per tick.  Telegraphos I links are
     *  FPGA-clocked parallel ribbon cables: ~35 MB/s per direction, so a
     *  24-byte write packet serializes in ~0.7 us — the paper's
     *  steady-state remote-write rate. */
    double linkBytesPerTick = 0.035;
    /** Link propagation delay (ribbon cable + synchronizers). */
    static constexpr Tick linkDelay = 100;
    /** Switch cut-through latency per hop (shared-buffer pipeline). */
    static constexpr Tick switchLatency = 350;
    /** Per-output queue capacity in packets (shared buffer share). */
    std::uint32_t switchQueuePackets = 32;
    /** Packet header size in bytes (routing + type + address). */
    static constexpr std::uint32_t packetHeaderBytes = 16;

    // ------------------------------------------------------------------
    // Operating system cost model (1995-era DEC OSF/1)
    // ------------------------------------------------------------------
    /** Trap into the kernel and back (null syscall). */
    static constexpr Tick osTrap = 20'000;
    /** Additional page-fault handling cost (VM lookup, map update). */
    static constexpr Tick osPageFault = 50'000;
    /** Software cost to send/receive one message through sockets. */
    static constexpr Tick osMessage = 120'000;
    /** Interrupt dispatch cost (page-counter alarms etc.). */
    static constexpr Tick osInterrupt = 10'000;
    /** Entering/leaving a PAL-code sequence (Telegraphos I launch path). */
    static constexpr Tick palCall = 600;

    // ------------------------------------------------------------------
    // Fault injection & link-level reliability
    // ------------------------------------------------------------------
    /** Link fault model; inert by default (perfectly reliable wires). */
    FaultSpec fault;

    // ------------------------------------------------------------------
    // Misc
    // ------------------------------------------------------------------
    /** Seed for all stochastic workload decisions. */
    std::uint64_t seed = 1;

    /** Record packet-lifecycle spans in the System's Tracer (DESIGN.md
     *  section 8).  Off by default: the disabled tracer adds a single
     *  predicted branch and no allocation to the packet fast path. */
    bool tracePackets = false;

    /**
     * Sanity-check the configuration; fatal() on nonsense (zero
     * bandwidth, zero switch queue, bad fault spec).  Called by System's
     * constructor.
     */
    void validate() const;

    /** Ticks for one TurboChannel transaction moving @p words 32-bit words. */
    static constexpr Tick
    tcWriteTxn(std::uint32_t words = 1)
    {
        return tcCycle * (tcSetupCycles + tcWordCycles * words);
    }

    /** Ticks the request half of a programmed-I/O read holds the bus. */
    static constexpr Tick
    tcReadTxn()
    {
        return tcCycle * (tcSetupCycles + tcReadReqCycles);
    }
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_CONFIG_HPP
