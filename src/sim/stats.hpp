/**
 * @file
 * Statistics collection: samplers, histograms and a registry.
 *
 * Modelled loosely after the gem5 stats package but radically simplified.
 * Components construct stats with a name and register them with their
 * System's StatRegistry so they can be dumped at the end of a run.
 */

#ifndef TELEGRAPHOS_SIM_STATS_HPP
#define TELEGRAPHOS_SIM_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace tg {

/**
 * Running sample statistics: count, mean, min, max, stddev and quantiles.
 *
 * Memory is bounded (DESIGN.md section 14.4): the first sampleCap()
 * samples are retained exactly, so small experiments get exact
 * interpolated quantiles; past the cap, samples spill into a lazily
 * allocated binary-exponent histogram and quantiles interpolate inside
 * the bucket holding the target rank (clamped to the exact running
 * min/max).  Count, mean, min, max and stddev stream exactly forever.
 */
class Sampler
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _n; }
    double mean() const { return _n ? _sum / static_cast<double>(_n) : 0.0; }
    double min() const { return _n ? _min : 0.0; }
    double max() const { return _n ? _max : 0.0; }
    double stddev() const;
    double total() const { return _sum; }

    /**
     * Quantile in [0,1] with linear interpolation between order
     * statistics (rank q*(n-1)); sorts lazily.  Interpolation (rather
     * than nearest-rank rounding) keeps p99 < max for small n and p50
     * unbiased for even n.  Past the sample cap the answer is a
     * histogram interpolation (still deterministic, approximate).
     */
    double quantile(double q) const;

    /** True once samples spilled into the histogram sketch. */
    bool spilled() const { return _sketched != 0; }

    /** Cap on exactly retained samples (existing samples beyond a
     *  lowered cap spill into the sketch). */
    void setSampleCap(std::size_t cap);
    std::size_t sampleCap() const { return _cap; }

    /** Approximate heap footprint (bounded-memory assertions). */
    std::size_t approxBytes() const;

    void reset();

  private:
    static constexpr std::size_t kDefaultCap = 65536;
    /** Sketch buckets: bucket b covers [2^(b-kBias), 2^(b-kBias+1)),
     *  with everything <= 0 in bucket 0. */
    static constexpr int kBuckets = 128;
    static constexpr int kBias = 64;

    static int bucketOf(double v);
    void spill(double v);

    std::uint64_t _n = 0;
    double _sum = 0;
    // Welford running-variance state: immune to the catastrophic
    // cancellation a sum-of-squares accumulator hits when samples sit on
    // a large offset (e.g. tick timestamps ~1e9).
    double _welfordMean = 0, _m2 = 0;
    double _min = 0, _max = 0;
    std::size_t _cap = kDefaultCap;
    std::uint64_t _sketched = 0;
    std::vector<std::uint64_t> _buckets; ///< empty until first spill
    mutable std::vector<double> _samples;
    mutable bool _sorted = true;
};

/** Fixed-width bucketed histogram. */
class Histogram
{
  public:
    /** Buckets of width @p bucket covering [0, bucket*nbuckets); overflow in last. */
    Histogram(double bucket_width = 1.0, std::size_t nbuckets = 64);

    void sample(double v);

    std::uint64_t count() const { return _count; }
    double bucketWidth() const { return _width; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    void reset();

  private:
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
};

/**
 * A stat's name: its owner's name plus a literal leaf, joined with '.'
 * only when a dump renders it, so registration builds no string.  The
 * owner string must outlive the registration (a SimObject's name does);
 * a bare literal names a top-level stat such as "sim.events".
 */
class StatName
{
  public:
    StatName(const std::string &owner, const char *leaf)
        : _owner(&owner), _leaf(leaf)
    {
    }
    /** A temporary owner would dangle before the dump reads it. */
    StatName(const std::string &&owner, const char *leaf) = delete;
    StatName(const char *name) : _leaf(name) {} // NOLINT: implicit

    std::string str() const;

  private:
    const std::string *_owner = nullptr;
    const char *_leaf = "";
};

/**
 * The single route from a component's counters to every report: each
 * component registers its counters once, in its constructor, and both
 * renderers (dump, dumpJson) read them from here.  Non-owning: the stats
 * live in their components, which must outlive any dump.
 */
class StatRegistry
{
  public:
    void add(StatName name, const Sampler *s);
    void add(StatName name, const Histogram *h);

    /**
     * Register a read-only value (gem5's "formula"), reported as a
     * scalar: an arithmetic field read in place ...
     */
    template <class T>
        requires std::is_arithmetic_v<T>
    void
    add(StatName name, const T *field)
    {
        addValue(name, field, [](const void *p) {
            return static_cast<double>(*static_cast<const T *>(p));
        });
    }

    /** ... or @p read(*obj), e.g. an aggregate accessor; @p read must
     *  be a captureless lambda. */
    template <class T, class Read>
    void
    add(StatName name, const T *obj, Read)
    {
        static_assert(std::is_empty_v<Read>, "reader must not capture");
        addValue(name, obj, [](const void *p) {
            return static_cast<double>(Read{}(*static_cast<const T *>(p)));
        });
    }

    /** Dump all registered stats, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump every registered stat as one JSON object
     * ({"schema":"tg-stats-v1","scalars":{...},"samplers":{...},
     * "histograms":{...}}), sorted by name for byte-stable output.
     */
    void dumpJson(std::ostream &os) const;

    /** Current value of the scalar or formula named @p name, or nullopt
     *  when nothing is registered under it. */
    std::optional<double> find(std::string_view name) const;

    /** find(@p name), or 0 if absent. */
    double scalar(const std::string &name) const;

  private:
    /** Formulas are the "scalars" section. */
    enum class Kind : std::uint8_t { Value, Sampler, Histogram };
    using Reader = double (*)(const void *);

    struct Entry
    {
        StatName name;
        Kind kind;
        const void *obj;
        Reader read; ///< Kind::Value only
    };

    /** (rendered name, entry) for every entry of @p kind, by name. */
    using Named = std::pair<std::string, const Entry *>;
    std::vector<Named> sorted(Kind kind) const;

    void addValue(StatName name, const void *obj, Reader read);

    std::vector<Entry> _entries;
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_STATS_HPP
