/**
 * @file
 * Statistics collection: samplers, histograms and a registry.
 *
 * Modelled loosely after the gem5 stats package but radically simplified.
 * Components construct stats with a name and register them with their
 * System's StatRegistry so they can be dumped at the end of a run and
 * carried through a checkpoint (DESIGN.md section 14.5).
 */

#ifndef TELEGRAPHOS_SIM_STATS_HPP
#define TELEGRAPHOS_SIM_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <istream>
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
 * Every sample is retained, so quantiles are exact; the footprint is
 * one double per sample, which suits the per-experiment latency sets
 * the benches feed it.  Count, mean, min, max and stddev stream.
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
     * unbiased for even n.
     */
    double quantile(double q) const;

  private:
    std::uint64_t _n = 0;
    double _sum = 0;
    // Welford running-variance state: immune to the catastrophic
    // cancellation a sum-of-squares accumulator hits when samples sit on
    // a large offset (e.g. tick timestamps ~1e9).
    double _welfordMean = 0, _m2 = 0;
    double _min = 0, _max = 0;
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

  private:
    friend class StatRegistry; ///< saves and restores the buckets
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
 * The single route from a component's counters to every report and to a
 * checkpoint: each component registers its stats once, in its
 * constructor on `this`; dump and dumpJson render them, save and restore
 * carry them through a checkpoint.  Non-owning: the stats live in their
 * components, which must outlive every use of the registry.
 *
 * A field (a 64-bit integer or double) and a histogram are saved and
 * restored exactly.  A formula (a value computed from other state) is
 * never saved: a restored run recomputes it.
 */
class StatRegistry
{
  public:
    /** Register a field, reported as a scalar and saved as its 64-bit
     *  pattern (for an unsigned counter, the value itself). */
    template <class T>
        requires(std::is_arithmetic_v<T> &&
                 sizeof(T) == sizeof(std::uint64_t))
    void
    add(StatName name, T *field)
    {
        _entries.push_back(Entry{name, Kind::Field, field, [](const void *p) {
            return static_cast<double>(*static_cast<const T *>(p));
        }});
    }

    void add(StatName name, Histogram *h);

    /** Register a formula, reported as a scalar: @p read(*obj), e.g. an
     *  aggregate accessor; @p read must be a captureless lambda. */
    template <class T, class Read>
    void
    add(StatName name, T *obj, Read)
    {
        static_assert(std::is_empty_v<Read>, "reader must not capture");
        _entries.push_back(Entry{name, Kind::Formula, obj, [](const void *p) {
            return static_cast<double>(Read{}(*static_cast<const T *>(p)));
        }});
    }

    /** Dump all registered stats, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump every registered stat as one JSON object
     * ({"schema":"tg-stats-v2","scalars":{...},"histograms":{...}}),
     * sorted by name for byte-stable output.
     */
    void dumpJson(std::ostream &os) const;

    /**
     * Write every field and histogram, sorted by name: their number,
     * then "<name> <bits>" per field and "<name> <width bits>
     * <buckets> <count> <bucket>..." per histogram.
     */
    void save(std::ostream &os) const;

    /**
     * Read what save() wrote into the stats registered under its names;
     * stats it does not name keep their values.  fatal() on a name that
     * is not a registered field or histogram, on a histogram of another
     * width or size, and on a truncated section.
     */
    void restore(std::istream &in);

    /** Current value of the field or formula named @p name, or nullopt
     *  when no scalar is registered under it. */
    std::optional<double> find(std::string_view name) const;

  private:
    enum class Kind : std::uint8_t { Field, Formula, Histogram };

    struct Entry
    {
        StatName name;
        Kind kind;
        void *obj;
        double (*read)(const void *); ///< Field and Formula only
    };

    /** (rendered name, entry) for every entry, by name; a re-registered
     *  name keeps only its last entry. */
    using Named = std::pair<std::string, const Entry *>;
    std::vector<Named> sorted() const;

    std::vector<Entry> _entries;
};

} // namespace tg

#endif // TELEGRAPHOS_SIM_STATS_HPP
