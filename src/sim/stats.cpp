/**
 * @file
 * Statistics registry and sampler implementations.
 */

#include "sim/stats.hpp"

#include <array>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace tg {

void
Sampler::sample(double v)
{
    if (_n == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_n;
    _sum += v;
    // Welford update: accumulate centred second moments.
    double delta = v - _welfordMean;
    _welfordMean += delta / static_cast<double>(_n);
    _m2 += delta * (v - _welfordMean);
    if (_samples.size() < _cap) {
        _samples.push_back(v);
        _sorted = false;
    } else {
        spill(v);
    }
}

int
Sampler::bucketOf(double v)
{
    if (!(v > 0))
        return 0;
    int exp = 0;
    (void)std::frexp(v, &exp); // v = m * 2^exp, m in [0.5, 1)
    // Bucket b spans [2^(b-kBias), 2^(b-kBias+1)); frexp's exponent is
    // one above the power-of-two floor.
    int b = exp - 1 + kBias;
    return std::clamp(b, 0, kBuckets - 1);
}

void
Sampler::spill(double v)
{
    if (_buckets.empty())
        _buckets.assign(kBuckets, 0);
    ++_buckets[static_cast<std::size_t>(bucketOf(v))];
    ++_sketched;
}

double
Sampler::stddev() const
{
    if (_n < 2)
        return 0.0;
    double var = _m2 / static_cast<double>(_n - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
}

double
Sampler::quantile(double q) const
{
    if (_samples.empty())
        return 0.0;
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
    // Clamp out-of-range (and NaN) q explicitly: std::clamp(NaN) and the
    // index arithmetic below are both unsafe outside [0, 1].  The
    // negated comparison routes NaN to the low extreme.
    if (_sketched == 0) {
        if (!(q > 0.0) || _samples.size() == 1)
            return _samples.front();
        if (q >= 1.0)
            return _samples.back();
        double pos = q * static_cast<double>(_samples.size() - 1);
        std::size_t lo = static_cast<std::size_t>(pos);
        double frac = pos - static_cast<double>(lo);
        if (lo + 1 >= _samples.size())
            return _samples[lo];
        return _samples[lo] + frac * (_samples[lo + 1] - _samples[lo]);
    }

    // Spilled: interpolate inside the histogram bucket holding the
    // target rank (exactly retained samples re-binned on the fly), then
    // clamp to the exact running extremes.
    if (!(q > 0.0))
        return _min;
    if (q >= 1.0)
        return _max;
    std::array<std::uint64_t, kBuckets> counts{};
    for (std::size_t b = 0; b < _buckets.size(); ++b)
        counts[b] = _buckets[b];
    for (double v : _samples)
        ++counts[static_cast<std::size_t>(bucketOf(v))];
    const double rank = q * static_cast<double>(_n - 1);
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t c = counts[static_cast<std::size_t>(b)];
        if (c == 0)
            continue;
        if (static_cast<double>(seen + c) > rank) {
            const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - kBias);
            const double hi = std::ldexp(1.0, b - kBias + 1);
            const double within =
                (rank - static_cast<double>(seen)) / static_cast<double>(c);
            return std::clamp(lo + within * (hi - lo), _min, _max);
        }
        seen += c;
    }
    return _max;
}

void
Sampler::setSampleCap(std::size_t cap)
{
    _cap = std::max<std::size_t>(cap, 1);
    if (_samples.size() > _cap) {
        // Lowered below the retained set: spill the tail into the sketch
        // (which samples spill is deterministic — insertion order).
        for (std::size_t i = _cap; i < _samples.size(); ++i)
            spill(_samples[i]);
        _samples.resize(_cap);
        _samples.shrink_to_fit();
    }
}

std::size_t
Sampler::approxBytes() const
{
    return _samples.capacity() * sizeof(double) +
           _buckets.capacity() * sizeof(std::uint64_t);
}

void
Sampler::reset()
{
    _n = 0;
    _sum = _welfordMean = _m2 = _min = _max = 0;
    _sketched = 0;
    _buckets.clear();
    _buckets.shrink_to_fit();
    _samples.clear();
    _samples.shrink_to_fit();
    _sorted = true;
}

Histogram::Histogram(double bucket_width, std::size_t nbuckets)
    : _width(bucket_width), _buckets(nbuckets, 0)
{
}

void
Histogram::sample(double v)
{
    std::size_t idx = v <= 0 ? 0 : static_cast<std::size_t>(v / _width);
    if (idx >= _buckets.size())
        idx = _buckets.size() - 1;
    ++_buckets[idx];
    ++_count;
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _count = 0;
}

std::string
StatName::str() const
{
    return _owner ? *_owner + "." + _leaf : std::string(_leaf);
}

void
StatRegistry::addValue(StatName name, const void *obj, Reader read)
{
    _entries.push_back(Entry{name, Kind::Value, obj, read});
}

void
StatRegistry::add(StatName name, const Sampler *s)
{
    _entries.push_back(Entry{name, Kind::Sampler, s, nullptr});
}

void
StatRegistry::add(StatName name, const Histogram *h)
{
    _entries.push_back(Entry{name, Kind::Histogram, h, nullptr});
}

std::vector<StatRegistry::Named>
StatRegistry::sorted(Kind kind) const
{
    std::vector<Named> out;
    for (const Entry &e : _entries)
        if (e.kind == kind)
            out.emplace_back(e.name.str(), &e);
    // Equal names sort in registration order (entries are one array), and
    // a re-registered name keeps its last entry; std::unique keeps the
    // first of a run, hence the reversed range.
    std::sort(out.begin(), out.end());
    auto last = std::unique(out.rbegin(), out.rend(), [](auto &a, auto &b) {
        return a.first == b.first;
    });
    out.erase(out.begin(), last.base());
    return out;
}

namespace {

/**
 * The one number rendering both dumps share: integral values below 2^53
 * (every counter) print exactly, anything else to 12 significant digits.
 */
std::string
fmtNum(double v)
{
    if (std::fabs(v) < 0x1p53 && v == std::trunc(v))
        return std::to_string(static_cast<long long>(v));
    std::ostringstream os;
    os << std::setprecision(12) << v;
    return os.str();
}

} // namespace

void
StatRegistry::dump(std::ostream &os) const
{
    auto line = [&os](const std::string &name, double v) {
        os << std::left << std::setw(48) << name << " " << fmtNum(v) << "\n";
    };
    for (const auto &[name, e] : sorted(Kind::Value))
        line(name, e->read(e->obj));
    for (const auto &[name, e] : sorted(Kind::Sampler)) {
        const auto &s = *static_cast<const Sampler *>(e->obj);
        line(name + ".count", double(s.count()));
        if (s.count() > 0) {
            line(name + ".mean", s.mean());
            line(name + ".min", s.min());
            line(name + ".max", s.max());
            line(name + ".p50", s.quantile(0.5));
            line(name + ".p99", s.quantile(0.99));
        }
    }
    for (const auto &[name, e] : sorted(Kind::Histogram)) {
        const auto &h = *static_cast<const Histogram *>(e->obj);
        line(name + ".count", double(h.count()));
        const auto &b = h.buckets();
        const double w = h.bucketWidth();
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (b[i] != 0)
                line(name + ".bucket[" + fmtNum(w * double(i)) + "," +
                         fmtNum(w * double(i + 1)) + ")",
                     double(b[i]));
        }
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{\"schema\":\"tg-stats-v1\",\"scalars\":{";
    bool first = true;
    for (const auto &[name, e] : sorted(Kind::Value)) {
        os << (first ? "" : ",") << "\"" << name
           << "\":" << fmtNum(e->read(e->obj));
        first = false;
    }
    os << "},\"samplers\":{";
    first = true;
    for (const auto &[name, e] : sorted(Kind::Sampler)) {
        const auto &s = *static_cast<const Sampler *>(e->obj);
        os << (first ? "" : ",") << "\"" << name
           << "\":{\"count\":" << s.count()
           << ",\"mean\":" << fmtNum(s.mean())
           << ",\"min\":" << fmtNum(s.min())
           << ",\"max\":" << fmtNum(s.max())
           << ",\"stddev\":" << fmtNum(s.stddev())
           << ",\"p50\":" << fmtNum(s.quantile(0.5))
           << ",\"p99\":" << fmtNum(s.quantile(0.99)) << "}";
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, e] : sorted(Kind::Histogram)) {
        const auto &h = *static_cast<const Histogram *>(e->obj);
        os << (first ? "" : ",") << "\"" << name
           << "\":{\"count\":" << h.count()
           << ",\"bucket_width\":" << fmtNum(h.bucketWidth())
           << ",\"buckets\":[";
        const auto &b = h.buckets();
        for (std::size_t i = 0; i < b.size(); ++i)
            os << (i ? "," : "") << b[i];
        os << "]}";
        first = false;
    }
    os << "}}";
}

std::optional<double>
StatRegistry::find(std::string_view name) const
{
    // Newest first: re-registering a name replaces the earlier entry.
    for (auto it = _entries.rbegin(); it != _entries.rend(); ++it)
        if (it->kind == Kind::Value && it->name.str() == name)
            return it->read(it->obj);
    return std::nullopt;
}

double
StatRegistry::scalar(const std::string &name) const
{
    return find(name).value_or(0.0);
}

} // namespace tg
