/**
 * @file
 * Statistics registry and sampler implementations.
 */

#include "sim/stats.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "sim/log.hpp"

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
    _samples.push_back(v);
    _sorted = false;
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

std::string
StatName::str() const
{
    return _owner ? *_owner + "." + _leaf : std::string(_leaf);
}

void
StatRegistry::add(StatName name, Histogram *h)
{
    _entries.push_back(Entry{name, Kind::Histogram, h, nullptr});
}

std::vector<StatRegistry::Named>
StatRegistry::sorted() const
{
    std::vector<Named> out;
    out.reserve(_entries.size());
    for (const Entry &e : _entries)
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
    const std::vector<Named> all = sorted();
    for (const auto &[name, e] : all)
        if (e->kind != Kind::Histogram)
            line(name, e->read(e->obj));
    for (const auto &[name, e] : all) {
        if (e->kind != Kind::Histogram)
            continue;
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
    const std::vector<Named> all = sorted();
    os << "{\"schema\":\"tg-stats-v2\",\"scalars\":{";
    bool first = true;
    for (const auto &[name, e] : all) {
        if (e->kind == Kind::Histogram)
            continue;
        os << (first ? "" : ",") << "\"" << name
           << "\":" << fmtNum(e->read(e->obj));
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, e] : all) {
        if (e->kind != Kind::Histogram)
            continue;
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

void
StatRegistry::save(std::ostream &os) const
{
    std::vector<Named> saved = sorted();
    std::erase_if(saved, [](const Named &n) {
        return n.second->kind == Kind::Formula;
    });
    os << saved.size() << "\n";
    for (const auto &[name, e] : saved) {
        os << name;
        if (e->kind == Kind::Field) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, e->obj, sizeof bits);
            os << " " << bits;
        } else {
            const auto &h = *static_cast<const Histogram *>(e->obj);
            os << " " << std::bit_cast<std::uint64_t>(h._width) << " "
               << h._buckets.size() << " " << h._count;
            for (std::uint64_t b : h._buckets)
                os << " " << b;
        }
        os << "\n";
    }
}

void
StatRegistry::restore(std::istream &in)
{
    auto word = [&in] {
        std::uint64_t v = 0;
        if (!(in >> v))
            fatal("stats restore: truncated section");
        return v;
    };
    const std::vector<Named> all = sorted();
    for (std::uint64_t i = 0, n = word(); i < n; ++i) {
        std::string name;
        if (!(in >> name))
            fatal("stats restore: truncated section");
        const auto it = std::ranges::lower_bound(all, name, {}, &Named::first);
        if (it == all.end() || it->first != name ||
            it->second->kind == Kind::Formula)
            fatal("stats restore: '%s' is not a registered field or "
                  "histogram",
                  name.c_str());
        if (it->second->kind == Kind::Field) {
            const std::uint64_t bits = word();
            std::memcpy(it->second->obj, &bits, sizeof bits);
            continue;
        }
        auto &h = *static_cast<Histogram *>(it->second->obj);
        const double width = std::bit_cast<double>(word());
        const std::uint64_t size = word();
        if (width != h._width || size != h._buckets.size())
            fatal("stats restore: histogram '%s' has %llu buckets of width "
                  "%g, the registered one %zu of width %g",
                  name.c_str(), static_cast<unsigned long long>(size), width,
                  h._buckets.size(), h._width);
        h._count = word();
        for (std::uint64_t &b : h._buckets)
            b = word();
    }
}

std::optional<double>
StatRegistry::find(std::string_view name) const
{
    // Newest first: re-registering a name replaces the earlier entry.
    for (auto it = _entries.rbegin(); it != _entries.rend(); ++it)
        if (it->kind != Kind::Histogram && it->name.str() == name)
            return it->read(it->obj);
    return std::nullopt;
}

} // namespace tg
