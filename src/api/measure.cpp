/**
 * @file
 * Measurement helpers: latency tables and reporting in the
 * paper's units.
 */

#include "api/measure.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace tg {

ResultTable::ResultTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
ResultTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != _headers.size())
        panic("ResultTable row width mismatch");
    _rows.push_back(std::move(cells));
}

void
ResultTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto line = [&] {
        os << "+";
        for (auto w : widths)
            os << std::string(w + 2, '-') << "+";
        os << "\n";
    };

    line();
    os << "|";
    for (std::size_t c = 0; c < _headers.size(); ++c)
        os << " " << std::left << std::setw(static_cast<int>(widths[c]))
           << _headers[c] << " |";
    os << "\n";
    line();
    for (const auto &row : _rows) {
        os << "|";
        for (std::size_t c = 0; c < row.size(); ++c)
            os << " " << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c] << " |";
        os << "\n";
    }
    line();
}

std::string
ResultTable::num(double v, int digits)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

// ---------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------

namespace {

/** JSON-escape a metric/bench name (plain ASCII in practice). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

BenchReport::BenchReport(std::string bench, int argc, char **argv)
    : _bench(std::move(bench))
{
    const std::string flag = "--json=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(flag, 0) == 0)
            _path = arg.substr(flag.size());
        else if (arg == "--json")
            _path = "BENCH_" + _bench + ".json";
    }
}

void
BenchReport::metric(const std::string &name, double value,
                    const std::string &unit)
{
    _metrics.push_back(Metric{name, value, unit, 0.0, false});
}

void
BenchReport::anchor(const std::string &name, double value, double paper,
                    const std::string &unit)
{
    _metrics.push_back(Metric{name, value, unit, paper, true});
}

void
BenchReport::topology(const net::TopologySpec &spec)
{
    std::ostringstream os;
    os << "{\"kind\":\"" << spec.model().name()
       << "\",\"nodes\":" << spec.nodes
       << ",\"switches\":" << spec.numSwitches()
       << ",\"bisection_width\":" << spec.bisectionWidth()
       << ",\"describe\":\"" << jsonEscape(spec.describe()) << "\"}";
    _topologyJson = os.str();
}

void
BenchReport::breakdown(const trace::Breakdown &bd)
{
    _breakdownJson = bd.toJson();
}

void
BenchReport::stats(const Cluster &cluster)
{
    std::ostringstream os;
    cluster.statsJson(os);
    _statsJson = os.str();
}

bool
BenchReport::write() const
{
    if (_path.empty())
        return false;
    std::ofstream out(_path);
    if (!out) {
        warn("BenchReport: cannot open %s for writing", _path.c_str());
        return false;
    }
    out << "{\"schema\":\"tg-bench-v1\",\"bench\":\"" << jsonEscape(_bench)
        << "\"";
    if (!_topologyJson.empty())
        out << ",\"topology\":" << _topologyJson;
    out << ",\"metrics\":[";
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const Metric &m = _metrics[i];
        out << (i ? "," : "") << "{\"name\":\"" << jsonEscape(m.name)
            << "\",\"value\":" << fmtNum(m.value);
        if (!m.unit.empty())
            out << ",\"unit\":\"" << jsonEscape(m.unit) << "\"";
        if (m.hasPaper)
            out << ",\"paper_anchor\":" << fmtNum(m.paper);
        out << "}";
    }
    out << "]";
    if (!_breakdownJson.empty())
        out << ",\"breakdown\":" << _breakdownJson;
    if (!_statsJson.empty())
        out << ",\"stats\":" << _statsJson;
    out << "}\n";
    std::cout << "wrote " << _path << "\n";
    return true;
}

} // namespace tg
