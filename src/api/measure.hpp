/**
 * @file
 * Measurement helpers used by tests, benches and examples.
 */

#ifndef TELEGRAPHOS_API_MEASURE_HPP
#define TELEGRAPHOS_API_MEASURE_HPP

#include <iostream>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "sim/stats.hpp"

namespace tg {

/** Simulated-time stopwatch (the paper's measurements, section 3.2,
 *  time batches of operations the same way). */
class Stopwatch
{
  public:
    explicit Stopwatch(Ctx &ctx) : _ctx(ctx), _t0(ctx.now()) {}

    void restart() { _t0 = _ctx.now(); }
    Tick elapsed() const { return _ctx.now() - _t0; }
    double elapsedUs() const { return toUs(elapsed()); }

  private:
    Ctx &_ctx;
    Tick _t0;
};

/** Row-oriented table printer for paper-style result tables. */
class ResultTable
{
  public:
    explicit ResultTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os = std::cout) const;

    /** Format helper: fixed-point with @p digits decimals. */
    static std::string num(double v, int digits = 2);

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/**
 * Shared machine-readable reporting for every bench binary.
 *
 * Each bench constructs one BenchReport from its main() arguments,
 * records its headline numbers with metric()/anchor() while printing its
 * usual human tables, and calls write() at the end.  When the binary was
 * invoked with `--json=<path>` the report is written to that path as a
 * schema-versioned JSON document (schema "tg-bench-v1"); without the
 * flag, write() is a no-op — so CI can persist BENCH_*.json artifacts
 * while interactive runs stay unchanged.
 *
 * Document shape:
 * @code
 *   {"schema":"tg-bench-v1","bench":"<name>",
 *    "topology":{"kind":...,"nodes":...,"switches":...,
 *                "bisection_width":...,"describe":...},  // optional
 *    "metrics":[{"name":...,"value":...,"unit":...,"paper_anchor":...}],
 *    "breakdown":{...tg-breakdown-v1...},   // optional
 *    "stats":{...tg-stats-v1...}}           // optional
 * @endcode
 */
class BenchReport
{
  public:
    /** @param bench  binary name recorded in the document
     *  @param argc/argv  main()'s arguments; parses `--json=<path>`. */
    BenchReport(std::string bench, int argc, char **argv);

    /** Record one result value.  @p unit is free-form ("us", "MB/s"). */
    void metric(const std::string &name, double value,
                const std::string &unit = "");

    /** Record a result that reproduces a number from the paper:
     *  @p paper is the paper's measured value in the same unit. */
    void anchor(const std::string &name, double value, double paper,
                const std::string &unit = "us");

    /** Record the interconnect the bench ran on; the JSON document is
     *  then self-describing (switch count, bisection width). */
    void topology(const net::TopologySpec &spec);

    /** Attach a latency breakdown (tg-breakdown-v1 sub-document). */
    void breakdown(const trace::Breakdown &bd);

    /** Attach a cluster's full stats dump (tg-stats-v1 sub-document). */
    void stats(const Cluster &cluster);

    /** Write the JSON document to the `--json` path.  No-op (returning
     *  false) without the flag; warns and returns false when the path
     *  cannot be opened. */
    bool write() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        double paper;
        bool hasPaper;
    };

    std::string _bench;
    std::string _path;
    std::vector<Metric> _metrics;
    std::string _topologyJson;
    std::string _breakdownJson;
    std::string _statsJson;
};

} // namespace tg

#endif // TELEGRAPHOS_API_MEASURE_HPP
