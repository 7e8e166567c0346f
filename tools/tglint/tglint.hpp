/**
 * @file
 * tglint: the Telegraphos determinism analyzer.
 *
 * A standalone two-pass static-analysis tool (no libclang) for the
 * hazard classes that silently break the simulator's bit-for-bit
 * determinism contract (DESIGN.md section 7).  Pass 1 builds a
 * project-wide index over every source handed to it (token streams,
 * declared scopes, mutable globals, include edges); pass 2 runs the
 * rule families against the index:
 *
 *   banned-api           std::rand / time() / wall-clock chrono / getenv
 *   unordered-iter       iteration over std::unordered_* in the
 *                        order-sensitive namespaces (net, hib,
 *                        coherence, sim)
 *   tick-float           floating-point arithmetic feeding a Tick
 *   raw-new              raw new / delete
 *   file-doc             missing leading "@file" documentation header
 *   hot-path-std-function  std::function on scheduling hot paths
 *   hot-path-heap-alloc  std::deque / std::list / std::forward_list on
 *                        scheduling hot paths
 *   global-mutable-state   non-const namespace-scope / static-local /
 *                        static-member state in the model-state
 *                        namespaces (sim, net, hib, node, coherence) —
 *                        shared by every Cluster in the process
 *   pointer-keyed-order  ordered containers keyed by pointers, or
 *                        sorting pointer vectors by address — iteration
 *                        order then depends on allocation addresses
 *   include-cycle        cyclic quoted-include edges
 *
 * The one way a finding passes is a justification comment on the same
 * line or the line immediately above:
 *
 *     // tglint: allow(tick-float)  rounding contract documented here
 *
 * Every other finding fails the run.  --sarif emits a SARIF 2.1.0
 * report for CI annotation.
 */

#ifndef TELEGRAPHOS_TOOLS_TGLINT_HPP
#define TELEGRAPHOS_TOOLS_TGLINT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tglint {

class ProjectIndex;

/** One lint violation. */
struct Finding
{
    std::string file;    ///< path as given to the scanner
    int line = 0;        ///< 1-based line number
    std::string rule;    ///< rule slug ("banned-api", ...)
    std::string message; ///< human-readable explanation
};

/** Scanner configuration. */
struct Options
{
    /** Files skipped entirely (rule-fixture corpora violate rules on
     *  purpose).  Substring match; empty by default for library users —
     *  the CLI adds "tests/tools/fixtures". */
    std::vector<std::string> skipSubstrings;

    /** Paths linted with a relaxed rule set: any rule in relaxedRules
     *  is off for files whose path contains one of these substrings. */
    std::vector<std::string> relaxedPathSubstrings;

    /** Rules disabled on the relaxed paths (CLI default: file-doc off
     *  under tests/). */
    std::vector<std::string> relaxedRules;
};

/** All rule slugs tglint knows, in reporting order. */
const std::vector<std::string> &allRules();

/** One-line description of @p rule (empty for unknown slugs). */
std::string ruleDescription(const std::string &rule);

// ---------------------------------------------------------------------
// Pass 2: rule families over a finished index
// ---------------------------------------------------------------------

/**
 * Run every rule family against @p index.  Findings are appended to
 * @p out sorted by (file, line, rule).
 */
void runRules(const ProjectIndex &index, const Options &opts,
              std::vector<Finding> &out);

// ---------------------------------------------------------------------
// Single-file convenience API (unit tests, editor integration)
// ---------------------------------------------------------------------

/**
 * Lint one in-memory source.  @p path is used for reporting and for the
 * path-scoped exemptions; findings are appended to @p out.  Cross-file
 * rules (include-cycle) see only this file.
 */
void lintSource(const std::string &path, const std::string &source,
                const Options &opts, std::vector<Finding> &out);

/**
 * Lint a file or directory tree (recursing into *.hpp / *.cpp).
 * @return false when a path could not be read.
 */
bool lintPath(const std::string &path, const Options &opts,
              std::vector<Finding> &out);

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Render findings as human-readable "file:line: [rule] message" lines. */
void printHuman(const std::vector<Finding> &findings, std::ostream &os);

/** Render findings as a JSON document {"count":N,"findings":[...]}. */
void printJson(const std::vector<Finding> &findings, std::ostream &os);

/** SARIF 2.1.0 document: the rule catalogue plus one result per
 *  finding. */
void printSarif(const std::vector<Finding> &findings, std::ostream &os);

} // namespace tglint

#endif // TELEGRAPHOS_TOOLS_TGLINT_HPP
