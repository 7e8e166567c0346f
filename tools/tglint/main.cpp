/**
 * @file
 * tglint command-line driver.
 *
 * Usage:
 *   tglint [--json] [--sarif=<path>] [--list-rules] <path>...
 *
 * Paths may be files or directories (recursed for *.cpp / *.hpp / *.h).
 * The CLI (not the library) applies the project scan policy: the rule
 * fixture corpus under tests/tools/fixtures is skipped entirely, and
 * file-doc is relaxed for files under tests/.
 *
 * Exit status: 0 clean (no finding left once allow() comments apply),
 * 1 findings, 2 usage or I/O error.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "index.hpp"
#include "tglint.hpp"

namespace {

/** Parse "--flag=value"; returns true and sets @p value on match. */
bool
flagValue(const std::string &arg, const char *flag, std::string &value)
{
    const std::string prefix = std::string(flag) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

void
usage(std::ostream &os)
{
    os << "usage: tglint [--json] [--sarif=<path>] [--list-rules] "
          "<path>...\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string sarifPath;
    tglint::Options opts;
    // Project scan policy: fixture corpora violate rules on purpose and
    // are skipped; tests keep every determinism rule but not file-doc.
    opts.skipSubstrings.push_back("tests/tools/fixtures");
    opts.relaxedPathSubstrings.push_back("tests/");
    opts.relaxedRules.push_back("file-doc");

    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--json") {
            json = true;
        } else if (flagValue(arg, "--sarif", value)) {
            sarifPath = value;
        } else if (arg == "--list-rules") {
            for (const std::string &r : tglint::allRules())
                std::cout << r << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "tglint: unknown option '" << arg << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        usage(std::cerr);
        return 2;
    }

    tglint::ProjectIndex index;
    bool ok = true;
    for (const std::string &p : paths)
        ok = index.addPath(p, opts) && ok;
    index.finalize();

    std::vector<tglint::Finding> findings;
    tglint::runRules(index, opts, findings);

    if (!sarifPath.empty()) {
        std::ofstream sarif(sarifPath, std::ios::binary);
        if (!sarif) {
            std::cerr << "tglint: cannot write '" << sarifPath << "'\n";
            return 2;
        }
        tglint::printSarif(findings, sarif);
    }

    if (json)
        tglint::printJson(findings, std::cout);
    else
        tglint::printHuman(findings, std::cout);

    if (!ok) {
        std::cerr << "tglint: some paths could not be read\n";
        return 2;
    }
    return findings.empty() ? 0 : 1;
}
