/**
 * @file
 * tglint reporting: the human and JSON renderers and the SARIF 2.1.0
 * export.  The findings vector is the whole report: every finding that
 * survived its inline allow() comments fails the run.
 */

#include "tglint.hpp"

#include <ostream>

namespace tglint {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string r;
    for (char c : s) {
        if (c == '"' || c == '\\')
            r += '\\', r += c;
        else if (c == '\n')
            r += "\\n";
        else if (c == '\t')
            r += "\\t";
        else
            r += c;
    }
    return r;
}

} // namespace

void
printHuman(const std::vector<Finding> &findings, std::ostream &os)
{
    for (const Finding &f : findings)
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    if (findings.empty())
        os << "tglint: clean\n";
    else
        os << "tglint: " << findings.size() << " finding(s)\n";
}

void
printJson(const std::vector<Finding> &findings, std::ostream &os)
{
    os << "{\"count\":" << findings.size() << ",\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? "," : "") << "{\"file\":\"" << jsonEscape(f.file)
           << "\",\"line\":" << f.line << ",\"rule\":\""
           << jsonEscape(f.rule) << "\",\"message\":\""
           << jsonEscape(f.message) << "\"}";
    }
    os << "]}\n";
}

void
printSarif(const std::vector<Finding> &findings, std::ostream &os)
{
    os << "{\"$schema\":"
          "\"https://json.schemastore.org/sarif-2.1.0.json\","
          "\"version\":\"2.1.0\",\"runs\":[{";
    os << "\"tool\":{\"driver\":{\"name\":\"tglint\","
          "\"informationUri\":\"DESIGN.md\",\"version\":\"2.0.0\","
          "\"rules\":[";
    const std::vector<std::string> &rules = allRules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        os << (i ? "," : "") << "{\"id\":\"" << jsonEscape(rules[i])
           << "\",\"shortDescription\":{\"text\":\""
           << jsonEscape(ruleDescription(rules[i])) << "\"}}";
    }
    os << "]}},\"results\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? "," : "") << "{\"ruleId\":\"" << jsonEscape(f.rule)
           << "\",\"level\":\"error\",\"message\":{\"text\":\""
           << jsonEscape(f.message)
           << "\"},\"locations\":[{\"physicalLocation\":"
              "{\"artifactLocation\":{\"uri\":\""
           << jsonEscape(f.file) << "\"},\"region\":{\"startLine\":"
           << f.line << "}}}]}";
    }
    os << "]}]}\n";
}

} // namespace tglint
