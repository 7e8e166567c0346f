/**
 * @file
 * tglint reporting: the baseline ratchet, human/JSON renderers and the
 * SARIF 2.1.0 export.
 *
 * The baseline is a committed JSON document of triaged findings.
 * Matching is count-based per (file, rule): an entry absorbs up to
 * `count` findings whose rule matches and whose path equals the entry's
 * file or ends with "/<file>" (so repo-relative entries match the
 * absolute paths ctest passes).  Anything beyond the counts is a NEW
 * finding and fails the run; unused capacity is reported as stale so
 * the baseline only ever shrinks.
 */

#include "tglint.hpp"

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>

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

/**
 * Minimal JSON reader for the baseline schema.  Handles objects,
 * arrays, strings (with \" escapes), and integers — all this tool ever
 * writes.  Anything else is a parse error.
 */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : _s(text) {}

    bool
    failed() const
    {
        return _failed;
    }

    void
    skipWs()
    {
        while (_at < _s.size() && std::isspace((unsigned char)_s[_at]))
            ++_at;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (_at < _s.size() && _s[_at] == c) {
            ++_at;
            return true;
        }
        return false;
    }

    char
    peek()
    {
        skipWs();
        return _at < _s.size() ? _s[_at] : '\0';
    }

    std::string
    readString()
    {
        std::string out;
        if (!consume('"')) {
            _failed = true;
            return out;
        }
        while (_at < _s.size() && _s[_at] != '"') {
            if (_s[_at] == '\\' && _at + 1 < _s.size()) {
                ++_at;
                out += _s[_at] == 'n' ? '\n' : _s[_at];
            } else {
                out += _s[_at];
            }
            ++_at;
        }
        if (!consume('"'))
            _failed = true;
        return out;
    }

    long
    readInt()
    {
        skipWs();
        bool neg = false;
        if (_at < _s.size() && _s[_at] == '-') {
            neg = true;
            ++_at;
        }
        if (_at >= _s.size() || !std::isdigit((unsigned char)_s[_at])) {
            _failed = true;
            return 0;
        }
        long v = 0;
        while (_at < _s.size() && std::isdigit((unsigned char)_s[_at]))
            v = v * 10 + (_s[_at++] - '0');
        return neg ? -v : v;
    }

    /** Skip any one JSON value (used for unknown keys). */
    void
    skipValue()
    {
        switch (peek()) {
        case '"':
            readString();
            return;
        case '{':
            consume('{');
            if (consume('}'))
                return;
            do {
                readString();
                if (!consume(':')) {
                    _failed = true;
                    return;
                }
                skipValue();
            } while (consume(','));
            if (!consume('}'))
                _failed = true;
            return;
        case '[':
            consume('[');
            if (consume(']'))
                return;
            do {
                skipValue();
            } while (consume(','));
            if (!consume(']'))
                _failed = true;
            return;
        default:
            // number / true / false / null
            skipWs();
            while (_at < _s.size() && !std::isspace((unsigned char)_s[_at]) &&
                   _s[_at] != ',' && _s[_at] != '}' && _s[_at] != ']')
                ++_at;
            return;
        }
    }

  private:
    const std::string &_s;
    std::size_t _at = 0;
    bool _failed = false;
};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void
printFinding(const Finding &f, std::ostream &os)
{
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
}

void
jsonFinding(const Finding &f, std::ostream &os)
{
    os << "{\"file\":\"" << jsonEscape(f.file) << "\",\"line\":" << f.line
       << ",\"rule\":\"" << jsonEscape(f.rule) << "\",\"message\":\""
       << jsonEscape(f.message) << "\"}";
}

} // namespace

bool
loadBaseline(const std::string &path, Baseline &out, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot read baseline '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    JsonReader r(text);
    if (!r.consume('{')) {
        err = "baseline is not a JSON object";
        return false;
    }
    bool sawSchema = false;
    if (r.peek() != '}') {
        do {
            const std::string key = r.readString();
            if (!r.consume(':')) {
                err = "malformed baseline (missing ':')";
                return false;
            }
            if (key == "schema") {
                const std::string schema = r.readString();
                if (schema != "tglint-baseline-v1") {
                    err = "unknown baseline schema '" + schema + "'";
                    return false;
                }
                sawSchema = true;
            } else if (key == "entries") {
                if (!r.consume('[')) {
                    err = "baseline 'entries' is not an array";
                    return false;
                }
                if (r.peek() != ']') {
                    do {
                        BaselineEntry e;
                        if (!r.consume('{')) {
                            err = "baseline entry is not an object";
                            return false;
                        }
                        if (r.peek() != '}') {
                            do {
                                const std::string k = r.readString();
                                if (!r.consume(':')) {
                                    err = "malformed baseline entry";
                                    return false;
                                }
                                if (k == "file")
                                    e.file = r.readString();
                                else if (k == "rule")
                                    e.rule = r.readString();
                                else if (k == "count")
                                    e.count = (int)r.readInt();
                                else
                                    r.skipValue();
                            } while (r.consume(','));
                        }
                        if (!r.consume('}')) {
                            err = "unterminated baseline entry";
                            return false;
                        }
                        if (e.file.empty() || e.rule.empty() ||
                            e.count <= 0) {
                            err = "baseline entry needs file, rule and a "
                                  "positive count";
                            return false;
                        }
                        out.entries.push_back(e);
                    } while (r.consume(','));
                }
                if (!r.consume(']')) {
                    err = "unterminated baseline 'entries'";
                    return false;
                }
            } else {
                r.skipValue();
            }
        } while (r.consume(','));
    }
    if (!r.consume('}') || r.failed()) {
        err = "malformed baseline JSON";
        return false;
    }
    if (!sawSchema) {
        err = "baseline is missing \"schema\":\"tglint-baseline-v1\"";
        return false;
    }
    return true;
}

Report
applyBaseline(const std::vector<Finding> &findings, const Baseline &baseline)
{
    Report rep;
    std::vector<int> remaining;
    remaining.reserve(baseline.entries.size());
    for (const BaselineEntry &e : baseline.entries)
        remaining.push_back(e.count);

    for (const Finding &f : findings) {
        bool matched = false;
        for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
            const BaselineEntry &e = baseline.entries[i];
            if (remaining[i] <= 0 || e.rule != f.rule)
                continue;
            if (f.file != e.file && !endsWith(f.file, "/" + e.file))
                continue;
            --remaining[i];
            matched = true;
            break;
        }
        (matched ? rep.baselined : rep.fresh).push_back(f);
    }

    for (std::size_t i = 0; i < baseline.entries.size(); ++i)
        if (remaining[i] > 0) {
            BaselineEntry stale = baseline.entries[i];
            stale.count = remaining[i];
            rep.stale.push_back(stale);
        }
    return rep;
}

void
printHuman(const std::vector<Finding> &findings, std::ostream &os)
{
    for (const Finding &f : findings)
        printFinding(f, os);
    os << (findings.empty() ? "tglint: clean\n" : "");
    if (!findings.empty())
        os << "tglint: " << findings.size() << " finding(s)\n";
}

void
printJson(const std::vector<Finding> &findings, std::ostream &os)
{
    os << "{\"count\":" << findings.size() << ",\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        os << (i ? "," : "");
        jsonFinding(findings[i], os);
    }
    os << "]}\n";
}

void
printHuman(const Report &rep, std::ostream &os)
{
    for (const Finding &f : rep.fresh)
        printFinding(f, os);
    for (const BaselineEntry &e : rep.stale)
        os << "stale baseline entry: " << e.file << " [" << e.rule << "] x"
           << e.count << " — remove it from baseline.json\n";
    if (rep.fresh.empty()) {
        os << "tglint: clean";
        if (!rep.baselined.empty())
            os << " (" << rep.baselined.size() << " baselined)";
        os << "\n";
    } else {
        os << "tglint: " << rep.fresh.size() << " new finding(s)";
        if (!rep.baselined.empty())
            os << ", " << rep.baselined.size() << " baselined";
        os << "\n";
    }
}

void
printJson(const Report &rep, std::ostream &os)
{
    os << "{\"count\":" << rep.fresh.size() << ",\"findings\":[";
    for (std::size_t i = 0; i < rep.fresh.size(); ++i) {
        os << (i ? "," : "");
        jsonFinding(rep.fresh[i], os);
    }
    os << "],\"baselinedCount\":" << rep.baselined.size();
    os << ",\"stale\":[";
    for (std::size_t i = 0; i < rep.stale.size(); ++i) {
        const BaselineEntry &e = rep.stale[i];
        os << (i ? "," : "") << "{\"file\":\"" << jsonEscape(e.file)
           << "\",\"rule\":\"" << jsonEscape(e.rule)
           << "\",\"count\":" << e.count << "}";
    }
    os << "]}\n";
}

void
printSarif(const Report &rep, std::ostream &os)
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
    bool first = true;
    auto result = [&](const Finding &f, const char *state) {
        os << (first ? "" : ",") << "{\"ruleId\":\"" << jsonEscape(f.rule)
           << "\",\"level\":\"error\",\"baselineState\":\"" << state
           << "\",\"message\":{\"text\":\"" << jsonEscape(f.message)
           << "\"},\"locations\":[{\"physicalLocation\":"
              "{\"artifactLocation\":{\"uri\":\""
           << jsonEscape(f.file) << "\"},\"region\":{\"startLine\":"
           << f.line << "}}}]}";
        first = false;
    };
    for (const Finding &f : rep.fresh)
        result(f, "new");
    for (const Finding &f : rep.baselined)
        result(f, "unchanged");
    os << "]}]}\n";
}

} // namespace tglint
