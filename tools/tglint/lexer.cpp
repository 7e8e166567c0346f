/**
 * @file
 * Tokenizer implementation for tglint.
 */

#include "lexer.hpp"

#include <cctype>
#include <cstring>

namespace tglint {

namespace {

/** Locate "tglint: <verb>(" in @p comment; npos or the '(' position. */
std::size_t
findDirective(const std::string &comment, const char *verb)
{
    const std::string key = "tglint:";
    std::size_t at = comment.find(key);
    if (at == std::string::npos)
        return std::string::npos;
    at += key.size();
    while (at < comment.size() && std::isspace((unsigned char)comment[at]))
        ++at;
    const std::size_t vlen = std::strlen(verb);
    if (comment.compare(at, vlen, verb) != 0)
        return std::string::npos;
    at = comment.find('(', at);
    return at;
}

/** Extract "tglint: allow(a, b)" rule slugs from one comment's text. */
std::set<std::string>
parseAllows(const std::string &comment)
{
    std::set<std::string> rules;
    const std::size_t at = findDirective(comment, "allow");
    const std::size_t end =
        at == std::string::npos ? std::string::npos : comment.find(')', at);
    if (at == std::string::npos || end == std::string::npos)
        return rules;
    std::string slug;
    for (std::size_t i = at + 1; i <= end; ++i) {
        const char c = i < end ? comment[i] : ',';
        if (c == ',' || c == ')') {
            if (!slug.empty())
                rules.insert(slug);
            slug.clear();
        } else if (!std::isspace((unsigned char)c)) {
            slug += c;
        }
    }
    return rules;
}

/** Encoding prefixes that may precede a raw string's R. */
bool
isRawPrefix(const std::string &ident)
{
    return ident == "R" || ident == "u8R" || ident == "uR" ||
           ident == "UR" || ident == "LR";
}

} // namespace

bool
isFloatLiteral(const Token &t)
{
    if (t.kind != TokKind::Number)
        return false;
    const std::string &s = t.text;
    if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
        return s.find('p') != std::string::npos ||
               s.find('P') != std::string::npos;
    if (s.find('.') != std::string::npos)
        return true;
    if (s.find('e') != std::string::npos || s.find('E') != std::string::npos)
        return true;
    const char last = s.back();
    return last == 'f' || last == 'F';
}

LexResult
tokenize(const std::string &source)
{
    LexResult r;
    const std::size_t n = source.size();
    std::size_t i = 0;
    int line = 1;
    bool sawToken = false;        // any token emitted yet (for hasFileDoc)
    std::size_t prevIdentEnd = 0; // one past the last identifier lexed

    auto tokenOnLine = [&](int l) {
        return !r.tokens.empty() && r.tokens.back().line == l;
    };

    auto recordAllows = [&](const std::string &text, int startLine,
                            bool pureCommentLine) {
        const std::set<std::string> rules = parseAllows(text);
        if (!rules.empty()) {
            r.allows[startLine].insert(rules.begin(), rules.end());
            // A comment alone on its line shields the next line instead.
            if (pureCommentLine)
                r.allows[startLine + 1].insert(rules.begin(), rules.end());
        }
    };

    while (i < n) {
        const char c = source[i];

        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace((unsigned char)c)) {
            ++i;
            continue;
        }

        // ---- comments -------------------------------------------------
        if (c == '/' && i + 1 < n && source[i + 1] == '/') {
            const int startLine = line;
            const bool pure = !tokenOnLine(line);
            std::size_t j = i;
            while (j < n && source[j] != '\n')
                ++j;
            recordAllows(source.substr(i, j - i), startLine, pure);
            i = j;
            continue;
        }
        if (c == '/' && i + 1 < n && source[i + 1] == '*') {
            const int startLine = line;
            const bool pure = !tokenOnLine(line);
            std::size_t j = i + 2;
            while (j + 1 < n && !(source[j] == '*' && source[j + 1] == '/')) {
                if (source[j] == '\n')
                    ++line;
                ++j;
            }
            const std::string text = source.substr(i, j + 2 - i);
            if (!sawToken && !r.hasFileDoc)
                r.hasFileDoc = text.find("@file") != std::string::npos;
            recordAllows(text, startLine, pure);
            i = j + 2 < n ? j + 2 : n;
            continue;
        }

        // ---- string / char literals -----------------------------------
        if (c == '"' || c == '\'') {
            // Raw string literal: [u8|u|U|L]R"delim( ... )delim".  The
            // prefix must touch the quote (prevIdentEnd check), and the
            // delimiter is at most 16 characters with no quote, space,
            // backslash or ')' — otherwise this is an ordinary string.
            bool raw = c == '"' && !r.tokens.empty() &&
                       r.tokens.back().kind == TokKind::Ident &&
                       isRawPrefix(r.tokens.back().text) && prevIdentEnd == i;
            std::size_t rawOpen = 0; // position of '(' when raw
            if (raw) {
                std::size_t j = i + 1;
                while (j < n && source[j] != '(' && j - i <= 17) {
                    const char d = source[j];
                    if (d == '"' || d == ')' || d == '\\' ||
                        std::isspace((unsigned char)d))
                        break;
                    ++j;
                }
                if (j < n && source[j] == '(')
                    rawOpen = j;
                else
                    raw = false; // malformed: fall back to plain string
            }
            if (raw) {
                r.tokens.pop_back(); // the prefix belongs to the literal
                const std::string delim =
                    source.substr(i + 1, rawOpen - i - 1);
                const std::string close = ")" + delim + "\"";
                std::size_t end = source.find(close, rawOpen);
                if (end == std::string::npos)
                    end = n;
                r.tokens.push_back(Token{TokKind::Literal, "", line});
                sawToken = true;
                for (std::size_t k = i; k < end && k < n; ++k)
                    if (source[k] == '\n')
                        ++line;
                i = end == n ? n : end + close.size();
                continue;
            }
            const char quote = c;
            std::size_t j = i + 1;
            while (j < n && source[j] != quote) {
                if (source[j] == '\\')
                    ++j;
                else if (source[j] == '\n')
                    ++line; // unterminated; tolerate
                ++j;
            }
            r.tokens.push_back(Token{TokKind::Literal, "", line});
            sawToken = true;
            i = j < n ? j + 1 : n;
            continue;
        }

        // ---- numbers --------------------------------------------------
        if (std::isdigit((unsigned char)c) ||
            (c == '.' && i + 1 < n &&
             std::isdigit((unsigned char)source[i + 1]))) {
            std::size_t j = i;
            std::string text;
            while (j < n) {
                const char d = source[j];
                // A digit separator only continues the number when a
                // digit/letter follows; a bare quote after a number
                // starts a character literal instead.
                if (d == '\'' &&
                    !(j + 1 < n && std::isalnum((unsigned char)source[j + 1])))
                    break;
                if (std::isalnum((unsigned char)d) || d == '.' || d == '\'') {
                    text += d;
                    ++j;
                    // exponent signs: 1e-9, 0x1p+3
                    if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') &&
                        j < n && (source[j] == '+' || source[j] == '-') &&
                        text.size() > 1 &&
                        !(text[0] == '0' &&
                          (text[1] == 'x' || text[1] == 'X') &&
                          (d == 'e' || d == 'E'))) {
                        text += source[j++];
                    }
                } else {
                    break;
                }
            }
            r.tokens.push_back(Token{TokKind::Number, text, line});
            sawToken = true;
            i = j;
            continue;
        }

        // ---- identifiers ----------------------------------------------
        if (std::isalpha((unsigned char)c) || c == '_') {
            std::size_t j = i;
            while (j < n && (std::isalnum((unsigned char)source[j]) ||
                             source[j] == '_'))
                ++j;
            r.tokens.push_back(
                Token{TokKind::Ident, source.substr(i, j - i), line});
            sawToken = true;
            prevIdentEnd = j;
            i = j;
            continue;
        }

        // ---- punctuation (combine :: and -> only) ---------------------
        if (c == ':' && i + 1 < n && source[i + 1] == ':') {
            r.tokens.push_back(Token{TokKind::Punct, "::", line});
            sawToken = true;
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && source[i + 1] == '>') {
            r.tokens.push_back(Token{TokKind::Punct, "->", line});
            sawToken = true;
            i += 2;
            continue;
        }
        r.tokens.push_back(Token{TokKind::Punct, std::string(1, c), line});
        sawToken = true;
        ++i;
    }
    return r;
}

} // namespace tglint
