/**
 * @file
 * Minimal C++ tokenizer for tglint.
 *
 * Produces identifier / number / punctuation / literal tokens with line
 * numbers, strips comments and string contents (so commented-out code
 * never fires a rule), and harvests the structured comment that
 * suppresses rules, keyed by the line it shields:
 *
 *   tglint: allow(rule, ...)          per-line rule suppression
 *
 * Raw string literals — including the u8R / uR / UR / LR prefixed
 * forms — collapse to one content-free Literal token attributed to the
 * line the literal starts on; digit separators (0x1'000) stay inside a
 * single Number token.
 */

#ifndef TELEGRAPHOS_TOOLS_TGLINT_LEXER_HPP
#define TELEGRAPHOS_TOOLS_TGLINT_LEXER_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

namespace tglint {

/** Lexical class of a token. */
enum class TokKind
{
    Ident,   ///< identifier or keyword
    Number,  ///< numeric literal (text preserved)
    Punct,   ///< operator / punctuation (one token per lexeme)
    Literal, ///< string or character literal (contents dropped)
};

/** One token of the scanned translation unit. */
struct Token
{
    TokKind kind;
    std::string text;
    int line; ///< 1-based source line

    bool is(const char *t) const { return text == t; }
};

/** Tokenizer output: the token stream plus comment-derived metadata. */
struct LexResult
{
    std::vector<Token> tokens;

    /** line -> set of rule slugs suppressed on that line ("*" = all). */
    std::map<int, std::set<std::string>> allows;

    /** True when the file opens with a doc comment containing "@file". */
    bool hasFileDoc = false;
};

/** Tokenize @p source (never throws; best-effort on malformed input). */
LexResult tokenize(const std::string &source);

/** True when @p t is a floating-point literal ("1.5", "2.", ".5e3"). */
bool isFloatLiteral(const Token &t);

} // namespace tglint

#endif // TELEGRAPHOS_TOOLS_TGLINT_LEXER_HPP
