/**
 * @file
 * Pass 1 of tglint: the project-wide source index.
 *
 * Every file handed to the analyzer is tokenized once and summarized
 * into a FileRecord: its token stream, the namespaces it declares, the
 * mutable namespace-scope / static-local / static-member variables it
 * defines, and its quoted #include edges.  Rule families (pass 2,
 * rules.cpp) run against the finished index, which is what lets them
 * see cross-file structure — include cycles, project-wide scope — that
 * a per-file scanner cannot.
 *
 * The scope scanner is a brace-matching heuristic over the token
 * stream, not a C++ parser.  It is deliberately conservative: the
 * false-negative cases it accepts (function-pointer globals, globals
 * declared through macros) are documented in DESIGN.md section 7.
 */

#ifndef TELEGRAPHOS_TOOLS_TGLINT_INDEX_HPP
#define TELEGRAPHOS_TOOLS_TGLINT_INDEX_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace tglint {

struct Options;

/** One mutable variable declaration found by the scope scanner. */
struct VarDecl
{
    /** Where the variable lives. */
    enum class Scope
    {
        Namespace,    ///< namespace scope (incl. anonymous namespaces)
        StaticLocal,  ///< function-local `static`
        StaticMember, ///< class-scope `static` / `static inline` member
    };

    std::string name; ///< declared identifier (best effort)
    int line = 0;     ///< 1-based declaration line
    Scope scope = Scope::Namespace;
    bool isConst = false;       ///< const / constexpr anywhere in the decl
    bool isThreadLocal = false; ///< thread_local => per-thread by design
};

/** One quoted #include directive. */
struct IncludeEdge
{
    std::string target; ///< path as written between the quotes
    int line = 0;       ///< 1-based line of the directive
};

/** Everything pass 1 knows about one source file. */
struct FileRecord
{
    std::string path;    ///< path as given to the scanner
    LexResult lex;       ///< token stream + allow annotations
    std::vector<std::string> namespaces; ///< declared namespace components
    std::vector<VarDecl> vars;           ///< scope-scanner output
    std::vector<IncludeEdge> includes;   ///< quoted includes, in order
};

/**
 * The project-wide index.  Files are stored sorted by path so every
 * downstream report is deterministic regardless of directory-walk or
 * command-line order.
 */
class ProjectIndex
{
  public:
    /** Tokenize + scan one in-memory source and add its record. */
    void addSource(const std::string &path, const std::string &source);

    /**
     * Add a file or directory tree (recursing into *.hpp / *.cpp /
     * *.h / *.cc), honouring @p opts skip list.
     * @return false when a path could not be read.
     */
    bool addPath(const std::string &path, const Options &opts);

    /** Sort records by path; call once after the last add. */
    void finalize();

    const std::vector<FileRecord> &files() const { return _files; }

    /**
     * Resolve the include @p target written in @p from to an index
     * position: first as a sibling of the including file, then by
     * unique path-suffix match across the index (the repo writes
     * includes relative to src/).  Returns files().size() when the
     * target is not part of the index (system headers, generated
     * files).
     */
    std::size_t resolve(std::size_t from, const std::string &target) const;

  private:
    std::vector<FileRecord> _files;
};

} // namespace tglint

#endif // TELEGRAPHOS_TOOLS_TGLINT_INDEX_HPP
