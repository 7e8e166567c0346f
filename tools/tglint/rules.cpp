/**
 * @file
 * Pass 2 of tglint: rule families over the project index.
 *
 * Per-file rules are token-level heuristics: deliberately narrow, zero
 * false negatives on the patterns they claim to catch, suppressible per
 * line with "// tglint: allow(<rule>)".  The isolation family
 * (global-mutable-state, pointer-keyed-order, include-cycle), which
 * keeps several Clusters in one process deterministic, consumes the
 * scope/include structure the index pass extracted, which is what
 * makes it project-wide.  See DESIGN.md section 7 for the catalogue.
 */

#include "tglint.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "index.hpp"
#include "lexer.hpp"

namespace tglint {

namespace {

const char *kBannedApi = "banned-api";
const char *kUnorderedIter = "unordered-iter";
const char *kTickFloat = "tick-float";
const char *kRawNew = "raw-new";
const char *kFileDoc = "file-doc";
const char *kHotStdFunction = "hot-path-std-function";
const char *kHotHeapAlloc = "hot-path-heap-alloc";
const char *kGlobalMutable = "global-mutable-state";
const char *kPointerKeyed = "pointer-keyed-order";
const char *kIncludeCycle = "include-cycle";

/** Namespace components whose event/packet ordering is part of the
 *  determinism contract. */
const std::set<std::string> kSensitiveNamespaces = {"net", "hib",
                                                   "coherence", "sim"};

/** Namespace components whose schedulers sit on the per-event hot path
 *  (sim core plus every component that schedules closures). */
const std::set<std::string> kHotPathNamespaces = {"sim", "net", "node",
                                                  "hib"};

/** Namespace components holding model state: a mutable global here is
 *  shared by every Cluster in the process, and address-dependent order
 *  varies with allocation history, so either makes one run's trace hash
 *  depend on what else ran before it in the same process. */
const std::set<std::string> kModelStateNamespaces = {"sim", "net", "hib",
                                                     "node", "coherence"};

/** Calls that read wall-clock / host entropy (never legal in the model). */
const std::set<std::string> kBannedCalls = {
    "rand",       "srand",     "drand48",       "lrand48",
    "random",     "time",      "clock",         "gettimeofday",
    "clock_gettime", "localtime", "gmtime",     "mrand48",
};

/** Banned type/member names flagged wherever they appear. */
const std::set<std::string> kBannedIdents = {
    "system_clock", "steady_clock", "high_resolution_clock", "random_device",
};

bool
pathContains(const std::string &path, const std::string &needle)
{
    return !needle.empty() && path.find(needle) != std::string::npos;
}

struct FileCtx
{
    const FileRecord &rec;
    const Options &opts;
    std::vector<Finding> &out;

    const std::string &path() const { return rec.path; }
    const std::vector<Token> &tokens() const { return rec.lex.tokens; }

    bool
    ruleDisabled(const std::string &rule) const
    {
        // Relaxed paths (tests): some rules are off wholesale.
        for (const std::string &sub : opts.relaxedPathSubstrings) {
            if (!pathContains(rec.path, sub))
                continue;
            if (std::find(opts.relaxedRules.begin(), opts.relaxedRules.end(),
                          rule) != opts.relaxedRules.end())
                return true;
        }
        return false;
    }

    bool
    suppressed(int line, const std::string &rule) const
    {
        auto it = rec.lex.allows.find(line);
        if (it == rec.lex.allows.end())
            return false;
        return it->second.count(rule) != 0 || it->second.count("*") != 0;
    }

    void
    emit(int line, const char *rule, std::string message)
    {
        if (ruleDisabled(rule) || suppressed(line, rule))
            return;
        out.push_back(Finding{rec.path, line, rule, std::move(message)});
    }
};

// ---------------------------------------------------------------------
// file-doc
// ---------------------------------------------------------------------

void
ruleFileDoc(FileCtx &ctx)
{
    if (!ctx.rec.lex.hasFileDoc)
        ctx.emit(1, kFileDoc,
                 "file must open with a /** ... @file ... */ doc header");
}

// ---------------------------------------------------------------------
// banned-api
// ---------------------------------------------------------------------

void
ruleBannedApi(FileCtx &ctx)
{
    const std::vector<Token> &t = ctx.tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string &name = t[i].text;
        const bool memberCall =
            i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
        const bool call = i + 1 < t.size() && t[i + 1].is("(");

        if (kBannedIdents.count(name)) {
            ctx.emit(t[i].line, kBannedApi,
                     "'" + name +
                         "' reads host clock/entropy; use the seeded "
                         "tg::Rng / simulated Tick instead");
            continue;
        }
        if (call && !memberCall && kBannedCalls.count(name)) {
            ctx.emit(t[i].line, kBannedApi,
                     "call to '" + name +
                         "()' is nondeterministic; use System::rng() or "
                         "EventQueue::now()");
            continue;
        }
        if (call && (name == "getenv" || name == "secure_getenv")) {
            ctx.emit(t[i].line, kBannedApi,
                     "'" + name +
                         "()' makes runs depend on the host environment; "
                         "pass settings through Config");
        }
    }
}

// ---------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------

bool
isUnorderedType(const std::string &s)
{
    return s == "unordered_map" || s == "unordered_set" ||
           s == "unordered_multimap" || s == "unordered_multiset";
}

/** True when the file's path or declared namespaces land in @p wanted. */
bool
inNamespaces(const FileCtx &ctx, const std::set<std::string> &wanted)
{
    for (const std::string &ns : wanted) {
        if (pathContains(ctx.path(), "/" + ns + "/"))
            return true;
    }
    for (const std::string &ns : ctx.rec.namespaces)
        if (wanted.count(ns))
            return true;
    return false;
}

/** True when the file's path or namespaces put it in order-sensitive
 *  territory. */
bool
orderSensitive(const FileCtx &ctx)
{
    return inNamespaces(ctx, kSensitiveNamespaces);
}

/** Names declared in this file with an unordered container type. */
std::set<std::string>
unorderedNames(const std::vector<Token> &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !isUnorderedType(t[i].text))
            continue;
        std::size_t j = i + 1;
        if (j < t.size() && t[j].is("<")) {
            int depth = 0;
            for (; j < t.size(); ++j) {
                if (t[j].is("<"))
                    ++depth;
                else if (t[j].is(">") && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        // Skip declaration decorations to reach the declared name.
        while (j < t.size() &&
               (t[j].is("&") || t[j].is("*") || t[j].is("const")))
            ++j;
        if (j < t.size() && t[j].kind == TokKind::Ident &&
            !t[j].is("iterator") && !t[j].is("const_iterator"))
            names.insert(t[j].text);
    }
    return names;
}

void
ruleUnorderedIter(FileCtx &ctx)
{
    if (!orderSensitive(ctx))
        return;
    const std::vector<Token> &t = ctx.tokens();
    const std::set<std::string> names = unorderedNames(t);
    if (names.empty())
        return;

    for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for whose range expression mentions an unordered name.
        if (t[i].kind == TokKind::Ident && t[i].is("for") &&
            i + 1 < t.size() && t[i + 1].is("(")) {
            int depth = 0;
            std::size_t colon = 0;
            for (std::size_t j = i + 1; j < t.size(); ++j) {
                if (t[j].is("("))
                    ++depth;
                else if (t[j].is(")") && --depth == 0) {
                    if (colon) {
                        for (std::size_t k = colon + 1; k < j; ++k) {
                            if (t[k].kind == TokKind::Ident &&
                                names.count(t[k].text)) {
                                ctx.emit(
                                    t[i].line, kUnorderedIter,
                                    "range-for over unordered container '" +
                                        t[k].text +
                                        "' in an order-sensitive namespace; "
                                        "use std::map or a sorted vector");
                                break;
                            }
                        }
                    }
                    break;
                } else if (t[j].is(":") && depth == 1 && !colon) {
                    colon = j;
                }
            }
        }
        // Explicit iterator walk: name.begin() / name->cbegin() etc.
        if (t[i].kind == TokKind::Ident && names.count(t[i].text) &&
            i + 2 < t.size() && (t[i + 1].is(".") || t[i + 1].is("->"))) {
            const std::string &m = t[i + 2].text;
            if (m == "begin" || m == "cbegin" || m == "rbegin") {
                ctx.emit(t[i].line, kUnorderedIter,
                         "iterator walk over unordered container '" +
                             t[i].text +
                             "' in an order-sensitive namespace; use "
                             "std::map or a sorted vector");
            }
        }
    }
}

// ---------------------------------------------------------------------
// tick-float
// ---------------------------------------------------------------------

bool
floatish(const Token &t)
{
    return isFloatLiteral(t) ||
           (t.kind == TokKind::Ident &&
            (t.is("double") || t.is("float")));
}

void
ruleTickFloat(FileCtx &ctx)
{
    const std::vector<Token> &t = ctx.tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !t[i].is("Tick"))
            continue;

        // Pattern A: "Tick name = <expr containing a float>;"
        if (i + 2 < t.size() && t[i + 1].kind == TokKind::Ident &&
            t[i + 2].is("=")) {
            for (std::size_t j = i + 3; j < t.size() && !t[j].is(";"); ++j) {
                if (floatish(t[j])) {
                    ctx.emit(t[i].line, kTickFloat,
                             "floating-point arithmetic initializing Tick '" +
                                 t[i + 1].text +
                                 "'; ticks are integral nanoseconds — round "
                                 "explicitly and annotate the contract");
                    break;
                }
            }
        }

        // Pattern B/C: static_cast<Tick>(... float ...) or Tick(... float ...)
        std::size_t open = 0;
        if (i >= 2 && t[i - 1].is("<") && t[i - 2].is("static_cast") &&
            i + 2 < t.size() && t[i + 1].is(">") && t[i + 2].is("("))
            open = i + 2;
        else if (i + 1 < t.size() && t[i + 1].is("("))
            open = i + 1;
        if (open) {
            int depth = 0;
            for (std::size_t j = open; j < t.size(); ++j) {
                if (t[j].is("("))
                    ++depth;
                else if (t[j].is(")") && --depth == 0)
                    break;
                else if (depth >= 1 && floatish(t[j])) {
                    ctx.emit(t[i].line, kTickFloat,
                             "floating-point expression cast to Tick; ticks "
                             "are integral nanoseconds — round explicitly "
                             "and annotate the contract");
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// raw-new
// ---------------------------------------------------------------------

void
ruleRawNew(FileCtx &ctx)
{
    const std::vector<Token> &t = ctx.tokens();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const bool opOverload = i > 0 && t[i - 1].is("operator");
        // "#include <new>" names the header, not an allocation.
        const bool headerName = i >= 3 && t[i - 1].is("<") &&
                                t[i - 2].is("include") && t[i - 3].is("#");
        if (t[i].is("new") && !opOverload && !headerName) {
            ctx.emit(t[i].line, kRawNew,
                     "raw 'new'; own allocations with std::make_unique / "
                     "containers so teardown order stays deterministic");
        } else if (t[i].is("delete") && !opOverload) {
            const bool deletedFn = i > 0 && t[i - 1].is("=") &&
                                   i + 1 < t.size() &&
                                   (t[i + 1].is(";") || t[i + 1].is(","));
            if (!deletedFn)
                ctx.emit(t[i].line, kRawNew,
                         "raw 'delete'; use RAII ownership instead");
        }
    }
}

// ---------------------------------------------------------------------
// hot-path-std-function
// ---------------------------------------------------------------------

void
ruleHotStdFunction(FileCtx &ctx)
{
    if (!inNamespaces(ctx, kHotPathNamespaces))
        return;
    const std::vector<Token> &t = ctx.tokens();
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind == TokKind::Ident && t[i].is("std") &&
            t[i + 1].is("::") && t[i + 2].kind == TokKind::Ident &&
            t[i + 2].is("function")) {
            ctx.emit(t[i].line, kHotStdFunction,
                     "std::function on a scheduling hot path heap-allocates "
                     "per closure; use tg::Fn / tg::Event (sim/event.hpp)");
        }
    }
}

// ---------------------------------------------------------------------
// hot-path-heap-alloc
// ---------------------------------------------------------------------

/** Node-based standard containers that heap-allocate per element.  On
 *  the packet/event hot path they defeat the arena + tg::Ring storage
 *  discipline (DESIGN.md section 14): every push is a malloc, every pop
 *  a free, and the allocator becomes the bottleneck the PacketArena /
 *  BoundedQueue overhaul removed. */
const std::set<std::string> kPerElementContainers = {"deque", "list",
                                                     "forward_list"};

void
ruleHotHeapAlloc(FileCtx &ctx)
{
    if (!inNamespaces(ctx, kHotPathNamespaces))
        return;
    const std::vector<Token> &t = ctx.tokens();
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind == TokKind::Ident && t[i].is("std") &&
            t[i + 1].is("::") && t[i + 2].kind == TokKind::Ident &&
            kPerElementContainers.count(t[i + 2].text)) {
            ctx.emit(t[i].line, kHotHeapAlloc,
                     "std::" + t[i + 2].text +
                         " on a packet/event hot path heap-allocates per "
                         "element; use tg::Ring (sim/ring.hpp), "
                         "net::BoundedQueue or net::PacketArena (DESIGN.md "
                         "section 14)");
        }
    }
}

// ---------------------------------------------------------------------
// global-mutable-state
// ---------------------------------------------------------------------

const char *
scopeNoun(VarDecl::Scope s)
{
    switch (s) {
    case VarDecl::Scope::Namespace: return "namespace-scope variable";
    case VarDecl::Scope::StaticLocal: return "function-local static";
    case VarDecl::Scope::StaticMember: return "static data member";
    }
    return "variable";
}

void
ruleGlobalMutableState(FileCtx &ctx)
{
    if (!inNamespaces(ctx, kModelStateNamespaces))
        return;
    for (const VarDecl &v : ctx.rec.vars) {
        if (v.isConst || v.isThreadLocal)
            continue; // immutable, or per-thread by construction
        ctx.emit(v.line, kGlobalMutable,
                 std::string("mutable ") + scopeNoun(v.scope) + " '" +
                     v.name +
                     "' is shared by every Cluster in the process, so one "
                     "run's trace hash could depend on what ran before "
                     "it; demote it into an owning object, or justify it "
                     "with 'tglint: allow(global-mutable-state)'");
    }
}

// ---------------------------------------------------------------------
// pointer-keyed-order
// ---------------------------------------------------------------------

/** Ordered associative containers whose key is the first template arg. */
bool
isOrderedAssoc(const std::string &s)
{
    return s == "map" || s == "set" || s == "multimap" || s == "multiset";
}

/** Names declared in this file as std::vector<T *>. */
std::set<std::string>
pointerVectorNames(const std::vector<Token> &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !t[i].is("vector") ||
            i + 1 >= t.size() || !t[i + 1].is("<"))
            continue;
        int depth = 0;
        bool ptr = false;
        std::size_t j = i + 1;
        for (; j < t.size(); ++j) {
            if (t[j].is("<"))
                ++depth;
            else if (t[j].is(">") && --depth == 0) {
                ++j;
                break;
            } else if (t[j].is("*"))
                ptr = true;
        }
        if (!ptr)
            continue;
        while (j < t.size() &&
               (t[j].is("&") || t[j].is("*") || t[j].is("const")))
            ++j;
        if (j < t.size() && t[j].kind == TokKind::Ident)
            names.insert(t[j].text);
    }
    return names;
}

void
rulePointerKeyedOrder(FileCtx &ctx)
{
    if (!inNamespaces(ctx, kModelStateNamespaces))
        return;
    const std::vector<Token> &t = ctx.tokens();

    // std::{map,set,multimap,multiset}<K, ...> with a pointer K.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || !isOrderedAssoc(t[i].text) ||
            !t[i + 1].is("<"))
            continue;
        // Require std:: qualification so a variable named `set` compared
        // with `<` cannot fire.
        if (!(i >= 2 && t[i - 1].is("::") && t[i - 2].is("std")))
            continue;
        int depth = 0;
        bool ptrKey = false;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (t[j].is("<")) {
                ++depth;
            } else if (t[j].is(">")) {
                if (--depth == 0)
                    break;
            } else if (t[j].is(",") && depth == 1) {
                break; // end of the key type
            } else if (t[j].is("*")) {
                ptrKey = true;
            }
        }
        if (ptrKey)
            ctx.emit(t[i].line, kPointerKeyed,
                     "std::" + t[i].text +
                         " keyed by a pointer orders elements by allocation "
                         "address — iteration order changes across runs; "
                         "key by a stable id instead");
    }

    // std::sort(v.begin(), v.end()) over a vector of pointers: the
    // two-argument form compares addresses.
    const std::set<std::string> ptrVecs = pointerVectorNames(t);
    if (ptrVecs.empty())
        return;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident ||
            !(t[i].is("sort") || t[i].is("stable_sort")) ||
            !t[i + 1].is("("))
            continue;
        int depth = 0;
        int commas = 0;
        bool named = false;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (t[j].is("(")) {
                ++depth;
            } else if (t[j].is(")")) {
                if (--depth == 0)
                    break;
            } else if (t[j].is(",") && depth == 1) {
                ++commas;
            } else if (t[j].kind == TokKind::Ident &&
                       ptrVecs.count(t[j].text)) {
                named = true;
            }
        }
        if (named && commas == 1)
            ctx.emit(t[i].line, kPointerKeyed,
                     "sorting a vector of pointers without a comparator "
                     "orders it by allocation address — derive the order "
                     "from a stable id instead");
    }
}

// ---------------------------------------------------------------------
// include-cycle
// ---------------------------------------------------------------------

void
ruleIncludeCycle(const ProjectIndex &index, const Options &opts,
                 std::vector<Finding> &out)
{
    const std::vector<FileRecord> &files = index.files();
    const std::size_t n = files.size();

    // Adjacency with the include line that creates each edge.
    std::vector<std::vector<std::pair<std::size_t, int>>> adj(n);
    for (std::size_t i = 0; i < n; ++i)
        for (const IncludeEdge &e : files[i].includes) {
            const std::size_t j = index.resolve(i, e.target);
            if (j < n)
                adj[i].push_back({j, e.line});
        }

    enum { White, Grey, Black };
    std::vector<int> color(n, White);
    std::vector<std::size_t> stack;
    std::set<std::string> reported;

    auto report = [&](std::vector<std::size_t> cycle) {
        // Canonical rotation: lexicographically smallest path first.
        std::size_t lead = 0;
        for (std::size_t k = 1; k < cycle.size(); ++k)
            if (files[cycle[k]].path < files[cycle[lead]].path)
                lead = k;
        std::rotate(cycle.begin(), cycle.begin() + lead, cycle.end());

        std::string key;
        std::string chain;
        for (std::size_t k : cycle) {
            key += files[k].path + "|";
            chain += files[k].path + " -> ";
        }
        chain += files[cycle[0]].path;
        if (!reported.insert(key).second)
            return;

        // Anchor the finding on the include in the lead file that
        // points at the next file in the cycle.
        const std::size_t head = cycle[0];
        const std::size_t next = cycle.size() > 1 ? cycle[1] : cycle[0];
        int line = 1;
        for (const IncludeEdge &e : files[head].includes)
            if (index.resolve(head, e.target) == next) {
                line = e.line;
                break;
            }

        FileCtx ctx{files[head], opts, out};
        ctx.emit(line, kIncludeCycle,
                 "include cycle: " + chain +
                     "; break it with a forward declaration or by moving "
                     "the shared types into their own header");
    };

    // Iterative DFS over every component, deterministic in index order.
    for (std::size_t root = 0; root < n; ++root) {
        if (color[root] != White)
            continue;
        std::vector<std::pair<std::size_t, std::size_t>> work; // node, edge
        work.push_back({root, 0});
        color[root] = Grey;
        stack.push_back(root);
        while (!work.empty()) {
            auto &[node, edge] = work.back();
            if (edge < adj[node].size()) {
                const std::size_t next = adj[node][edge].first;
                ++edge;
                if (color[next] == White) {
                    color[next] = Grey;
                    stack.push_back(next);
                    work.push_back({next, 0});
                } else if (color[next] == Grey) {
                    // Back edge: the cycle is the stack from `next` on.
                    auto at = std::find(stack.begin(), stack.end(), next);
                    report(std::vector<std::size_t>(at, stack.end()));
                }
            } else {
                color[node] = Black;
                stack.pop_back();
                work.pop_back();
            }
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        kBannedApi,      kUnorderedIter, kTickFloat,
        kRawNew,         kFileDoc,       kHotStdFunction,
        kHotHeapAlloc,   kGlobalMutable, kPointerKeyed,
        kIncludeCycle,
    };
    return rules;
}

std::string
ruleDescription(const std::string &rule)
{
    static const std::map<std::string, std::string> desc = {
        {kBannedApi, "wall-clock / host-entropy API leaks into the model"},
        {kUnorderedIter,
         "iteration over an unordered container in an order-sensitive "
         "namespace"},
        {kTickFloat, "floating-point arithmetic feeding an integral Tick"},
        {kRawNew, "raw new/delete"},
        {kFileDoc, "missing leading @file documentation header"},
        {kHotStdFunction,
         "std::function on a scheduling hot path heap-allocates"},
        {kHotHeapAlloc,
         "per-element-allocating container (deque/list) on a packet/event "
         "hot path"},
        {kGlobalMutable,
         "mutable namespace-scope/static state in a model-state "
         "namespace"},
        {kPointerKeyed,
         "container ordered by pointer values (address-dependent order)"},
        {kIncludeCycle, "cyclic quoted-include edges"},
    };
    auto it = desc.find(rule);
    return it == desc.end() ? std::string() : it->second;
}

void
runRules(const ProjectIndex &index, const Options &opts,
         std::vector<Finding> &out)
{
    for (const FileRecord &rec : index.files()) {
        FileCtx ctx{rec, opts, out};
        ruleFileDoc(ctx);
        ruleBannedApi(ctx);
        ruleUnorderedIter(ctx);
        ruleTickFloat(ctx);
        ruleRawNew(ctx);
        ruleHotStdFunction(ctx);
        ruleHotHeapAlloc(ctx);
        ruleGlobalMutableState(ctx);
        rulePointerKeyedOrder(ctx);
    }
    ruleIncludeCycle(index, opts, out);

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

void
lintSource(const std::string &path, const std::string &source,
           const Options &opts, std::vector<Finding> &out)
{
    ProjectIndex index;
    index.addSource(path, source);
    index.finalize();
    runRules(index, opts, out);
}

bool
lintPath(const std::string &path, const Options &opts,
         std::vector<Finding> &out)
{
    ProjectIndex index;
    const bool ok = index.addPath(path, opts);
    index.finalize();
    runRules(index, opts, out);
    return ok;
}

} // namespace tglint
