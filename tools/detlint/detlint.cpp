#include "detlint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>

namespace detlint {

namespace {

// --- Source model ----------------------------------------------------------

/// One scrubbed translation unit. `code` is the file with comment bodies and
/// string/char literal contents blanked to spaces (lengths preserved, so
/// column arithmetic and line mapping stay exact); `comments` holds the
/// comment text per line for DETLINT-ALLOW parsing.
struct source_file {
    std::string path;
    std::vector<std::string> code;
    std::vector<std::string> comments;
    /// Line-joined `code` with '\n' separators, for multi-line matching.
    std::string joined;
    /// joined offset -> 0-based line index (size joined.size() + 1).
    std::vector<int> line_of;
    /// (line, check-id) pairs covered by a DETLINT-ALLOW annotation.
    std::set<std::pair<int, std::string>> allows;
};

void split_lines(const std::string& text, std::vector<std::string>& out)
{
    std::string line;
    for (const char c : text) {
        if (c == '\n') {
            out.push_back(line);
            line.clear();
        } else {
            line.push_back(c);
        }
    }
    out.push_back(line);
}

/// Comment/string scrubber: a plain state machine over the raw text.
/// Handles //, /* */, "..." with escapes, '...' with escapes, and raw
/// string literals R"delim(...)delim".
void scrub(const std::string& raw, std::string& code_text,
           std::vector<std::string>& comment_lines)
{
    enum class state { normal, line_comment, block_comment, str, chr, raw_str };
    state st = state::normal;
    std::string code;
    code.reserve(raw.size());
    std::string comment_acc;
    std::vector<std::string> comments;
    std::string raw_delim; // closing ")delim" of an active raw string

    const auto flush_comment_line = [&] {
        comments.push_back(comment_acc);
        comment_acc.clear();
    };

    for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
        if (c == '\n') {
            flush_comment_line();
            if (st == state::line_comment) st = state::normal;
            code.push_back('\n');
            continue;
        }
        switch (st) {
        case state::normal:
            if (c == '/' && next == '/') {
                st = state::line_comment;
                code.append("  ");
                ++i;
            } else if (c == '/' && next == '*') {
                st = state::block_comment;
                code.append("  ");
                ++i;
            } else if (c == '"') {
                // Raw string? Look back for R / u8R / LR / UR prefix.
                bool is_raw = false;
                if (!code.empty() && code.back() == 'R') {
                    std::size_t j = code.size() - 1;
                    // Reject identifiers ending in R (e.g. `VAR"x"` is not
                    // valid C++ anyway, but be conservative).
                    if (j == 0 || !(std::isalnum(static_cast<unsigned char>(
                                        code[j - 1])) ||
                                    code[j - 1] == '_'))
                        is_raw = true;
                    else if (j >= 1 && (code[j - 1] == 'u' || code[j - 1] == 'U' ||
                                        code[j - 1] == 'L' || code[j - 1] == '8'))
                        is_raw = true;
                }
                if (is_raw) {
                    std::string delim;
                    std::size_t j = i + 1;
                    while (j < raw.size() && raw[j] != '(') delim.push_back(raw[j++]);
                    raw_delim = ")" + delim + "\"";
                    st = state::raw_str;
                    code.push_back('"');
                    for (std::size_t k = i + 1; k <= j && k < raw.size(); ++k)
                        code.push_back(' ');
                    i = j;
                } else {
                    st = state::str;
                    code.push_back('"');
                }
            } else if (c == '\'') {
                // Digit separators (1'000'000) are not char literals.
                const bool digit_sep =
                    !code.empty() &&
                    std::isalnum(static_cast<unsigned char>(code.back())) &&
                    std::isalnum(static_cast<unsigned char>(next));
                code.push_back('\'');
                if (!digit_sep) st = state::chr;
            } else {
                code.push_back(c);
            }
            break;
        case state::line_comment:
            comment_acc.push_back(c);
            code.push_back(' ');
            break;
        case state::block_comment:
            if (c == '*' && next == '/') {
                st = state::normal;
                code.append("  ");
                ++i;
            } else {
                comment_acc.push_back(c);
                code.push_back(' ');
            }
            break;
        case state::str:
            if (c == '\\') {
                code.append("  ");
                ++i;
                if (next == '\0') break;
            } else if (c == '"') {
                st = state::normal;
                code.push_back('"');
            } else {
                code.push_back(' ');
            }
            break;
        case state::chr:
            if (c == '\\') {
                code.append("  ");
                ++i;
                if (next == '\0') break;
            } else if (c == '\'') {
                st = state::normal;
                code.push_back('\'');
            } else {
                code.push_back(' ');
            }
            break;
        case state::raw_str:
            if (raw.compare(i, raw_delim.size(), raw_delim) == 0) {
                st = state::normal;
                for (std::size_t k = 0; k < raw_delim.size() - 1; ++k)
                    code.push_back(' ');
                code.push_back('"');
                i += raw_delim.size() - 1;
            } else {
                code.push_back(' ');
            }
            break;
        }
    }
    flush_comment_line();
    code_text = std::move(code);
    comment_lines = std::move(comments);
}

source_file load(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("detlint: cannot read " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string raw = buf.str();

    source_file file;
    file.path = path.generic_string();
    std::string code_text;
    scrub(raw, code_text, file.comments);
    split_lines(code_text, file.code);
    file.joined = code_text;
    file.line_of.resize(file.joined.size() + 1);
    int line = 0;
    for (std::size_t i = 0; i < file.joined.size(); ++i) {
        file.line_of[i] = line;
        if (file.joined[i] == '\n') ++line;
    }
    file.line_of[file.joined.size()] = line;

    // DETLINT-ALLOW(check): reason — covers its own line and, skipping
    // over the rest of a comment block or blank lines, the first code line
    // below, so both trailing and justification-block-above annotation
    // styles work. The reason text is mandatory.
    static const std::regex allow_re(
        R"(DETLINT-ALLOW\(([a-z0-9-]+)\)\s*:\s*\S)");
    const auto blank_code = [&](std::size_t ln) {
        return ln < file.code.size() &&
               file.code[ln].find_first_not_of(" \t") == std::string::npos;
    };
    for (std::size_t i = 0; i < file.comments.size(); ++i) {
        const std::string& comment = file.comments[i];
        auto begin = std::sregex_iterator(comment.begin(), comment.end(), allow_re);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            file.allows.emplace(static_cast<int>(i), (*it)[1].str());
            std::size_t j = i + 1;
            while (blank_code(j)) ++j;
            file.allows.emplace(static_cast<int>(j), (*it)[1].str());
        }
    }
    return file;
}

// --- Small lexical helpers -------------------------------------------------

bool ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Offset just past the matching closer for the opener at `open` ('(' or
/// '<' or '{'); npos when unbalanced. Angle balancing is good enough for
/// template argument lists (no comparison operators inside ours).
std::size_t balance(const std::string& text, std::size_t open, char lhs, char rhs)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == lhs) ++depth;
        else if (text[i] == rhs && --depth == 0) return i + 1;
    }
    return std::string::npos;
}

std::size_t skip_ws(const std::string& text, std::size_t i)
{
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    return i;
}

std::string read_ident(const std::string& text, std::size_t i)
{
    std::size_t end = i;
    while (end < text.size() && ident_char(text[end])) ++end;
    return text.substr(i, end - i);
}

/// Split a call argument list on top-level commas.
std::vector<std::string> split_args(const std::string& args)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string cur;
    for (const char c : args) {
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        if (c == ',' && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    for (auto& a : out) {
        const std::size_t b = a.find_first_not_of(" \t\n");
        const std::size_t e = a.find_last_not_of(" \t\n");
        a = b == std::string::npos ? std::string() : a.substr(b, e - b + 1);
    }
    return out;
}

struct reporter {
    const source_file& file;
    const std::string check;
    std::vector<finding>& out;
    /// Set by checks with a sanctioned-module path allowlist (wall-clock +
    /// obs/clock.*): every finding in the file reports as suppressed.
    bool path_exempt = false;

    void at_line(int line0, std::string message) const
    {
        finding f;
        f.file = file.path;
        f.line = line0 + 1;
        f.check = check;
        f.message = std::move(message);
        f.suppressed = path_exempt || file.allows.count({line0, check}) > 0;
        out.push_back(std::move(f));
    }
    void at_offset(std::size_t offset, std::string message) const
    {
        at_line(file.line_of[std::min(offset, file.joined.size())],
                std::move(message));
    }
};

// --- Check: unordered-iteration -------------------------------------------

/// Variables (locals and members) declared with an unordered container type
/// in this file, with the declaration's offset.
std::vector<std::pair<std::string, std::size_t>> unordered_vars(
    const source_file& file)
{
    std::vector<std::pair<std::string, std::size_t>> vars;
    static const std::regex decl_re(R"((?:std::)?unordered_(?:map|set)\s*<)");
    const std::string& text = file.joined;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), decl_re);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(it->position()) +
                                 static_cast<std::size_t>(it->length()) - 1;
        const std::size_t close = balance(text, open, '<', '>');
        if (close == std::string::npos) continue;
        std::size_t i = skip_ws(text, close);
        while (i < text.size() && (text[i] == '&' || text[i] == '*'))
            i = skip_ws(text, i + 1);
        const std::string name = read_ident(text, i);
        if (!name.empty() && !std::isdigit(static_cast<unsigned char>(name[0])))
            vars.emplace_back(name, static_cast<std::size_t>(it->position()));
    }
    return vars;
}

void check_unordered_iteration(const source_file& file,
                               std::vector<finding>& out)
{
    const reporter report{file, "unordered-iteration", out};
    std::set<std::string> seen;
    for (const auto& [var, decl_offset] : unordered_vars(file)) {
        // The declaration itself is a finding: unordered containers are
        // admitted only with a stated proof that iteration order cannot
        // leak (lookup-only use), via DETLINT-ALLOW.
        report.at_offset(
            decl_offset,
            "unordered container '" + var +
                "' declared: prove the use is lookup-only (iteration order "
                "never reaches results) with a DETLINT-ALLOW, or use an "
                "ordered/indexed structure");
        if (!seen.insert(var).second) continue;
        // Range-for over the container (possibly member-qualified).
        const std::regex range_re("for\\s*\\([^;)]*:[^;)]*\\b" + var +
                                  "\\s*\\)");
        // Explicit iterator walk. `.end()` alone is the find-sentinel
        // compare and stays legal; iteration starts at some begin().
        const std::regex iter_re("\\b" + var +
                                 "\\s*\\.\\s*c?r?begin\\s*\\(");
        const std::string& text = file.joined;
        for (auto it = std::sregex_iterator(text.begin(), text.end(), range_re);
             it != std::sregex_iterator(); ++it)
            report.at_offset(
                static_cast<std::size_t>(it->position()),
                "range-for over unordered container '" + var +
                    "': iteration order is implementation-defined and leaks "
                    "into anything order-sensitive; iterate a sorted/indexed "
                    "view instead");
        for (auto it = std::sregex_iterator(text.begin(), text.end(), iter_re);
             it != std::sregex_iterator(); ++it)
            report.at_offset(
                static_cast<std::size_t>(it->position()),
                "iterator walk over unordered container '" + var +
                    "': iteration order is implementation-defined; iterate a "
                    "sorted/indexed view instead");
    }
}

// --- Check: raw-rng --------------------------------------------------------

void check_raw_rng(const source_file& file, std::vector<finding>& out)
{
    const reporter report{file, "raw-rng", out};
    struct pattern {
        const char* re;
        const char* what;
    };
    static const pattern patterns[] = {
        {R"((^|[^:.\w])(?:std\s*::\s*)?rand\s*\()", "rand()"},
        {R"((^|[^:.\w])(?:std\s*::\s*)?srand\s*\()", "srand()"},
        {R"((^|[^:.\w])(?:std\s*::\s*)?drand48\s*\()", "drand48()"},
        {R"(\brandom_device\b)", "std::random_device"},
        {R"(\bmt19937(_64)?\b)", "std::mt19937"},
        {R"(\bminstd_rand0?\b)", "std::minstd_rand"},
        {R"(\bdefault_random_engine\b)", "std::default_random_engine"},
        {R"(\branlux\d+\b)", "std::ranlux"},
        {R"((^|[^:.\w])(?:std\s*::\s*)?time\s*\(\s*(0|NULL|nullptr)?\s*\))",
         "time(NULL)-style seeding"},
    };
    const std::string& text = file.joined;
    for (const pattern& p : patterns) {
        const std::regex re(p.re);
        for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
             it != std::sregex_iterator(); ++it)
            report.at_offset(
                static_cast<std::size_t>(it->position()),
                std::string(p.what) +
                    ": randomness must flow through ssplane::rng (util/rng) "
                    "so every draw reproduces from the experiment seed");
    }
}

// --- Check: wall-clock -----------------------------------------------------

/// The one sanctioned wall-clock module: `obs/clock.{h,cpp}` quarantines
/// every timing read of the instrumentation subsystem (span timestamps feed
/// traces, never simulation results). Findings there are reported as
/// suppressed — visible under --include-suppressed, but not failures. The
/// suffix match is deliberately narrow: a `clock.cpp` anywhere else, or any
/// other file under obs/, still fires.
bool wall_clock_sanctioned(const std::string& path)
{
    static const char* const sanctioned[] = {"obs/clock.h", "obs/clock.cpp"};
    for (const char* suffix_cstr : sanctioned) {
        const std::string_view suffix(suffix_cstr);
        if (path.size() < suffix.size()) continue;
        if (path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        // Must be a whole path segment: reject "blobs/clock.cpp".
        const std::size_t at = path.size() - suffix.size();
        if (at == 0 || path[at - 1] == '/') return true;
    }
    return false;
}

void check_wall_clock(const source_file& file, std::vector<finding>& out)
{
    reporter report{file, "wall-clock", out};
    report.path_exempt = wall_clock_sanctioned(file.path);
    struct pattern {
        const char* re;
        const char* what;
    };
    static const pattern patterns[] = {
        {R"(\b(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\()",
         "std::chrono clock read"},
        {R"((^|[^:.\w])(?:std\s*::\s*)?clock\s*\(\s*\))", "clock()"},
        {R"(\bgettimeofday\s*\()", "gettimeofday()"},
        {R"((^|[^:.\w])(?:std\s*::\s*)?(localtime|gmtime)\s*\()",
         "wall-calendar read"},
    };
    const std::string& text = file.joined;
    for (const pattern& p : patterns) {
        const std::regex re(p.re);
        for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
             it != std::sregex_iterator(); ++it)
            report.at_offset(
                static_cast<std::size_t>(it->position()),
                std::string(p.what) +
                    ": simulation results must depend only on the scenario "
                    "epoch, never on wall-clock time");
    }
}

// --- Check: parallel-accumulation -----------------------------------------

/// Extents (offset ranges) of parallel_for / parallel_map call argument
/// lists in `file`.
std::vector<std::pair<std::size_t, std::size_t>> parallel_extents(
    const source_file& file)
{
    std::vector<std::pair<std::size_t, std::size_t>> extents;
    static const std::regex call_re(R"(\bparallel_(?:for|map))");
    const std::string& text = file.joined;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), call_re);
         it != std::sregex_iterator(); ++it) {
        std::size_t i = static_cast<std::size_t>(it->position()) +
                        static_cast<std::size_t>(it->length());
        i = skip_ws(text, i);
        if (i < text.size() && text[i] == '<') { // parallel_map<T>(...)
            i = balance(text, i, '<', '>');
            if (i == std::string::npos) continue;
            i = skip_ws(text, i);
        }
        if (i >= text.size() || text[i] != '(') continue; // declaration etc.
        const std::size_t close = balance(text, i, '(', ')');
        if (close == std::string::npos) continue;
        extents.emplace_back(i + 1, close - 1);
    }
    return extents;
}

/// True when `name` is declared inside `extent` (a lambda-local variable):
/// some type-ish token directly precedes it and a declarator terminator
/// follows.
bool declared_inside(const std::string& extent, const std::string& name)
{
    const std::regex decl_re(
        "[A-Za-z_>\\]][&*\\s]+(?:const\\s+)?" + name + "\\s*[=;{]");
    return std::regex_search(extent, decl_re);
}

void check_parallel_accumulation(const source_file& file,
                                 std::vector<finding>& out)
{
    const reporter report{file, "parallel-accumulation", out};
    const std::string& text = file.joined;
    for (const auto& [begin, end] : parallel_extents(file)) {
        const std::string extent = text.substr(begin, end - begin);
        // Only by-reference captures can reach enclosing-scope state.
        if (extent.find("[&") == std::string::npos &&
            !std::regex_search(extent, std::regex(R"(\[[^\]]*&)")))
            continue;
        static const std::regex acc_re(R"((\+=|-=|\*=|/=))");
        for (auto it = std::sregex_iterator(extent.begin(), extent.end(), acc_re);
             it != std::sregex_iterator(); ++it) {
            // Walk left from the operator to recover the assigned lvalue.
            std::size_t pos = static_cast<std::size_t>(it->position());
            while (pos > 0 && std::isspace(static_cast<unsigned char>(
                                  extent[pos - 1])))
                --pos;
            std::size_t lv_end = pos;
            while (pos > 0 && (ident_char(extent[pos - 1]) ||
                               extent[pos - 1] == '.'))
                --pos;
            const std::string lvalue = extent.substr(pos, lv_end - pos);
            if (lvalue.empty() || !ident_char(lvalue[0])) continue;
            // Subscripted targets (out[i], slots[begin / chunk].x) are the
            // blessed per-index / per-chunk slot pattern.
            if (pos > 0 && extent[pos - 1] == ']') continue;
            const std::string base = lvalue.substr(0, lvalue.find('.'));
            if (declared_inside(extent, base)) continue;
            report.at_offset(
                begin + static_cast<std::size_t>(it->position()),
                "accumulation into '" + base +
                    "' captured by reference in a parallel body: racy, and "
                    "the floating-point reduction order depends on thread "
                    "timing; reduce into per-chunk partials combined in "
                    "chunk order instead");
        }
    }
}

// --- Check: ref-capture-task ----------------------------------------------

void check_ref_capture_task(const source_file& file, std::vector<finding>& out)
{
    const reporter report{file, "ref-capture-task", out};
    const std::string& text = file.joined;
    static const std::regex task_re(
        R"((?:\.|->)\s*(?:submit|run)\s*\(|std::thread(?:\s+\w+)?\s*[({])");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), task_re);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open =
            text.find_first_of("({", static_cast<std::size_t>(it->position()) +
                                         static_cast<std::size_t>(it->length()) -
                                         1);
        if (open == std::string::npos) continue;
        const char lhs = text[open];
        const std::size_t close =
            balance(text, open, lhs, lhs == '(' ? ')' : '}');
        if (close == std::string::npos) continue;
        const std::string extent = text.substr(open + 1, close - open - 2);
        static const std::regex capture_re(R"(\[([^\]\[]*)\]\s*[({])");
        for (auto cap = std::sregex_iterator(extent.begin(), extent.end(),
                                             capture_re);
             cap != std::sregex_iterator(); ++cap) {
            if ((*cap)[1].str().find('&') == std::string::npos) continue;
            report.at_offset(
                open + 1 + static_cast<std::size_t>(cap->position()),
                "by-reference capture [" + (*cap)[1].str() +
                    "] in a task handed to a detached task primitive: "
                    "nothing but a join orders it against the referent's "
                    "scope; state the synchronization story or capture by "
                    "value");
        }
    }
}

// --- Check: split-purpose-collision ---------------------------------------

struct purpose_site {
    std::string name; ///< Constant name, or "<literal>" for inline numbers.
    std::string file;
    int line0 = 0;
};

void check_split_purpose(const std::vector<source_file>& files,
                         std::vector<finding>& out)
{
    std::map<unsigned long long, std::vector<purpose_site>> by_value;
    std::map<std::string, unsigned long long> named;

    static const std::regex decl_re(
        R"(constexpr\s+(?:std::)?uint64_t\s+(\w*purpose\w*)\s*=\s*(\d+))");
    for (const source_file& file : files) {
        const std::string& text = file.joined;
        for (auto it = std::sregex_iterator(text.begin(), text.end(), decl_re);
             it != std::sregex_iterator(); ++it) {
            const unsigned long long value = std::stoull((*it)[2].str());
            purpose_site site;
            site.name = (*it)[1].str();
            site.file = file.path;
            site.line0 =
                file.line_of[static_cast<std::size_t>(it->position())];
            by_value[value].push_back(site);
            named[site.name] = value;
        }
    }

    // Literal purposes passed straight into rng::split(seed, purpose, ...).
    static const std::regex call_re(R"(\brng\s*::\s*split\s*\()");
    for (const source_file& file : files) {
        const std::string& text = file.joined;
        for (auto it = std::sregex_iterator(text.begin(), text.end(), call_re);
             it != std::sregex_iterator(); ++it) {
            const std::size_t open = static_cast<std::size_t>(it->position()) +
                                     static_cast<std::size_t>(it->length()) - 1;
            const std::size_t close = balance(text, open, '(', ')');
            if (close == std::string::npos) continue;
            const auto args =
                split_args(text.substr(open + 1, close - open - 2));
            if (args.size() < 2) continue;
            const std::string& purpose = args[1];
            if (purpose.empty() ||
                !std::all_of(purpose.begin(), purpose.end(), [](char c) {
                    return std::isdigit(static_cast<unsigned char>(c));
                }))
                continue;
            purpose_site site;
            site.name = "<literal>";
            site.file = file.path;
            site.line0 =
                file.line_of[static_cast<std::size_t>(it->position())];
            by_value[std::stoull(purpose)].push_back(site);
        }
    }

    for (const auto& [value, sites] : by_value) {
        std::set<std::string> names;
        std::set<std::string> literal_files;
        for (const purpose_site& site : sites) {
            if (site.name == "<literal>")
                literal_files.insert(site.file);
            else
                names.insert(site.name);
        }
        // Collision: two different named constants, a literal aliasing a
        // named constant, or raw literals repeated across files. The same
        // constant reused at many call sites is the intended pattern.
        const bool collision = names.size() > 1 ||
                               (!names.empty() && !literal_files.empty()) ||
                               literal_files.size() > 1;
        if (!collision) continue;
        for (const purpose_site& site : sites) {
            // Reconstruct a reporter against the right file.
            finding f;
            f.file = site.file;
            f.line = site.line0 + 1;
            f.check = "split-purpose-collision";
            f.message = "rng::split purpose value " + std::to_string(value) +
                        " is claimed by multiple streams (" +
                        (site.name == "<literal>" ? "inline literal"
                                                  : "'" + site.name + "'") +
                        " among them): identical purposes produce identical "
                        "sub-streams, silently correlating draws";
            // Suppression lives with the file's allow table.
            for (const source_file& sf : files)
                if (sf.path == site.file)
                    f.suppressed =
                        sf.allows.count({site.line0, f.check}) > 0;
            out.push_back(std::move(f));
        }
    }
}

// --- Check: validate-coverage ---------------------------------------------

struct struct_def {
    std::string name;
    const source_file* file = nullptr;
    /// field name -> 0-based line of its declaration.
    std::vector<std::pair<std::string, int>> fields;
};

/// Fields of `struct name { ... };` found in `file` (first definition wins).
/// Lexical: depth-1 statements that end in ';' and carry no parentheses
/// before any '=' are data members; the declarator name is the last
/// identifier before '=', '{', '[' or ';'.
bool parse_struct(const source_file& file, const std::string& name,
                  struct_def& out)
{
    const std::regex def_re("\\bstruct\\s+" + name + "\\s*(?::[^{;]*)?\\{");
    std::smatch m;
    if (!std::regex_search(file.joined, m, def_re)) return false;
    const std::size_t open = static_cast<std::size_t>(m.position()) +
                             static_cast<std::size_t>(m.length()) - 1;
    const std::size_t close = balance(file.joined, open, '{', '}');
    if (close == std::string::npos) return false;

    out.name = name;
    out.file = &file;
    const std::string& text = file.joined;
    int depth = 0;
    bool in_fn_body = false; // a depth-0 '{' preceded by '(' in the stmt
    std::string stmt;
    std::size_t stmt_begin = open + 1;

    const auto emit_field = [&](const std::string& s, std::size_t begin_off) {
        // Member functions / usings / nested types are not fields.
        const std::size_t eq = s.find('=');
        const std::string head = eq == std::string::npos ? s : s.substr(0, eq);
        const bool fn = head.find('(') != std::string::npos;
        const bool skip =
            fn ||
            std::regex_search(
                s,
                std::regex(
                    R"(\b(using|typedef|static|friend|enum|struct|class|template|public|private|protected|operator)\b)"));
        if (skip) return;
        // Declarator name: last identifier of the head, before any
        // initializer brace or array bound.
        std::string h = head;
        const std::size_t brace = h.find('{');
        if (brace != std::string::npos) h = h.substr(0, brace);
        const std::size_t bracket = h.find('[');
        if (bracket != std::string::npos) h = h.substr(0, bracket);
        const std::size_t e = h.find_last_not_of(" \t\n");
        if (e == std::string::npos || !ident_char(h[e])) return;
        std::size_t b = e;
        while (b > 0 && ident_char(h[b - 1])) --b;
        const std::string field = h.substr(b, e - b + 1);
        // A lone identifier is a stray token, not `T name`.
        const bool has_type =
            b > 0 && h.find_last_not_of(" \t\n", b - 1) != std::string::npos;
        if (has_type && !std::isdigit(static_cast<unsigned char>(field[0])))
            out.fields.emplace_back(
                field, file.line_of[std::min(begin_off, file.joined.size())]);
    };

    for (std::size_t i = open + 1; i + 1 < close; ++i) {
        const char c = text[i];
        if (c == '{' || c == '(') {
            if (depth == 0) {
                // `name(args) ... {` opens a method body; `name{init}` and
                // `= {...}` are initializers and stay part of the field.
                if (c == '{' && stmt.find('(') != std::string::npos)
                    in_fn_body = true;
                stmt.push_back(c);
            }
            ++depth;
            continue;
        }
        if (c == '}' || c == ')') {
            --depth;
            if (depth < 0) break;
            if (depth == 0) {
                if (c == '}' && in_fn_body) {
                    // End of an inline method: discard it wholesale.
                    in_fn_body = false;
                    stmt.clear();
                    stmt_begin = i + 1;
                } else {
                    stmt.push_back(c);
                }
            }
            continue;
        }
        if (depth != 0) continue;
        if (c == ';') {
            emit_field(stmt, stmt_begin);
            stmt.clear();
            stmt_begin = i + 1;
            continue;
        }
        if (stmt.empty() && std::isspace(static_cast<unsigned char>(c))) {
            stmt_begin = i + 1; // first non-ws char owns the line number
            continue;
        }
        stmt.push_back(c);
    }
    return true;
}

/// Bodies of every `validate(const Name&...)` definition across `files`,
/// plus (one level deep) the bodies of same-file helper functions those
/// bodies call — validate() commonly factors shared arms out.
std::string validate_bodies(const std::vector<source_file>& files,
                            const std::string& name)
{
    std::string bodies;
    const std::regex def_re(
        "void\\s+validate\\s*\\(\\s*const\\s+(?:[\\w:]*::)?" + name +
        "\\s*&[^)]*\\)\\s*\\{");
    for (const source_file& file : files) {
        const std::string& text = file.joined;
        for (auto it = std::sregex_iterator(text.begin(), text.end(), def_re);
             it != std::sregex_iterator(); ++it) {
            const std::size_t open = static_cast<std::size_t>(it->position()) +
                                     static_cast<std::size_t>(it->length()) - 1;
            const std::size_t close = balance(text, open, '{', '}');
            if (close == std::string::npos) continue;
            const std::string body = text.substr(open, close - open);
            bodies += body;
            // Helper hop: called identifiers defined in the same file.
            static const std::regex call_re(R"((\w+)\s*\()");
            for (auto call = std::sregex_iterator(body.begin(), body.end(),
                                                  call_re);
                 call != std::sregex_iterator(); ++call) {
                const std::string callee = (*call)[1].str();
                if (callee == "validate" || callee == "expects") continue;
                const std::regex helper_re("\\b" + callee +
                                           "\\s*\\([^;{)]*\\)\\s*\\{");
                std::smatch hm;
                if (!std::regex_search(text, hm, helper_re)) continue;
                const std::size_t hopen =
                    static_cast<std::size_t>(hm.position()) +
                    static_cast<std::size_t>(hm.length()) - 1;
                const std::size_t hclose = balance(text, hopen, '{', '}');
                if (hclose != std::string::npos)
                    bodies += text.substr(hopen, hclose - hopen);
            }
        }
    }
    return bodies;
}

void check_validate_coverage(const std::vector<source_file>& files,
                             std::vector<finding>& out)
{
    // Structs under contract: any T with a `void validate(const T&` seen
    // anywhere in the linted set.
    std::set<std::string> contracted;
    static const std::regex sig_re(
        R"(void\s+validate\s*\(\s*const\s+([\w:]+)\s*&)");
    for (const source_file& file : files) {
        const std::string& text = file.joined;
        for (auto it = std::sregex_iterator(text.begin(), text.end(), sig_re);
             it != std::sregex_iterator(); ++it) {
            std::string name = (*it)[1].str();
            const std::size_t colon = name.rfind("::");
            if (colon != std::string::npos) name = name.substr(colon + 2);
            contracted.insert(name);
        }
    }

    for (const std::string& name : contracted) {
        struct_def def;
        bool found = false;
        for (const source_file& file : files)
            if (parse_struct(file, name, def)) {
                found = true;
                break;
            }
        if (!found) continue; // struct defined outside the linted set
        const std::string bodies = validate_bodies(files, name);
        if (bodies.empty()) continue; // declaration-only in the linted set
        for (const auto& [field, line0] : def.fields) {
            const std::regex mention("\\b" + field + "\\b");
            if (std::regex_search(bodies, mention)) continue;
            const reporter report{*def.file, "validate-coverage", out};
            report.at_line(line0,
                           "field '" + field + "' of " + name +
                               " is never mentioned by any validate() "
                               "overload: new knobs must be validated or "
                               "explicitly exempted");
        }
    }
}

// --- Check: unused-public-api ---------------------------------------------

/// One token of a scrubbed file: a run of identifier characters (a number
/// splits into harmless pieces), or one punctuation character, except that
/// `::` and `->` stay whole (so `->` never reads as a closing angle).
/// `directive` marks the tokens of preprocessor lines.
struct token {
    std::string text;
    std::size_t offset = 0;
    bool directive = false;
    bool ident() const
    {
        return std::isalpha(static_cast<unsigned char>(text[0])) ||
               text[0] == '_';
    }
};

std::vector<token> tokenize(const source_file& file)
{
    std::vector<token> out;
    const std::string& text = file.joined;
    bool directive = false;   // inside a preprocessor line
    bool line_start = true;   // only whitespace so far on this line
    for (std::size_t i = 0; i < text.size();) {
        const char c = text[i];
        if (c == '\n') {
            // A directive continues past a line that ends in a backslash.
            directive = directive && i > 0 && text[i - 1] == '\\';
            line_start = true;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (line_start && c == '#') directive = true;
        line_start = false;
        std::size_t end = i + 1;
        if (ident_char(c)) {
            while (end < text.size() && ident_char(text[end])) ++end;
        } else if ((c == ':' && text.compare(i, 2, "::") == 0) ||
                   (c == '-' && text.compare(i, 2, "->") == 0)) {
            end = i + 2;
        }
        out.push_back({text.substr(i, end - i), i, directive});
        i = end;
    }
    return out;
}

/// A function declarator at namespace or class scope: the declaration
/// statement's first token, the declarator name, and the body of a
/// definition (empty range for a declaration).
struct api_site {
    std::string name;
    std::size_t stmt_offset = 0;
    std::size_t name_offset = 0;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
};

/// Finds the function declarations and definitions of one file by walking
/// its namespace and class scopes: statements there are declarations by the
/// grammar, and every function body, initializer and macro is code whose
/// identifiers are uses. Lexical, like the other checks; it errs toward
/// recording nothing (a missed declaration never fires).
class api_parser {
public:
    explicit api_parser(const std::vector<token>& all)
    {
        for (const token& t : all)
            if (!t.directive) toks_.push_back(t);
        match_.assign(toks_.size(), toks_.size());
        std::vector<std::size_t> open;
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const std::string& t = toks_[i].text;
            if (t == "(" || t == "[" || t == "{") {
                open.push_back(i);
            } else if ((t == ")" || t == "]" || t == "}") && !open.empty()) {
                match_[open.back()] = i;
                open.pop_back();
            }
        }
        scope(0, toks_.size(), "");
    }

    std::vector<api_site> sites;

private:
    struct head {
        enum { other, name_space, class_body, function } kind = other;
        std::string class_name;
        std::size_t first = 0;  ///< First token after any template header.
        std::size_t paren = 0;  ///< The parameter list's '('.
        bool named = false;     ///< toks_[paren - 1] names a function.
    };

    bool is(std::size_t i, const char* text) const
    {
        return i < toks_.size() && toks_[i].text == text;
    }

    /// Index just past the closer of the opener at `i`.
    std::size_t skip(std::size_t i) const
    {
        return std::min(match_[i], toks_.size() - 1) + 1;
    }

    /// Index just past the `>` closing the `<` at `i`, skipping bracketed
    /// groups (default template arguments may call functions).
    std::size_t skip_angles(std::size_t i, std::size_t end) const
    {
        int depth = 0;
        while (i < end) {
            const std::string& t = toks_[i].text;
            if (t == "(" || t == "[" || t == "{") {
                i = skip(i);
                continue;
            }
            if (t == "<") ++depth;
            if (t == ">" && --depth == 0) return i + 1;
            ++i;
        }
        return end;
    }

    head analyze(std::size_t b, std::size_t e, const std::string& cls) const
    {
        static const std::set<std::string> not_a_name = {
            "alignas", "alignof", "auto", "bool", "char", "decltype", "double",
            "float", "int", "long", "noexcept", "requires", "return", "short",
            "signed", "sizeof", "static_assert", "throw", "unsigned", "void"};
        head h;
        std::size_t k = b;
        while (is(k, "template"))
            k = is(k + 1, "<") ? skip_angles(k + 1, e) : k + 1;
        const bool linkage = is(k, "extern") && is(k + 1, "\""); // extern "C"
        if (linkage) k += 3;
        h.first = k;
        if ((k == e && linkage) || is(k, "namespace") ||
            (is(k, "inline") && is(k + 1, "namespace")))
            h.kind = head::name_space;
        if (k == e || h.kind == head::name_space) return h;
        int angle = 0;
        for (std::size_t j = k; j < e; ++j) {
            const std::string& t = toks_[j].text;
            if (t == "typedef" || t == "using" || t == "enum" || t == "=")
                return h;
            if (t == "class" || t == "struct" || t == "union") {
                h.kind = head::class_body;
                for (std::size_t n = j + 1; n < e; ++n) {
                    if (is(n, "(") || is(n, "[")) {
                        n = skip(n) - 1;
                    } else if (toks_[n].ident() && !is(n, "alignas")) {
                        h.class_name = toks_[n].text;
                        break;
                    }
                }
                return h;
            }
            if (t == "operator") { // no name to record; find its parameters
                std::size_t p = is(j + 1, "(") ? skip(j + 1) : j + 1;
                while (p < e && !is(p, "(")) ++p;
                if (p == e) return h;
                h.kind = head::function;
                h.paren = p;
                return h;
            }
            if (t == "<" && j > k && toks_[j - 1].ident()) ++angle;
            if (t == ">" && angle > 0) --angle;
            if (t == "[" || t == "{" || (t == "(" && angle > 0)) {
                j = skip(j) - 1;
                continue;
            }
            if (t != "(") continue;
            h.kind = head::function;
            h.paren = j;
            if (j == k || !toks_[j - 1].ident() ||
                not_a_name.count(toks_[j - 1].text))
                return h;
            const std::string& name = toks_[j - 1].text;
            std::size_t q = j - 1; // start of the qualified name
            while (q >= k + 2 && is(q - 1, "::") && toks_[q - 2].ident()) {
                if (toks_[q - 2].text == name) return h; // out-of-line ctor
                q -= 2;
            }
            h.named = name != cls && !(q > k && is(q - 1, "~")); // ctor, dtor
            return h;
        }
        return h;
    }

    void record(const head& h, std::size_t body)
    {
        if (h.kind != head::function || !h.named) return;
        api_site site;
        site.name = toks_[h.paren - 1].text;
        site.stmt_offset = toks_[h.first].offset;
        site.name_offset = toks_[h.paren - 1].offset;
        if (body < toks_.size()) {
            site.body_begin = toks_[body].offset;
            site.body_end = toks_[std::min(match_[body], toks_.size() - 1)].offset;
        }
        sites.push_back(std::move(site));
    }

    void scope(std::size_t i, std::size_t end, const std::string& cls)
    {
        static const std::set<std::string> access = {"public", "protected",
                                                     "private"};
        std::size_t start = i;
        while (i < end) {
            const std::string& t = toks_[i].text;
            if (t == ";") {
                record(analyze(start, i, cls), toks_.size());
                start = ++i;
            } else if (t == "(" || t == "[") {
                i = skip(i);
            } else if (t == ":" && i == start + 1 && access.count(toks_[start].text)) {
                start = ++i;
            } else if (t == "}") {
                start = ++i;
            } else if (t != "{") {
                ++i;
            } else {
                const std::size_t after = skip(i);
                const head h = analyze(start, i, cls);
                if (h.kind == head::name_space) {
                    scope(i + 1, after - 1, "");
                    start = after;
                } else if (h.kind == head::class_body) {
                    scope(i + 1, after - 1, h.class_name);
                } else if (h.kind == head::function) {
                    record(h, i);
                    start = after;
                }
                i = after;
            }
        }
    }

    std::vector<token> toks_;
    std::vector<std::size_t> match_;
};

bool is_header(const std::string& path)
{
    const std::string ext = std::filesystem::path(path).extension().string();
    return ext == ".h" || ext == ".hpp";
}

void check_unused_public_api(const std::vector<source_file>& files,
                             std::vector<finding>& out)
{
    // Pass 1: every declarator, and every identifier that is a use: not a
    // declarator name, and not inside a body of a definition of that name.
    std::vector<std::vector<api_site>> sites(files.size());
    std::set<std::string> used;
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::vector<token> toks = tokenize(files[f]);
        sites[f] = api_parser(toks).sites;
        std::set<std::size_t> declarators;
        std::multimap<std::string, std::pair<std::size_t, std::size_t>> bodies;
        for (const api_site& s : sites[f]) {
            declarators.insert(s.name_offset);
            if (s.body_end > s.body_begin)
                bodies.emplace(s.name, std::make_pair(s.body_begin, s.body_end));
        }
        for (const token& t : toks) {
            if (!t.ident() || declarators.count(t.offset)) continue;
            const auto [lo, hi] = bodies.equal_range(t.text);
            const bool own_body = std::any_of(lo, hi, [&](const auto& b) {
                return b.second.first < t.offset && t.offset < b.second.second;
            });
            if (!own_body) used.insert(t.text);
        }
    }

    // Pass 2: a header declarator whose name has no use is a finding. An
    // allow covers it from any line between the statement and the name.
    for (std::size_t f = 0; f < files.size(); ++f) {
        const source_file& file = files[f];
        if (!is_header(file.path)) continue;
        for (const api_site& s : sites[f]) {
            if (used.count(s.name)) continue;
            finding found;
            found.file = file.path;
            found.line = file.line_of[s.name_offset] + 1;
            found.check = "unused-public-api";
            found.message = "'" + s.name + "' is declared in a header, but no "
                            "linted file calls it outside its own declarations "
                            "and definitions: delete it, move it test-side, or "
                            "state why a test must observe it";
            for (int l = file.line_of[s.stmt_offset]; l < found.line; ++l)
                found.suppressed =
                    found.suppressed || file.allows.count({l, found.check}) > 0;
            out.push_back(std::move(found));
        }
    }
}

// --- Driver ----------------------------------------------------------------

std::vector<std::filesystem::path> gather(const std::vector<std::string>& paths)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const std::string& p : paths) {
        const fs::path path(p);
        if (fs::is_directory(path)) {
            for (const auto& entry : fs::recursive_directory_iterator(path)) {
                if (!entry.is_regular_file()) continue;
                const std::string ext = entry.path().extension().string();
                if (ext == ".cpp" || ext == ".h" || ext == ".hpp" ||
                    ext == ".cc" || ext == ".cxx")
                    files.push_back(entry.path());
            }
        } else if (fs::is_regular_file(path)) {
            files.push_back(path);
        } else {
            throw std::runtime_error("detlint: no such file or directory: " + p);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

} // namespace

const std::vector<check_info>& all_checks()
{
    static const std::vector<check_info> checks = {
        {"unordered-iteration",
         "iteration over std::unordered_map/set (order is "
         "implementation-defined)"},
        {"raw-rng", "randomness outside util/rng (rand, random_device, "
                    "mt19937, time seeding)"},
        {"wall-clock", "wall-clock reads in simulation code (chrono ::now, "
                       "clock, gettimeofday); obs/clock.{h,cpp} is the "
                       "sanctioned instrumentation-timing module"},
        {"parallel-accumulation",
         "compound assignment to by-ref-captured outer state inside "
         "parallel_for/parallel_map bodies"},
        {"ref-capture-task",
         "by-reference lambda capture handed to thread_pool::submit, "
         "task_group::run or std::thread"},
        {"split-purpose-collision",
         "two rng::split purpose streams sharing one value"},
        {"validate-coverage",
         "options/scenario struct fields missing from every validate() "
         "overload"},
        {"unused-public-api",
         "functions declared in a header that no linted file calls outside "
         "their own declarations and definitions",
         /*opt_in=*/true},
    };
    return checks;
}

std::vector<finding> run(const std::vector<std::string>& paths,
                         const options& opts)
{
    // An opt-in check runs only when named: its verdict depends on which
    // callers the linted set holds.
    const auto enabled = [&](const char* id) {
        const auto& checks = all_checks();
        const bool opt_in = std::any_of(
            checks.begin(), checks.end(),
            [&](const check_info& c) { return c.id == id && c.opt_in; });
        return opts.checks.count(id) > 0 || (opts.checks.empty() && !opt_in);
    };

    std::vector<source_file> files;
    for (const auto& path : gather(paths)) files.push_back(load(path));

    std::vector<finding> findings;
    for (const source_file& file : files) {
        if (enabled("unordered-iteration"))
            check_unordered_iteration(file, findings);
        if (enabled("raw-rng")) check_raw_rng(file, findings);
        if (enabled("wall-clock")) check_wall_clock(file, findings);
        if (enabled("parallel-accumulation"))
            check_parallel_accumulation(file, findings);
        if (enabled("ref-capture-task")) check_ref_capture_task(file, findings);
    }
    if (enabled("split-purpose-collision"))
        check_split_purpose(files, findings);
    if (enabled("validate-coverage")) check_validate_coverage(files, findings);
    if (enabled("unused-public-api")) check_unused_public_api(files, findings);

    std::sort(findings.begin(), findings.end(),
              [](const finding& a, const finding& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  return a.check < b.check;
              });
    return findings;
}

} // namespace detlint
