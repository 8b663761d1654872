// detlint CLI: lint files/directories against the determinism contract.
//
//   detlint [--check=id[,id...]] [--include-suppressed] [--list-checks] paths...
//
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
#include "detlint.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

void usage(std::FILE* out)
{
    std::fputs(
        "usage: detlint [--check=id[,id...]] [--include-suppressed]\n"
        "               [--list-checks] <file-or-directory>...\n"
        "\n"
        "Lints C++ sources against the ssplane determinism contract.\n"
        "Suppress a finding with a comment on its line or the line above:\n"
        "  // DETLINT-ALLOW(check-id): reason\n",
        out);
}

} // namespace

int main(int argc, char** argv)
{
    std::vector<std::string> paths;
    detlint::options opts;
    bool include_suppressed = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-checks") {
            for (const auto& check : detlint::all_checks())
                std::printf("%-24s %s%s\n", check.id.c_str(),
                            check.summary.c_str(),
                            check.opt_in ? " (runs only when named with --check)"
                                         : "");
            return 0;
        } else if (arg == "--include-suppressed") {
            include_suppressed = true;
        } else if (arg.rfind("--check=", 0) == 0) {
            std::string list = arg.substr(std::strlen("--check="));
            std::size_t begin = 0;
            while (begin <= list.size()) {
                const std::size_t comma = list.find(',', begin);
                const std::string id =
                    list.substr(begin, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - begin);
                if (!id.empty()) {
                    bool known = false;
                    for (const auto& check : detlint::all_checks())
                        known = known || check.id == id;
                    if (!known) {
                        std::fprintf(stderr, "detlint: unknown check '%s'\n",
                                     id.c_str());
                        return 2;
                    }
                    opts.checks.insert(id);
                }
                if (comma == std::string::npos) break;
                begin = comma + 1;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "detlint: unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        usage(stderr);
        return 2;
    }

    std::vector<detlint::finding> findings;
    try {
        findings = detlint::run(paths, opts);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
    }

    int unsuppressed = 0;
    int suppressed = 0;
    for (const auto& f : findings) {
        if (f.suppressed) {
            ++suppressed;
            if (!include_suppressed) continue;
        } else {
            ++unsuppressed;
        }
        std::printf("%s:%d: [%s]%s %s\n", f.file.c_str(), f.line,
                    f.check.c_str(), f.suppressed ? " (suppressed)" : "",
                    f.message.c_str());
    }
    std::printf("detlint: %d finding(s), %d suppressed\n", unsuppressed,
                suppressed);
    return unsuppressed > 0 ? 1 : 0;
}
