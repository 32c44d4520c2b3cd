/**
 * @file
 * perfbench: run one benchmark workload and print its report,
 * then one JSON result line. Normally started by perfbench/run.py:
 *
 *   perfbench --workload suite_sweep --seed 1 --seconds 10 \
 *       --trace 0 --root <repo> --work-dir <scratch>
 *
 * Exits 0 with the JSON line last on stdout; exits 2 without a result
 * on bad arguments or when the workload cannot run at all.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hh"

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--root DIR] "
                 "[--work-dir DIR] [--git-sha SHA]\n",
                 msg);
    return 2;
}

bool
parseNumber(const std::string &text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            char *end = nullptr;
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end != '\0')
                return usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parseNumber(value, &number) || number < 0.0 ||
                number > 3600.0)
                return usage("--seconds takes a number in [0, 3600]");
            opts.seconds = number;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--root") {
            opts.root = value;
        } else if (flag == "--work-dir") {
            opts.workDir = value;
        } else if (flag == "--git-sha") {
            opts.gitSha = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (opts.workload.empty())
        return usage("--workload is required");

    perfbench::Output out;
    try {
        out = perfbench::run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    for (const auto &line : out.lines)
        std::printf("%s\n", line.c_str());
    std::printf("%s\n", perfbench::renderJson(out).c_str());
    return 0;
}
