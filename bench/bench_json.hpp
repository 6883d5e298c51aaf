/**
 * @file
 * Machine-readable benchmark output. Each bench binary can mirror its
 * human-readable tables into a BENCH_<name>.json file so CI and scripts
 * can track throughput numbers across commits without parsing text
 * tables. The JSON value type itself lives in common/json.hpp (it is
 * shared with the compiler's CompileReport serialization); this header
 * adds the bench-specific file placement convention.
 *
 * Files land in $EHDL_BENCH_JSON_DIR when set, else the working
 * directory.
 */

#ifndef EHDL_BENCH_BENCH_JSON_HPP_
#define EHDL_BENCH_BENCH_JSON_HPP_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.hpp"

namespace ehdl::bench {

using ehdl::Json;

/** Path of @p file in $EHDL_BENCH_JSON_DIR (or the working directory). */
inline std::string
benchOutputPath(const std::string &file)
{
    const char *dir = std::getenv("EHDL_BENCH_JSON_DIR");
    return (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "") +
           file;
}

/**
 * Write @p root to BENCH_<name>.json in $EHDL_BENCH_JSON_DIR (or the
 * working directory) and report where it went.
 * @return true on success.
 */
inline bool
writeBenchJson(const std::string &name, const Json &root)
{
    const std::string path = benchOutputPath("BENCH_" + name + ".json");
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    const std::string text = root.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

}  // namespace ehdl::bench

#endif  // EHDL_BENCH_BENCH_JSON_HPP_
