/**
 * @file
 * Native AOT backend: renders each segment the engine can enter — the
 * pipeline's `hdl::StageOp`s over the spec's burst and checkpoint
 * boundaries, one function per entry stage — as straight-line C++
 * calling the primitives in
 * sim/aot/runtime.hpp, compiles it with the host toolchain into a
 * shared object under a cache directory, and `dlopen`s the result.
 *
 * The generated source is deterministic — a pure function of the
 * specialized pipeline (no timestamps, paths or pointer values) — so
 * it is snapshot-tested under tests/golden/ and its FNV-1a hash keys
 * the on-disk cache: recompiling the same program hits
 * `<cache>/ehdl_aot_v<abi>_<hash>.so` without invoking the compiler
 * again. The name carries `kAotAbiVersion`, so modules built against
 * another ABI are never picked up.
 *
 * Loading can fail for many environmental reasons (no compiler on
 * PATH, no dlopen, read-only filesystem, missing headers); every
 * failure is reported as a reason string and the engine falls back to
 * the portable backend, which needs no toolchain. Environment knobs:
 *
 *   EHDL_AOT_CXX             host compiler (default: the compiler that
 *                            built the simulator, then $CXX, then c++)
 *   EHDL_AOT_CACHE           cache directory (default: aot-cache)
 *   EHDL_AOT_DISABLE_NATIVE  force the portable fallback (set in
 *                            sanitizer CI, where mixing uninstrumented
 *                            dlopen'ed code into an instrumented
 *                            process is not worth it)
 */

#ifndef EHDL_SIM_AOT_NATIVE_HPP_
#define EHDL_SIM_AOT_NATIVE_HPP_

#include <memory>
#include <string>

#include "sim/aot/runtime.hpp"
#include "sim/aot/specialize.hpp"

namespace ehdl::sim::aot {

/**
 * Render the native segment functions as self-contained C++ (see file
 * comment; deterministic for a given pipeline).
 */
std::string generateNativeSource(const AotSpec &spec);

/** FNV-1a hash of the generated source (cache key, embedded in it). */
uint64_t sourceHash(const std::string &source);

/** A loaded (and cached) native module. */
class NativeModule
{
  public:
    ~NativeModule();

    NativeModule(const NativeModule &) = delete;
    NativeModule &operator=(const NativeModule &) = delete;

    const NativeModuleTable &table() const { return *table_; }
    /** Segment entry points, indexed by stage; null off entry stages. */
    const NativeStageFn *stages() const { return table_->stages; }
    /** Path of the shared object backing this module. */
    const std::string &path() const { return path_; }

  private:
    friend struct NativeLoader;
    NativeModule(void *handle, const NativeModuleTable *table,
                 std::string path)
        : handle_(handle), table_(table), path_(std::move(path))
    {
    }

    void *handle_ = nullptr;
    const NativeModuleTable *table_ = nullptr;
    std::string path_;
};

/** Result of a load attempt: a module or a human-readable reason. */
struct NativeLoadResult
{
    std::shared_ptr<NativeModule> module;
    std::string error;  ///< fallback reason when !module

    explicit operator bool() const { return module != nullptr; }
};

/**
 * Compile-or-reuse the native executor for @p spec. @p cache_dir of ""
 * selects $EHDL_AOT_CACHE, defaulting to "aot-cache". Thread-safe;
 * identical sources share one loaded module process-wide.
 */
NativeLoadResult loadNativeModule(const AotSpec &spec,
                                  const std::string &cache_dir = "");

}  // namespace ehdl::sim::aot

#endif  // EHDL_SIM_AOT_NATIVE_HPP_
