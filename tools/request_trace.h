/**
 * @file
 * The request-trace format shared by pimserve and pimtune: one
 * request per line,
 *
 *   request function=sin method=llut elements=32768
 *   request function=exp method=llut elements=16384 log2-entries=12
 *   request function=sin method=cordic elements=4096 tenant=2
 *
 * Recognized request keys: function, method, elements, log2-entries,
 * interpolated (0|1), iterations, placement (wram|mram), tenant.
 * Blank lines and '#' comments are skipped.
 */

#ifndef TPL_TOOLS_REQUEST_TRACE_H
#define TPL_TOOLS_REQUEST_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "transpim/evaluator.h"
#include "transpim/reference.h"

namespace tpl {
namespace tools {

/** Parse a whole decimal/hex/octal string into @p out (< 2^32). */
bool parseU32(const std::string& text, uint32_t& out);

/** Parse a whole decimal/hex/octal string into @p out. */
bool parseU64(const std::string& text, uint64_t& out);

/** One parsed trace line. */
struct TraceRequest
{
    transpim::Function function = transpim::Function::Sin;
    transpim::MethodSpec spec;
    uint32_t elements = 0;
    uint64_t tenant = 0;
};

/** Most elements a trace file may carry in total. The CLIs hold every
 * request's inputs and outputs in host memory, 8 bytes per element,
 * so the cap keeps a replay under 512 MiB of buffers. */
constexpr uint64_t kMaxTraceElements = uint64_t{1} << 26;

/**
 * True iff a generated trace of @p requests requests, request i
 * carrying @p elementsOf(i) elements, stays within kMaxTraceElements.
 * Counts without building the trace and stops once past the cap, so
 * a hostile request count is rejected before anything is allocated.
 */
template <class ElementsOf>
bool
fitsTraceCap(uint32_t requests, ElementsOf elementsOf)
{
    uint64_t total = 0;
    for (uint32_t i = 0; i < requests; ++i) {
        total += elementsOf(i);
        if (total > kMaxTraceElements)
            return false;
    }
    return true;
}

/**
 * Read the trace file at @p path into @p trace. On a bad line, a
 * line that takes the trace past kMaxTraceElements, an unreadable
 * file or a file without requests, prints `<tool>: <path>:<line>:
 * <error>` (or `<tool>: <path>: ...`) to stderr and returns false;
 * the CLIs then exit with status 2.
 */
bool loadTrace(const char* tool, const std::string& path,
               std::vector<TraceRequest>& trace);

} // namespace tools
} // namespace tpl

#endif // TPL_TOOLS_REQUEST_TRACE_H
