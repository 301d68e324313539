/**
 * @file
 * The access-trace text format.
 *
 * The paper itself remarks that "traces ... would be a better
 * predictor of the performance of the arrays in a real situation".
 * This module closes that loop with a deliberately simple text
 * format, one access per line:
 *
 *     when op offset units
 *
 * where `when` is the issue time in simulated ms (nondecreasing down
 * the file), `op` is `r` or `w`, `offset` is the starting data unit
 * and `units` the access length in stripe units. `#` starts a
 * comment; blank lines are ignored.
 *
 * The records are plain data: capturing them from a live Target and
 * replaying them through one is workload/trace_replay.hh's job.
 */

#ifndef PDDL_TRAFFIC_TRACE_HH
#define PDDL_TRAFFIC_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "array/request_mapper.hh"

namespace pddl {
namespace traffic {

/** One trace line: a logical access and its issue time. */
struct TraceRecord
{
    double when_ms = 0.0;
    AccessType type = AccessType::Read;
    int64_t unit = 0;
    int units = 1;

    bool
    operator==(const TraceRecord &o) const
    {
        return when_ms == o.when_ms && type == o.type &&
               unit == o.unit && units == o.units;
    }
};

/**
 * Parse the text format. Numbers follow util/spec_text's grammar.
 * @throws std::runtime_error naming the line number on any malformed
 * line (bad field count, a time that is not a finite number, unknown
 * op, negative offset, non-positive length, decreasing time).
 */
std::vector<TraceRecord> parseTrace(std::istream &in);

/** parseTrace over a file. @throws std::runtime_error (unreadable). */
std::vector<TraceRecord> loadTrace(const std::string &path);

/** Write records in the text format (round-trips with parseTrace). */
void writeTrace(std::ostream &out,
                const std::vector<TraceRecord> &records);

} // namespace traffic
} // namespace pddl

#endif // PDDL_TRAFFIC_TRACE_HH
