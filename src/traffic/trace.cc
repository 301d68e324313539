#include "traffic/trace.hh"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/spec_text.hh"

namespace pddl {
namespace traffic {

namespace {

[[noreturn]] void
badLine(size_t line, const std::string &why)
{
    throw std::runtime_error("trace line " + std::to_string(line) +
                             ": " + why);
}

} // namespace

std::vector<TraceRecord>
parseTrace(std::istream &in)
{
    std::vector<TraceRecord> records;
    std::string line;
    size_t line_no = 0;
    double last_when = 0.0;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream words(line);
        std::string fields[5];
        size_t count = 0;
        while (count < 5 && words >> fields[count])
            ++count;
        if (count == 0)
            continue; // blank or comment-only line
        if (count < 4)
            badLine(line_no, "expected 'when op offset units'");
        if (count > 4)
            badLine(line_no, "trailing field '" + fields[4] + "'");
        double when = 0.0;
        int64_t unit = 0;
        int units = 0;
        if (!spec_text::parseReal(fields[0], when))
            badLine(line_no, "time must be a finite number, got '" +
                                 fields[0] + "'");
        const std::string &op = fields[1];
        if (op != "r" && op != "w")
            badLine(line_no, "op must be 'r' or 'w', got '" + op +
                                 "'");
        if (when < 0.0)
            badLine(line_no, "negative time");
        if (!records.empty() && when < last_when)
            badLine(line_no, "time decreases (trace must be sorted)");
        if (!spec_text::parseInt(fields[2], unit, int64_t{0}))
            badLine(line_no, "offset must be an integer >= 0, got '" +
                                 fields[2] + "'");
        if (!spec_text::parseInt(fields[3], units, 1))
            badLine(line_no, "units must be a positive int, got '" +
                                 fields[3] + "'");
        records.push_back({when,
                           op == "r" ? AccessType::Read
                                     : AccessType::Write,
                           unit, units});
        last_when = when;
    }
    return records;
}

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read trace file '" + path +
                                 "'");
    return parseTrace(in);
}

void
writeTrace(std::ostream &out,
           const std::vector<TraceRecord> &records)
{
    out << "# when_ms op offset units\n";
    char line[96];
    for (const TraceRecord &record : records) {
        // %.17g round-trips doubles, so parse(write(x)) == x.
        std::snprintf(line, sizeof(line), "%.17g %c %lld %d\n",
                      record.when_ms,
                      record.type == AccessType::Read ? 'r' : 'w',
                      static_cast<long long>(record.unit),
                      record.units);
        out << line;
    }
}

} // namespace traffic
} // namespace pddl
