#include "util/spec_text.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace pddl {
namespace spec_text {

bool
parseReal(std::string_view text, double &out)
{
    const char *last = text.data() + text.size();
    double value = 0.0;
    // Overflow (1e999) and underflow come back as result_out_of_range;
    // "nan" and "inf" parse, so finiteness is checked separately.
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

bool
parseRealList(std::string_view text, std::vector<double> &out)
{
    out.clear();
    out.reserve(std::count(text.begin(), text.end(), ',') + 1);
    for (;;) {
        const size_t comma = text.find(',');
        double value = 0.0;
        if (!parseReal(text.substr(0, comma), value))
            return false;
        out.push_back(value);
        if (comma == std::string_view::npos)
            return true;
        text.remove_prefix(comma + 1);
    }
}

std::string
numStr(double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    // %.17g keeps the value exact; trim only an integral ".0" tail
    // style by reformatting when shorter forms round-trip.
    for (int precision = 1; precision < 17; ++precision) {
        char trial[64];
        std::snprintf(trial, sizeof(trial), "%.*g", precision, v);
        if (std::strtod(trial, nullptr) == v)
            return trial;
    }
    return buffer;
}

void
splitFamily(std::string_view text, std::string_view &family,
            std::string_view &body)
{
    const size_t colon = text.find(':');
    family = text.substr(0, colon);
    body = colon == std::string_view::npos ? std::string_view()
                                           : text.substr(colon + 1);
}

bool
KeyValues::parse(std::string_view body, std::string_view family,
                 std::initializer_list<const char *> keys,
                 std::string &error)
{
    assert(keys.size() <= kMaxKeys);
    count_ = 0;
    for (const char *key : keys) {
        keys_[count_] = key;
        values_[count_++] = {};
    }
    if (body.empty())
        return true;
    for (;;) {
        const size_t comma = body.find(',');
        const std::string_view pair = body.substr(0, comma);
        const size_t eq = pair.find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq + 1 == pair.size()) {
            error = "expected key=value, got '" + std::string(pair) +
                    "'";
            return false;
        }
        const std::string_view key = pair.substr(0, eq);
        const auto known = keys_.begin() + count_;
        const auto at = std::find(keys_.begin(), known, key);
        if (at == known) {
            error = "unknown " + std::string(family) + " parameter '" +
                    std::string(key) + "'";
            return false;
        }
        std::string_view &value = values_[at - keys_.begin()];
        if (!value.empty()) {
            error = "duplicate " + std::string(family) +
                    " parameter '" + std::string(key) + "'";
            return false;
        }
        value = pair.substr(eq + 1);
        if (comma == std::string_view::npos)
            return true;
        body.remove_prefix(comma + 1);
    }
}

std::string_view
KeyValues::value(std::string_view key) const
{
    for (size_t i = 0; i < count_; ++i) {
        if (keys_[i] == key)
            return values_[i];
    }
    return {};
}

bool
KeyValues::readReal(std::string_view key, double &out,
                    std::string &error) const
{
    if (!has(key) || parseReal(value(key), out))
        return true;
    error = std::string(key) + " must be a finite number, got '" +
            std::string(value(key)) + "'";
    return false;
}

} // namespace spec_text
} // namespace pddl
