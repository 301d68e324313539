/**
 * @file
 * The number grammar of every configuration text: spec strings
 * (`family[:key=value,...]`, `zipf:<theta>`, `mmpp:<a>,<b>,<c>`),
 * ScenarioSpec JSON fields and bench flags all read numbers here.
 *
 * An integer is the whole text in decimal, with a leading '-' for
 * signed types only and no whitespace, '+' or hex; out of range is an
 * error, never a clamp or a wrap. A real is the whole text in decimal
 * and finite: `nan`, `inf` and overflow such as `1e999` are errors.
 * Both sit on std::from_chars, which is locale-free, allocation-free
 * and rounds like strtod, so a value keeps the bits strtod gave it.
 */

#ifndef PDDL_UTIL_SPEC_TEXT_HH
#define PDDL_UTIL_SPEC_TEXT_HH

#include <array>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace pddl {
namespace spec_text {

/** Read all of `text` as an integer in [min, max]; `out` is untouched
 *  on failure. */
template <typename T>
bool
parseInt(std::string_view text, T &out,
         T min = std::numeric_limits<T>::min(),
         T max = std::numeric_limits<T>::max())
{
    const char *last = text.data() + text.size();
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last || value < min || value > max)
        return false;
    out = value;
    return true;
}

/** Read all of `text` as a finite real; `out` is untouched on failure. */
bool parseReal(std::string_view text, double &out);

/** Read a non-empty comma list of reals ("0.25,1,2.5"). */
bool parseRealList(std::string_view text, std::vector<double> &out);

/**
 * The shared range check of a number already read as `From` (an
 * integer or a double) into an integer field: true, and `out` set,
 * when `value` is whole and fits T.
 */
template <typename T, typename From>
bool
exactInt(From value, T &out)
{
    if constexpr (std::is_floating_point_v<From>) {
        // 2^digits, the first whole number past T's maximum, is exact
        // as a double, so the bounds need no rounding care.
        const double past =
            std::ldexp(1.0, std::numeric_limits<T>::digits);
        if (!(value >= (std::is_signed_v<T> ? -past : 0.0) &&
              value < past) ||
            std::trunc(value) != value)
            return false;
    } else if (!std::in_range<T>(value)) {
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

/** The shortest `%.<p>g` (p = 1..17) that reads back to `v`: "0.5",
 *  "7201", "7.2e+03". */
std::string numStr(double v);

/** Split "family[:body]" at the first ':' (body empty when absent). */
void splitFamily(std::string_view text, std::string_view &family,
                 std::string_view &body);

/**
 * The `key=value,...` body of a spec string, read against the keys
 * its family registers. Holds views into the body; no allocation.
 */
class KeyValues
{
  public:
    static constexpr size_t kMaxKeys = 8;

    /**
     * Split `body` (empty is legal). Fails on a pair with no '=', an
     * empty key or value, a key outside `keys` ("unknown <family>
     * parameter 'k'") and a repeated key.
     */
    bool parse(std::string_view body, std::string_view family,
               std::initializer_list<const char *> keys,
               std::string &error);

    /** The text given for `key`; empty when it was not given. */
    std::string_view value(std::string_view key) const;

    bool has(std::string_view key) const { return !value(key).empty(); }

    /** Read `key` as an integer in [min, max] when given; an absent
     *  key leaves `out` at its default. The error names the key. */
    template <typename T>
    bool
    readInt(std::string_view key, T &out, std::string &error,
            T min = std::numeric_limits<T>::min(),
            T max = std::numeric_limits<T>::max()) const
    {
        if (!has(key) || parseInt(value(key), out, min, max))
            return true;
        error = std::string(key) + " must be an integer in [" +
                std::to_string(min) + ", " + std::to_string(max) +
                "], got '" + std::string(value(key)) + "'";
        return false;
    }

    /** Read `key` as a finite real when given (see readInt). */
    bool readReal(std::string_view key, double &out,
                  std::string &error) const;

  private:
    std::array<std::string_view, kMaxKeys> keys_{};
    std::array<std::string_view, kMaxKeys> values_{};
    size_t count_ = 0;
};

} // namespace spec_text
} // namespace pddl

#endif // PDDL_UTIL_SPEC_TEXT_HH
