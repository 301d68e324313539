/**
 * @file
 * Typed command-line flag parser for the bench binaries.
 *
 * Replaces the hand-rolled argv loops that every bench binary used
 * to carry: flags are declared once (name, type, help; every flag is
 * optional), `--help` is generated, and both
 * `--flag value` and `--flag=value` spellings are accepted. Parsing
 * never exits or prints on its own -- callers inspect
 * helpRequested()/error() -- so the parser is unit-testable and the
 * bench wrapper owns the process-exit policy.
 */

#ifndef PDDL_HARNESS_ARG_PARSER_HH
#define PDDL_HARNESS_ARG_PARSER_HH

#include <climits>
#include <functional>
#include <string>
#include <vector>

namespace pddl {
namespace harness {

/** Declarative flag parser with generated --help. */
class ArgParser
{
  public:
    /**
     * @param program argv[0]-style program name for usage text
     * @param description one-line description shown under usage
     */
    ArgParser(std::string program, std::string description);

    /**
     * Value check for string flags: return the empty string to
     * accept, or a short complaint ("expected zipf:<theta> with
     * theta in (0,1)") that parse() folds into error(). Validators
     * run during parse(), so a malformed `--skew` or `--trace` is
     * rejected before any work starts.
     */
    using Validator = std::function<std::string(const std::string &)>;

    /**
     * Declare a string flag (`--name <value>` or `--name=value`),
     * checked by `validator` when one is given.
     */
    void addString(const std::string &name,
                   const std::string &value_name,
                   const std::string &help, Validator validator = {});

    /** Declare an integer flag with an inclusive range; a flag stored
     *  in an `int` passes INT_MAX, so a larger value fails at the flag. */
    void addInt(const std::string &name,
                const std::string &value_name, const std::string &help,
                long long min_value, long long max_value = LLONG_MAX);

    /** Declare a valueless boolean flag (`--name`). */
    void addBool(const std::string &name, const std::string &help);

    /** Free-form text appended to the usage message. */
    void setEpilog(std::string epilog);

    /**
     * Parse argv. @return false on any error (unknown flag, missing
     * value, bad integer, rejected value); error() explains.
     * --help/-h set helpRequested() and parse returns true at once,
     * checking no later argument.
     */
    bool parse(int argc, char *const *argv);

    bool helpRequested() const { return help_requested_; }
    const std::string &error() const { return error_; }

    /** True when the flag appeared on the command line. */
    bool has(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;
    long long getInt(const std::string &name,
                     long long fallback = 0) const;
    bool getBool(const std::string &name) const;

    /** Full usage/help text (usage line, flags, epilog). */
    std::string usage() const;

  private:
    enum class Kind
    {
        String,
        Int,
        Bool
    };

    struct Flag
    {
        std::string name; ///< without the leading "--"
        std::string value_name;
        std::string help;
        Kind kind = Kind::String;
        long long min_value = 0;
        long long max_value = LLONG_MAX;

        Validator validator;

        bool seen = false;
        std::string value;
        long long int_value = 0;
    };

    Flag *findFlag(const std::string &name);
    const Flag *findFlag(const std::string &name) const;
    bool fail(const std::string &message);

    std::string program_;
    std::string description_;
    std::string epilog_;
    std::vector<Flag> flags_;
    bool help_requested_ = false;
    std::string error_;
};

} // namespace harness
} // namespace pddl

#endif // PDDL_HARNESS_ARG_PARSER_HH
