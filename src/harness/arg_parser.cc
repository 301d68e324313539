#include "harness/arg_parser.hh"

#include <cassert>

#include "util/spec_text.hh"

namespace pddl {
namespace harness {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)),
      description_(std::move(description))
{
}

void
ArgParser::addString(const std::string &name,
                     const std::string &value_name,
                     const std::string &help, Validator validator)
{
    assert(findFlag(name) == nullptr && "duplicate flag");
    Flag flag;
    flag.name = name;
    flag.value_name = value_name;
    flag.help = help;
    flag.kind = Kind::String;
    flag.validator = std::move(validator);
    flags_.push_back(std::move(flag));
}

void
ArgParser::addInt(const std::string &name,
                  const std::string &value_name,
                  const std::string &help, long long min_value,
                  long long max_value)
{
    assert(findFlag(name) == nullptr && "duplicate flag");
    Flag flag;
    flag.name = name;
    flag.value_name = value_name;
    flag.help = help;
    flag.kind = Kind::Int;
    flag.min_value = min_value;
    flag.max_value = max_value;
    flags_.push_back(std::move(flag));
}

void
ArgParser::addBool(const std::string &name, const std::string &help)
{
    assert(findFlag(name) == nullptr && "duplicate flag");
    Flag flag;
    flag.name = name;
    flag.help = help;
    flag.kind = Kind::Bool;
    flags_.push_back(std::move(flag));
}

void
ArgParser::setEpilog(std::string epilog)
{
    epilog_ = std::move(epilog);
}

ArgParser::Flag *
ArgParser::findFlag(const std::string &name)
{
    for (Flag &flag : flags_) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

const ArgParser::Flag *
ArgParser::findFlag(const std::string &name) const
{
    for (const Flag &flag : flags_) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

bool
ArgParser::fail(const std::string &message)
{
    error_ = program_ + ": error: " + message;
    return false;
}

bool
ArgParser::parse(int argc, char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help_requested_ = true;
            return true;
        }
        if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-')
            return fail("unknown option '" + arg + "'");

        // Split --name=value; otherwise the value is the next argv.
        std::string name = arg.substr(2);
        std::string value;
        bool inline_value = false;
        size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            inline_value = true;
        }

        Flag *flag = findFlag(name);
        if (flag == nullptr)
            return fail("unknown option '--" + name + "'");
        if (flag->kind == Kind::Bool) {
            if (inline_value) {
                return fail("option '--" + name +
                            "' takes no value");
            }
            flag->seen = true;
            continue;
        }
        if (!inline_value) {
            if (i + 1 >= argc) {
                return fail("option '--" + name +
                            "' requires a value");
            }
            value = argv[++i];
        }
        if (flag->kind == Kind::Int &&
            !spec_text::parseInt(value, flag->int_value,
                                 flag->min_value, flag->max_value)) {
            return fail("'--" + name + " " + value +
                        "' is not an integer in [" +
                        std::to_string(flag->min_value) + ", " +
                        std::to_string(flag->max_value) + "]");
        }
        if (flag->kind == Kind::String && flag->validator) {
            std::string complaint = flag->validator(value);
            if (!complaint.empty()) {
                return fail("invalid value '" + value + "' for '--" +
                            name + "': " + complaint);
            }
        }
        flag->seen = true;
        flag->value = std::move(value);
    }
    return true;
}

bool
ArgParser::has(const std::string &name) const
{
    const Flag *flag = findFlag(name);
    return flag != nullptr && flag->seen;
}

std::string
ArgParser::getString(const std::string &name,
                     const std::string &fallback) const
{
    const Flag *flag = findFlag(name);
    return flag != nullptr && flag->seen ? flag->value : fallback;
}

long long
ArgParser::getInt(const std::string &name, long long fallback) const
{
    const Flag *flag = findFlag(name);
    return flag != nullptr && flag->seen ? flag->int_value : fallback;
}

bool
ArgParser::getBool(const std::string &name) const
{
    const Flag *flag = findFlag(name);
    return flag != nullptr && flag->seen;
}

std::string
ArgParser::usage() const
{
    std::string text = "usage: " + program_;
    for (const Flag &flag : flags_) {
        std::string spelling = "--" + flag.name;
        if (flag.kind != Kind::Bool)
            spelling += " <" + flag.value_name + ">";
        text += " [" + spelling + "]";
    }
    text += " [--help]\n";
    if (!description_.empty())
        text += "\n  " + description_ + "\n";
    text += "\noptions:\n";
    for (const Flag &flag : flags_) {
        std::string left = "  --" + flag.name;
        if (flag.kind != Kind::Bool)
            left += " <" + flag.value_name + ">";
        text += left;
        if (left.size() < 24)
            text += std::string(24 - left.size(), ' ');
        else
            text += "\n" + std::string(24, ' ');
        text += flag.help + "\n";
    }
    text += "  --help                show this message and exit\n";
    if (!epilog_.empty())
        text += "\n" + epilog_;
    return text;
}

} // namespace harness
} // namespace pddl
