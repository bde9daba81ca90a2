#include "api/accel_spec.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace loas {
namespace {

bool
isTokenChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '-';
}

void
checkToken(const std::string& token, const char* what,
           const std::string& spec)
{
    if (token.empty())
        throw std::invalid_argument(std::string("empty ") + what +
                                    " in accelerator spec '" + spec +
                                    "'");
    for (const char c : token)
        if (!isTokenChar(c))
            throw std::invalid_argument(
                std::string("bad character '") + c + "' in " + what +
                " of accelerator spec '" + spec + "'");
}

} // namespace

std::string
AccelSpec::str() const
{
    std::string out = key;
    char sep = '?';
    for (const auto& [name, value] : options) {
        out += sep;
        out += name;
        out += '=';
        out += value;
        sep = '&';
    }
    return out;
}

AccelSpec
parseAccelSpec(const std::string& spec)
{
    AccelSpec parsed;
    const auto qmark = spec.find('?');
    parsed.key = spec.substr(0, qmark);
    checkToken(parsed.key, "key", spec);
    if (qmark == std::string::npos)
        return parsed;

    std::string rest = spec.substr(qmark + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        auto amp = rest.find('&', pos);
        if (amp == std::string::npos)
            amp = rest.size();
        const std::string pair = rest.substr(pos, amp - pos);
        const auto eq = pair.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "option '" + pair + "' in accelerator spec '" + spec +
                "' is not name=value");
        const std::string name = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        checkToken(name, "option name", spec);
        if (value.empty())
            throw std::invalid_argument("empty value for option '" +
                                        name + "' in accelerator spec '" +
                                        spec + "'");
        if (!parsed.options.emplace(name, value).second)
            throw std::invalid_argument("duplicate option '" + name +
                                        "' in accelerator spec '" + spec +
                                        "'");
        pos = amp + 1;
    }
    return parsed;
}

std::vector<std::string>
splitSpecList(const std::string& list, char sep)
{
    std::vector<std::string> specs;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        auto next = list.find(sep, pos);
        if (next == std::string::npos)
            next = list.size();
        const std::string item = list.substr(pos, next - pos);
        if (!item.empty())
            specs.push_back(item);
        pos = next + 1;
    }
    return specs;
}

std::size_t
AccelSpecGrid::cells() const
{
    // Saturate just past the expansion cap so a pathological grid
    // cannot overflow the product before the limit check rejects it.
    std::size_t n = 1;
    for (const auto& [name, values] : options) {
        n *= values.size();
        if (n > kMaxGridCells)
            return kMaxGridCells + 1;
    }
    return n;
}

std::vector<AccelSpec>
AccelSpecGrid::expand() const
{
    std::vector<AccelSpec> specs;
    specs.reserve(cells());

    // Odometer over the (sorted) option axes; digits[i] indexes into
    // the i-th option's value list and the last axis varies fastest.
    std::vector<std::size_t> digits(options.size(), 0);
    bool done = false;
    while (!done) {
        AccelSpec spec;
        spec.key = key;
        std::size_t axis = 0;
        for (const auto& [name, values] : options)
            spec.options.emplace(name, values[digits[axis++]]);
        specs.push_back(std::move(spec));

        done = true;
        for (std::size_t i = digits.size(); i-- > 0;) {
            const auto& values = std::next(options.begin(),
                                           static_cast<std::ptrdiff_t>(i))
                                     ->second;
            if (++digits[i] < values.size()) {
                done = false;
                break;
            }
            digits[i] = 0;
        }
    }
    return specs;
}

AccelSpecGrid
parseAccelSpecGrid(const std::string& grid)
{
    const AccelSpec flat = parseAccelSpec(grid);
    AccelSpecGrid parsed;
    parsed.key = flat.key;
    for (const auto& [name, list] : flat.options) {
        std::vector<std::string> values;
        std::size_t pos = 0;
        while (pos <= list.size()) {
            auto comma = list.find(',', pos);
            if (comma == std::string::npos)
                comma = list.size();
            std::string value = list.substr(pos, comma - pos);
            if (value.empty())
                throw std::invalid_argument(
                    "empty value in list '" + name + "=" + list +
                    "' of spec grid '" + grid + "'");
            if (std::find(values.begin(), values.end(), value) !=
                values.end())
                throw std::invalid_argument(
                    "duplicate value '" + value + "' in list '" + name +
                    "=" + list + "' of spec grid '" + grid + "'");
            values.push_back(std::move(value));
            pos = comma + 1;
        }
        parsed.options.emplace(name, std::move(values));
    }
    // cells() saturates past the cap, so report the limit rather than
    // a (possibly clamped) count.
    if (parsed.cells() > kMaxGridCells)
        throw std::invalid_argument(
            "spec grid '" + grid + "' expands to more than " +
            std::to_string(kMaxGridCells) + " cells");
    return parsed;
}

std::vector<std::string>
expandSpecGrid(const std::string& grid)
{
    std::vector<std::string> specs;
    for (const auto& spec : parseAccelSpecGrid(grid).expand())
        specs.push_back(spec.str());
    return specs;
}

std::vector<std::string>
expandSpecGridList(const std::vector<std::string>& grids)
{
    std::vector<std::string> specs;
    std::set<std::string> seen;
    for (const auto& grid : grids) {
        for (auto& spec : expandSpecGrid(grid))
            if (seen.insert(spec).second)
                specs.push_back(std::move(spec));
        if (specs.size() > kMaxGridCells)
            throw std::invalid_argument(
                "spec grid list expands to more than " +
                std::to_string(kMaxGridCells) + " cells");
    }
    return specs;
}

std::vector<std::string>
expandSpecGridList(const std::string& list)
{
    return expandSpecGridList(splitSpecList(list, ';'));
}

const std::string*
OptionReader::find(const std::string& name)
{
    const auto it = spec_.options.find(name);
    if (it == spec_.options.end())
        return nullptr;
    consumed_.insert(name);
    return &it->second;
}

int
OptionReader::getInt(const std::string& name, int def, int min, int max)
{
    const std::string* value = find(name);
    if (value == nullptr)
        return def;
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0')
        throw std::invalid_argument("option '" + name + "=" + *value +
                                    "' of spec '" + spec_.key +
                                    "' is not an integer");
    if (errno == ERANGE || parsed < min || parsed > max)
        throw std::invalid_argument(
            "option '" + name + "=" + *value + "' of spec '" +
            spec_.key + "' is outside [" + std::to_string(min) + ", " +
            std::to_string(max) + "]");
    return static_cast<int>(parsed);
}

bool
OptionReader::getBool(const std::string& name, bool def)
{
    const std::string* value = find(name);
    if (value == nullptr)
        return def;
    if (*value == "1" || *value == "true" || *value == "yes")
        return true;
    if (*value == "0" || *value == "false" || *value == "no")
        return false;
    throw std::invalid_argument("option '" + name + "=" + *value +
                                "' of spec '" + spec_.key +
                                "' is not a boolean");
}

double
OptionReader::getDouble(const std::string& name, double def, double min,
                        double max)
{
    const std::string* value = find(name);
    if (value == nullptr)
        return def;
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument("option '" + name + "=" + *value +
                                    "' of spec '" + spec_.key +
                                    "' is not a number");
    if (!(parsed >= min && parsed <= max)) {
        char range[48];
        std::snprintf(range, sizeof(range), "[%g, %g]", min, max);
        throw std::invalid_argument(
            "option '" + name + "=" + *value + "' of spec '" +
            spec_.key + "' is outside " + range);
    }
    return parsed;
}

void
OptionReader::finish() const
{
    for (const auto& [name, value] : spec_.options)
        if (consumed_.count(name) == 0)
            throw std::invalid_argument("spec '" + spec_.key +
                                        "' does not understand option '" +
                                        name + "'");
}

} // namespace loas
