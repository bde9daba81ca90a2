/**
 * @file
 * Accelerator spec strings: a registry key plus an options map, written
 * `"loas?t=8&pes=32"`. Spec strings are how benchmark harnesses, the
 * CLI and SimRequests name design variants without touching C++
 * configuration structs.
 *
 * Parse and option errors throw std::invalid_argument (the API layer is
 * the user-facing surface, and callers like loas_cli want to report the
 * bad spec rather than exit deep inside the library).
 */

#pragma once

#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace loas {

/** A parsed accelerator spec: registry key + key=value options. */
struct AccelSpec
{
    std::string key;
    std::map<std::string, std::string> options;

    /** Canonical spec string ("key" or "key?a=1&b=2", keys sorted). */
    std::string str() const;
};

/**
 * Parse `"key?opt=val&opt2=val2"`. The key and option names must be
 * non-empty `[a-z0-9_-]` tokens; duplicate option names are an error.
 */
AccelSpec parseAccelSpec(const std::string& spec);

/**
 * Split a separated list of spec strings, dropping empty items.
 * Spec lists use the default ',' ("loas,gamma?pes=8"); grid lists use
 * ';' because commas separate the values inside a grid.
 */
std::vector<std::string> splitSpecList(const std::string& list,
                                       char sep = ',');

/**
 * A spec *grid*: a registry key plus multi-valued options, written
 * `"loas?pes=16,32,64&t=4,8"`. Expanding a grid yields the cartesian
 * product of its option values as concrete AccelSpecs — the example is
 * the six LoAS designs (pes, t) in {16,32,64} x {4,8}.
 */
struct AccelSpecGrid
{
    std::string key;

    /** Option name -> candidate values, in listed value order. */
    std::map<std::string, std::vector<std::string>> options;

    /** Number of cells the grid expands to (product of value counts). */
    std::size_t cells() const;

    /**
     * Cartesian expansion in odometer order: options iterate in sorted
     * name order and the last option varies fastest, so expansion order
     * is a deterministic function of the grid alone.
     */
    std::vector<AccelSpec> expand() const;
};

/**
 * Parse a grid string. Grammar is parseAccelSpec's with comma-separated
 * value lists; empty or duplicate values in one list are errors, as are
 * grids expanding to more than kMaxGridCells cells (a typo like
 * `pes=1,2,...` fanning out a million simulations should fail loudly).
 */
AccelSpecGrid parseAccelSpecGrid(const std::string& grid);

/** Expansion cap for one grid (and for one grid list). */
inline constexpr std::size_t kMaxGridCells = 4096;

/** Parse + expand, returning canonical spec strings (AccelSpec::str). */
std::vector<std::string> expandSpecGrid(const std::string& grid);

/**
 * Expand each grid in turn, deduplicating canonical specs across grids
 * (first occurrence wins the position). The combined expansion is
 * capped at kMaxGridCells like a single grid.
 */
std::vector<std::string>
expandSpecGridList(const std::vector<std::string>& grids);

/**
 * Split a semicolon-separated list of grid strings and expand as
 * above. Semicolons, not commas, because commas separate the values
 * inside a grid.
 */
std::vector<std::string> expandSpecGridList(const std::string& list);

/**
 * Typed, checked access to an AccelSpec's options. Factories read the
 * options they understand and then call finish(), which rejects any
 * option the factory never consumed — a misspelled key fails loudly
 * instead of silently running the default configuration.
 */
class OptionReader
{
  public:
    /**
     * Holds a copy of the spec (a key and a small option map), so a
     * reader over a temporary — `OptionReader(parseAccelSpec(...))` —
     * is safe.
     */
    explicit OptionReader(AccelSpec spec) : spec_(std::move(spec)) {}

    /**
     * Integer option. Throws if present but not an integer, or outside
     * [min, max] — every current option is a positive hardware
     * quantity (PEs, timesteps, bits), so the default floor is 1. The
     * error message states the range.
     */
    int getInt(const std::string& name, int def, int min = 1,
               int max = std::numeric_limits<int>::max());

    /** Boolean option: 1/0/true/false/yes/no. */
    bool getBool(const std::string& name, bool def);

    /**
     * Floating-point option. Throws if present but not a finite number
     * or outside [min, max] — used for fractions like weight sparsity.
     */
    double getDouble(const std::string& name, double def, double min,
                     double max);

    /** Throws listing any option key no get*() call consumed. */
    void finish() const;

  private:
    const std::string* find(const std::string& name);

    const AccelSpec spec_;
    std::set<std::string> consumed_;
};

} // namespace loas
