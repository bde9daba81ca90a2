/**
 * @file
 * String-keyed registry of accelerator factories. Each backend
 * self-registers at load time (a file-local RegisterAccelerator object
 * at the bottom of its .cc), so the harnesses, the SimEngine and
 * loas_cli can build any design from a spec string like
 * `"loas?t=8&pes=32"` without naming a concrete class.
 *
 * The build links the library as a CMake OBJECT library precisely so
 * these registration objects survive static linking.
 *
 * The registry is populated by static initializers before main() and
 * read-only afterwards; concurrent make() calls from the SimEngine's
 * worker threads are safe.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "api/accel_spec.hh"

namespace loas {

/** Global name -> factory map of every accelerator model. */
class AcceleratorRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<Accelerator>(const AccelSpec&)>;

    /** What a backend registers. */
    struct Entry
    {
        /** One-line description (for `loas_cli list`). */
        std::string description;

        /**
         * Spec option names the factory accepts ("pes", "t", ...), in
         * the backend's documented order — the machine-readable
         * counterpart of the description, emitted by
         * `loas_cli list --json` for tooling/CI discovery.
         */
        std::vector<std::string> options;

        /**
         * The design expects the fine-tuned-preprocessing workload
         * variant (generateNetwork with ft=true); the SimEngine feeds
         * it the matching ft layers.
         */
        bool ft_workload = false;

        Factory factory;
    };

    /** The process-wide registry. */
    static AcceleratorRegistry& instance();

    /** Register a key (panics on duplicates: that is a code bug). */
    void add(const std::string& key, Entry entry);

    bool contains(const std::string& key) const;

    /** All registered keys, sorted. */
    std::vector<std::string> keys() const;

    /** Entry for a key; throws std::invalid_argument when unknown. */
    const Entry& entry(const std::string& key) const;

    /** Build an accelerator from a parsed spec. */
    std::unique_ptr<Accelerator> make(const AccelSpec& spec) const;

    /** Build an accelerator from a spec string ("gamma?pes=32"). */
    std::unique_ptr<Accelerator> make(const std::string& spec) const;

  private:
    AcceleratorRegistry() = default;

    std::vector<std::pair<std::string, Entry>> entries_;
};

/** File-local self-registration helper for backend .cc files. */
struct RegisterAccelerator
{
    RegisterAccelerator(const std::string& key,
                        AcceleratorRegistry::Entry entry)
    {
        AcceleratorRegistry::instance().add(key, std::move(entry));
    }
};

} // namespace loas
