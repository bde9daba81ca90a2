#include "core/kernel_dispatch.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace loas {
namespace kernels {

namespace {

/** The mutable ISA choice: resolved lazily, overridable. */
Isa&
current()
{
    static Isa isa = [] {
        const char* env = std::getenv("LOAS_ISA");
        if (env == nullptr || *env == '\0')
            return bestSupportedIsa();
        Isa requested;
        if (!parseIsa(env, &requested))
            fatal("LOAS_ISA: unknown ISA '%s' (want scalar or avx2)",
                  env);
        if (!isaSupported(requested))
            fatal("LOAS_ISA: this CPU does not support '%s'", env);
        return requested;
    }();
    return isa;
}

} // namespace

const char*
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
isaSupported(Isa isa)
{
    if (isa == Isa::Scalar)
        return true;
#if defined(__x86_64__) && defined(__GNUC__)
    if (isa == Isa::Avx2)
        return __builtin_cpu_supports("avx2") != 0;
#endif
    return false;
}

Isa
bestSupportedIsa()
{
    return isaSupported(Isa::Avx2) ? Isa::Avx2 : Isa::Scalar;
}

Isa
resolvedIsa()
{
    return current();
}

void
setIsa(Isa isa)
{
    if (!isaSupported(isa))
        fatal("--isa: this CPU does not support '%s'", isaName(isa));
    current() = isa;
}

bool
parseIsa(const std::string& name, Isa* out)
{
    if (name == "scalar")
        *out = Isa::Scalar;
    else if (name == "avx2")
        *out = Isa::Avx2;
    else
        return false;
    return true;
}

} // namespace kernels
} // namespace loas
