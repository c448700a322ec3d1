"""Workload corpora: Livermore kernels, SPEC92-like loops, random loops,
and the loop-spec mutation engine the differential fuzzer generates with."""

from .. import _lazy_exports

#: Each re-exported name and the submodule that defines it; they load on
#: first access.  The mutation operator itself is not among them: it shares
#: its name with :mod:`repro.workloads.mutate`, which the import system
#: binds on this package whenever anything imports that submodule, so it is
#: imported from there.
_EXPORTS = {
    **dict.fromkeys(
        ("GeneratorConfig", "random_loop", "random_spec", "scaling_series"), "generators"
    ),
    **dict.fromkeys(
        ("LONG_TRIPS", "SHORT_TRIPS", "livermore_kernel", "livermore_kernels"), "livermore"
    ),
    **dict.fromkeys(("recbound_kernel", "recbound_kernels"), "recbound"),
    **dict.fromkeys(
        ("MUTATORS", "LoopSpec", "OpSpec", "crossover", "normalize", "remove_position",
         "spec_from_token", "spec_to_token"),
        "mutate",
    ),
    **dict.fromkeys(
        ("SPEC92_FP_NAMES", "Benchmark", "spec92_benchmark", "spec92_suite"), "spec92"
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = _lazy_exports(__name__, _EXPORTS)
