"""repro.fuzz — coverage-guided differential fuzzing of the pipeliners.

The paper's claim is comparative: the heuristic (sgi), the optimal ILP
(most) and the iterative (rau) pipeliners must agree — on validity, on
semantics, and on II within proven bounds — over *arbitrary* loops, not
just the ~24 fixed Livermore/SPEC92 kernels.  This subsystem generates
that evidence continuously:

* :mod:`repro.workloads.mutate` (engine room, lives with the generators) —
  a declarative ``LoopSpec`` over loop IR with add/remove-op, dependence-
  distance, recurrence-/indirect-toggle and latency-rescale mutators plus
  structure-aware crossover;
* :mod:`repro.fuzz.oracle` — evaluates every generated loop under the
  seven-layer verdict of :mod:`repro.exec.verdict` (the one judge the
  bench grid and every gate share), per scheduler and across schedulers;
* :mod:`repro.fuzz.engine` — the batch loop over the cached parallel
  :mod:`repro.exec` engine, using :func:`repro.obs.counter_signature`
  over search-effort counters (B&B nodes, prune reasons, simplex
  iterations) as the coverage signal that admits loops into the corpus;
* :mod:`repro.fuzz.minimize` — a ddmin-style reducer that shrinks any
  violating loop to a minimal reproducer;
* :mod:`repro.fuzz.corpus` — the checked-in ``tests/fuzz_corpus/``
  format that pytest replays forever after;
* :mod:`repro.fuzz.inject` — seeded faults (``--inject``) that calibrate
  the oracle: each is caught by a *different* layer, proving the layers
  are live.

Entry point: ``python -m repro fuzz --seconds N --jobs J [--seed S]``.
"""

from .. import _lazy_exports

#: Each re-exported name and the submodule that defines it; they load on
#: first access, so a cell importing :mod:`repro.fuzz.inject` pays for no
#: fuzz engine.
_EXPORTS = {
    **dict.fromkeys(("CorpusEntry", "load_entries", "write_entry"), "corpus"),
    **dict.fromkeys(("FuzzConfig", "FuzzReport", "run_fuzz"), "engine"),
    "INJECTIONS": "inject",
    "minimize_spec": "minimize",
    **dict.fromkeys(
        ("ORACLE_KINDS", "Violation", "check_results", "evaluate_spec"), "oracle"
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__ = _lazy_exports(__name__, _EXPORTS)
