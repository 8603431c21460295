"""``repro.gen`` — parametric system families and the differential
proof-method fuzzer.

Two halves:

* :mod:`repro.gen.names` / :mod:`repro.gen.families` — the ``gen:``
  namespace.  ``gen:fischer-4``-style names are accepted everywhere a
  shipped system name is (check, lint, analyze, perturb, the runner,
  the serve daemon); :func:`build_bundle` materialises the instance.
* :mod:`repro.gen.fuzzer` — seeded random well-formed timed automata
  pushed through three independent proof methods (exhaustive mapping
  sweep, zone-graph search, symbolic discharge); any disagreement is a
  bug in an engine and fails loudly with a serialized reproducer.
"""

from repro.gen.names import (
    GEN_PREFIX,
    GEN_VERSION,
    GenName,
    cache_parts,
    family_names,
    family_specs,
    is_gen_name,
    parse,
    sample_names,
)
from repro.gen.families import build_bundle

__all__ = [
    "GEN_PREFIX",
    "GEN_VERSION",
    "GenName",
    "build_bundle",
    "cache_parts",
    "family_names",
    "family_specs",
    "is_gen_name",
    "parse",
    "sample_names",
]
