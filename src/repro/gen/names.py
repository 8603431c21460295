"""The ``gen:`` name grammar for generated systems.

Generated systems have no source file; their identity is the pair
``(family, params)``.  Everywhere the toolchain accepts a system name —
``check``, ``lint``, ``analyze``, ``perturb``, the runner, the serve
daemon — a well-formed ``gen:`` name is admitted by parsing it through
this module.  The grammar is deliberately tiny and closed::

    gen:fischer-N        N processes,         2 <= N <= 6
    gen:relay_line-K     K relay stages,      1 <= K <= 8
    gen:relay_ring-K     K-station token ring 2 <= K <= 12
    gen:relay_tree-DxF   depth D, fanout F,   1 <= D <= 4, 1 <= F <= 3
                         (and the tree's state count must stay explorable:
                         4x2 and 3x3 exceed the cap and are rejected)
    gen:tournament-W     bracket width W in {2, 4}

The caps are feasibility bounds, not aesthetics: they keep every
generated instance inside the exploration/zone budgets its battery
declares (see :mod:`repro.gen.families` for the per-family cost model).

:data:`GEN_VERSION` stamps every cache fingerprint derived from a
generated system.  Bump it whenever a family's construction changes
meaning without a source diff elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.catalog import GEN_PREFIX
from repro.errors import ReproError

__all__ = [
    "GEN_PREFIX",
    "GEN_VERSION",
    "GenName",
    "cache_parts",
    "family_names",
    "family_specs",
    "is_gen_name",
    "parse",
    "sample_names",
]

#: Version stamp folded into every gen-derived verdict-cache key.
GEN_VERSION = 1

#: ``family -> (param names, (lo, hi) cap per param)``.  ``tournament``
#: additionally requires a power of two (checked in :func:`parse`).
_FAMILIES: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[int, int], ...]]] = {
    "fischer": (("n",), ((2, 6),)),
    "relay_line": (("k",), ((1, 8),)),
    "relay_ring": (("k",), ((2, 12),)),
    "relay_tree": (("depth", "fanout"), ((1, 4), (1, 3))),
    "tournament": (("width",), ((2, 4),)),
}

_NAME_RE = re.compile(r"^gen:([a-z_]+)-(\d+)(?:x(\d+))?$")

#: The largest untimed state space a generated tree may have — combos
#: past this would truncate exploration and fail ``check`` by design.
#: 500k admits every depth≤4 tree with fanout ≤ 2 (relay_tree-4x2 has
#: 458,330 states; its checks ride the spine so verification stays
#: cheap) while still rejecting the 389-million-state relay_tree-3x3.
_TREE_STATE_CAP = 500_000


@dataclass(frozen=True)
class GenName:
    """A parsed ``gen:`` name: the family plus its integer parameters."""

    family: str
    params: Tuple[int, ...]

    @property
    def name(self) -> str:
        return GEN_PREFIX + self.family + "-" + "x".join(str(p) for p in self.params)

    def params_dict(self) -> Dict[str, int]:
        keys, _caps = _FAMILIES[self.family]
        return dict(zip(keys, self.params))


def is_gen_name(name: str) -> bool:
    """True iff ``name`` lives in the ``gen:`` namespace (well-formed
    or not — use :func:`parse` to validate)."""
    return isinstance(name, str) and name.startswith(GEN_PREFIX)


def family_names() -> Tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def family_specs() -> Dict[str, Dict[str, Any]]:
    """``family -> {"params": [...], "ranges": [[name, lo, hi], ...]}``,
    the machine-readable roster behind ``repro gen list``."""
    return {
        family: {
            "params": list(keys),
            "ranges": [[key, lo, hi] for key, (lo, hi) in zip(keys, caps)],
        }
        for family, (keys, caps) in sorted(_FAMILIES.items())
    }


def parse(name: str) -> GenName:
    """Parse and validate a ``gen:`` name, raising :class:`ReproError`
    with an actionable message on any violation."""
    match = _NAME_RE.match(name)
    if not match:
        raise ReproError(
            "malformed generated-system name {!r}; expected gen:<family>-<params> "
            "like gen:fischer-4 or gen:relay_tree-3x2 (families: {})".format(
                name, ", ".join(family_names())
            )
        )
    family = match.group(1)
    spec = _FAMILIES.get(family)
    if spec is None:
        raise ReproError(
            "unknown generated-system family {!r} (known: {})".format(
                family, ", ".join(family_names())
            )
        )
    keys, caps = spec
    raw = [g for g in match.groups()[1:] if g is not None]
    if len(raw) != len(keys):
        raise ReproError(
            "family {!r} takes {} parameter(s) ({}), got {} in {!r}".format(
                family, len(keys), ", ".join(keys), len(raw), name
            )
        )
    params = tuple(int(g) for g in raw)
    for key, value, (lo, hi) in zip(keys, params, caps):
        if not lo <= value <= hi:
            raise ReproError(
                "parameter {}={} of {!r} outside the feasible range [{}, {}]".format(
                    key, value, name, lo, hi
                )
            )
    if family == "tournament" and params[0] & (params[0] - 1) != 0:
        raise ReproError(
            "tournament width must be a power of two (2 or 4), got {}".format(params[0])
        )
    if family == "relay_tree":
        from repro.gen.families import tree_state_count

        states = tree_state_count(*params)
        if states > _TREE_STATE_CAP:
            raise ReproError(
                "relay_tree-{}x{} has {} reachable states, past the exploration "
                "cap of {}; shrink depth or fanout".format(
                    params[0], params[1], states, _TREE_STATE_CAP
                )
            )
    return GenName(family, params)


def cache_parts(name: str) -> Dict[str, Any]:
    """The extra verdict-cache key parts for a generated system.

    Generated systems have no source file, so their cache identity is
    ``(family, params, GEN_VERSION)`` on top of the package-source
    fingerprint the cache already folds in.
    """
    parsed = parse(name)
    return {
        "gen_family": parsed.family,
        "gen_params": list(parsed.params),
        "gen_version": GEN_VERSION,
    }


def sample_names() -> List[str]:
    """One representative name per family — the roster ``gen list``
    prints and the runner/serve registries admit by default."""
    return [
        "gen:fischer-3",
        "gen:relay_line-5",
        "gen:relay_ring-6",
        "gen:relay_tree-3x2",
        "gen:tournament-2",
    ]
