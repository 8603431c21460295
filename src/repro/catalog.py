"""The names, defaults and job kinds the toolkit offers, declared once.

``repro --help`` and a warm verdict-cache hit must not import the
engines, yet the argument parser needs every subcommand's choices and
defaults.  This stdlib-only module is their single declaration; the
modules that own each name (the system table :mod:`repro.surface`,
``faults.perturb``, ``runner.jobs``, ``lint.driver``) import it from
here, and ``tests/test_catalog.py`` pins the system table's keys to
the entries below.

:data:`KIND_SPECS` declares each campaign job kind: its params with
their defaults and validators, and the systems it accepts.
The CLI flags, ``repro run``'s campaign jobs and ``repro serve``'s
admission are all derived from it, so the three transports cannot
disagree on what a kind accepts.  Validators return one canonical
spelling per value (integers as ``int``, exact fractions as their
reduced ``"p/q"`` string), so equal work gets equal cache keys.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict, NamedTuple, Tuple

__all__ = [
    "DIRECTIONS",
    "EXPECTED_BROKEN",
    "FUZZ_CAMPAIGN",
    "FUZZ_COUNT_CAP",
    "FUZZ_SYSTEM",
    "GEN_PREFIX",
    "JOB_KINDS",
    "KIND_SPECS",
    "KindSpec",
    "LINT_MAX_STATES",
    "LINT_SYSTEMS",
    "MODES",
    "SURFACE_SYSTEMS",
    "boolean",
    "exact",
    "integer",
    "key_parts",
    "nonneg_fraction",
    "nonneg_int",
    "positive_fraction",
    "positive_int",
]

#: Shipped systems ``lint`` accepts, in CLI order; each has its entry in
#: the system table (``repro.surface``).
LINT_SYSTEMS = (
    "rm",
    "relay",
    "fischer",
    "peterson",
    "tournament",
    "chain",
    "request-grant",
    "interrupt",
)

#: The verification surface: the shipped systems ``check``, ``analyze``,
#: ``perturb`` and ``trace`` accept, in the order of the system table
#: (``repro.surface``).
SURFACE_SYSTEMS = (
    "rm",
    "relay",
    "chain",
    "fischer",
    "fischer-tight",
    "peterson",
    "tournament",
)

#: Systems shipped deliberately broken: their analyze, check and
#: perturb verdicts are *expected* to fail, and that finding is the
#: point (the checkers must catch the break).
EXPECTED_BROKEN = ("fischer-tight",)

#: Perturbation drift modes and directions (``repro.faults.perturb``).
MODES = ("scale", "shift")
DIRECTIONS = ("widen", "tighten")

#: Campaign job kinds (``repro.runner.jobs``) in scheduling order: cheap
#: static checks first, fuzz campaigns (the most expensive unit) last.
JOB_KINDS = ("lint", "analyze", "check", "perturb", "fuzz")

#: The namespace prefix that marks a generated-system name
#: (``repro.gen.names``).
GEN_PREFIX = "gen:"

#: The synthetic "system" every fuzz shard runs against: a campaign
#: fuzzes *random* instances, so no shipped system name applies.
FUZZ_SYSTEM = "gen"

#: Instances in one campaign's fuzz run (``repro run --fuzz-count``),
#: split into shard jobs of at most :data:`FUZZ_COUNT_CAP` each.
FUZZ_CAMPAIGN = 100

#: Most instances one fuzz job may run: at ~1–2 s per instance, the cap
#: keeps a job inside a worker timeout instead of monopolising the pool.
FUZZ_COUNT_CAP = 500

#: Default cap on bounded exploration per linted automaton.
LINT_MAX_STATES = 2000


def key_parts(system: str) -> Dict[str, Any]:
    """The verdict-cache key parts a system's name adds to its source
    closure.  A generated system has no source file of its own, so it
    keys on ``(family, params, GEN_VERSION)``, and the fuzz campaign's
    synthetic system on ``GEN_VERSION``: bumping the generator orphans
    their verdicts.  A shipped system adds none."""
    if system.startswith(GEN_PREFIX):
        from repro.gen.names import cache_parts

        return cache_parts(system)
    if system == FUZZ_SYSTEM:
        from repro.gen.names import GEN_VERSION

        return {"gen_version": GEN_VERSION}
    return {}


# ----------------------------------------------------------------------
# Param validators: value -> canonical value, ValueError on nonsense
# ----------------------------------------------------------------------


#: The longest spelling and exponent a number may take, and its largest
#: numerator or denominator, so that a request value stays cheap to
#: parse, hash and print (``Fraction("1e999999999")`` alone would
#: compute a billion-digit power).
_MAX_SPELLING, _MAX_EXPONENT_DIGITS, _MAX_MAGNITUDE = 64, 3, 10**18


def exact(value: Any) -> Fraction:
    """An exact rational from an int, a ``Fraction``, a ``"3"``,
    ``"3/2"``, ``"1.5"`` or ``"1e-3"`` string, or a float's shortest
    decimal spelling, with numerator and denominator below 10**18.
    Booleans and anything else raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Fraction)):
        raise ValueError("expected a number, got {!r}".format(value))
    if isinstance(value, str) and (
        len(value) > _MAX_SPELLING
        or len(value.lower().partition("e")[2].lstrip("+-")) > _MAX_EXPONENT_DIGITS
    ):
        raise ValueError("expected a number, got {!r}".format(value[:_MAX_SPELLING]))
    try:
        number = Fraction(repr(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError):
        raise ValueError("expected a number, got {!r}".format(value))
    if abs(number.numerator) >= _MAX_MAGNITUDE or number.denominator >= _MAX_MAGNITUDE:
        raise ValueError("out of range: numerator and denominator must stay below 10**18")
    return number


def integer(value: Any) -> int:
    try:
        number = exact(value)
    except ValueError:
        number = None
    if number is None or number.denominator != 1:
        raise ValueError("expected an integer, got {!r}".format(value))
    return int(number)


def nonneg_int(value: Any) -> int:
    number = integer(value)
    if number < 0:
        raise ValueError("expected a nonnegative integer, got {}".format(number))
    return number


def positive_int(value: Any) -> int:
    number = integer(value)
    if number < 1:
        raise ValueError("expected a positive integer, got {}".format(number))
    return number


def nonneg_fraction(value: Any) -> str:
    number = exact(value)
    if number < 0:
        raise ValueError("expected a nonnegative number, got {}".format(number))
    return str(number)


def positive_fraction(value: Any) -> str:
    number = exact(value)
    if number <= 0:
        raise ValueError("expected a positive number, got {}".format(number))
    return str(number)


def _fuzz_job_count(value: Any) -> int:
    count = positive_int(value)
    if count > FUZZ_COUNT_CAP:
        raise ValueError("{} exceeds the per-job cap of {}".format(count, FUZZ_COUNT_CAP))
    return count


def boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false, got {!r}".format(value))
    return value


# ----------------------------------------------------------------------
# Job kinds
# ----------------------------------------------------------------------


class KindSpec(NamedTuple):
    """One job kind: ``params`` maps each param a client may set to its
    ``(default, validator)``; ``systems`` are the shipped systems the
    kind accepts, and ``gen`` whether ``gen:`` names apply too."""

    params: Dict[str, Tuple[Any, Callable[[Any], Any]]]
    systems: Tuple[str, ...]
    gen: bool = True

    def admit(self, raw: Dict[str, Any]) -> Dict[str, Any]:
        """Every param of this kind: ``raw``'s values validated over the
        defaults, each in its canonical spelling.  ``ValueError`` names
        the first unknown or malformed param."""
        unknown = sorted(set(raw) - set(self.params))
        if unknown:
            raise ValueError("unknown param(s): {}".format(", ".join(unknown)))
        params = {}
        for name, (default, validate) in self.params.items():
            try:
                params[name] = validate(raw.get(name, default))
            except ValueError as exc:
                raise ValueError("param {}: {}".format(name, exc))
        return params

    def admit_system(self, name: Any) -> str:
        """``name`` as this kind runs it: a shipped system as is, a
        ``gen:`` name (where generated systems apply) in its canonical
        spelling.  ``ValueError`` when the kind does not take ``name``;
        a malformed ``gen:`` name raises ``repro.gen``'s ``ReproError``."""
        if name in self.systems:
            return name
        if not (self.gen and isinstance(name, str) and name.startswith(GEN_PREFIX)):
            known = ", ".join(self.systems) + (" or a gen: name" if self.gen else "")
            raise ValueError("unknown system {!r}; known: {}".format(name, known))
        from repro.gen import parse

        return parse(name).name


#: The proof battery's sampling and budget (``check`` and ``perturb``).
_BATTERY = {
    "seeds": (2, positive_int),
    "steps": (40, positive_int),
    "seed": (0, integer),
    "max_states": (200_000, positive_int),
    "max_steps": (2_000_000, positive_int),
    "wall_time": ("60", positive_fraction),
}

#: ``kind -> KindSpec``, in :data:`JOB_KINDS` order.
KIND_SPECS: Dict[str, KindSpec] = {
    "lint": KindSpec(
        {"strict": (False, boolean), "max_states": (LINT_MAX_STATES, positive_int)},
        LINT_SYSTEMS,
    ),
    "analyze": KindSpec({"strict": (False, boolean)}, SURFACE_SYSTEMS),
    "check": KindSpec(_BATTERY, SURFACE_SYSTEMS),
    "perturb": KindSpec(dict(_BATTERY, epsilon=("1/32", nonneg_fraction)), SURFACE_SYSTEMS),
    "fuzz": KindSpec(
        {"count": (100, _fuzz_job_count), "seed": (0, integer), "start": (0, nonneg_int)},
        (FUZZ_SYSTEM,),
        gen=False,
    ),
}
