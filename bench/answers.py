"""The answer oracle: what every verdict the benchmark asks for must be.

Written by hand from the paper and the shipped systems' documented
expectations, never from the program's output.  ``True`` means the
property the command decides holds for that system.

- Every shipped system is correct except ``fischer-tight``, shipped
  with a = b so that two processes can both enter the critical section:
  its analysis is REFUTED and its nominal check fails.
- ``rm`` holds by Theorem 4.4.  At this commit ``python -m repro check
  rm`` reports FAIL anyway, because its untimed exploration stops at
  the 4 000-state cap; the answer below stays the paper's, and the
  cli-oneshot mix leaves that one operation out (see README.md).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Tuple

#: (kind, system) -> the property holds.  ``lint`` holds when the
#: system lints clean, ``analyze`` when no obligation is refuted and
#: the derived bounds agree, ``check`` when exploration, mappings and
#: the proof battery all pass.
ANSWERS: Dict[Tuple[str, str], bool] = {
    ("lint", "rm"): True,
    ("lint", "relay"): True,
    ("lint", "fischer"): True,
    ("lint", "peterson"): True,
    ("lint", "tournament"): True,
    ("lint", "chain"): True,
    ("lint", "request-grant"): True,
    ("lint", "interrupt"): True,
    ("analyze", "rm"): True,  # Theorem 4.4
    ("analyze", "relay"): True,  # Theorem 6.4
    ("analyze", "chain"): True,
    ("analyze", "fischer"): True,  # a < b: mutual exclusion holds
    ("analyze", "fischer-tight"): False,  # a = b: the race is reachable
    ("analyze", "peterson"): True,
    ("analyze", "tournament"): True,
    ("check", "rm"): True,  # Theorem 4.4
    ("check", "relay"): True,
    ("check", "chain"): True,
    ("check", "fischer"): True,
    ("check", "fischer-tight"): False,
    ("check", "peterson"): True,
    ("check", "tournament"): True,
}

#: deep-verify problem -> its answer.  Exploration sizes are exact:
#: the explorer is deterministic, so a count that moves is a bug.
DEEP_ANSWERS: Dict[str, Dict[str, Any]] = {
    # Fischer with a=1 < b=2 is mutually exclusive for every n.
    "zones-fischer-4": {"safe": True},
    # The Section 6 relay hierarchy maps level to level at any length.
    "mapping-relay_line-3": {"holds": True},
    # The Section 4.3 mapping (Theorem 4.4) on a finer grid.
    "mapping-rm": {"holds": True},
    "explore-fischer-5": {"states": 3552},
    "explore-tournament-4": {"states": 3764},
    "battery-relay_line-7": {"holds": True, "conclusive": True},
    # Above n = 3 the Fischer battery is a bounded sweep by design:
    # it passes but never claims to be conclusive.
    "battery-fischer-6": {"holds": True, "conclusive": False},
    "analyze-shipped": {
        system: holds for (kind, system), holds in ANSWERS.items() if kind == "analyze"
    },
}


def cli_verdict_ok(kind: str, system: str, returncode: int, entry: Dict[str, Any]) -> bool:
    """Whether one ``python -m repro <kind> <system> --json`` answer
    matches the table: right verdict and exit code 0 (a refuted
    expected-broken system is the expected finding, not a failure)."""
    holds = ANSWERS[(kind, system)]
    if kind == "check":
        said = bool(entry["ok"])
    else:
        said = not entry["fails"]["default"]
    return returncode == 0 and said == holds


def served_verdict_ok(kind: str, system: str, result: Dict[str, Any]) -> bool:
    """Whether one served job result matches the table.  A served
    ``check`` is the proof battery at drift 0, which holds for rm."""
    if result.get("status") not in ("ok", "verdict"):
        return False
    return bool(result.get("ok")) == ANSWERS[(kind, system)]


def fuzz_truth(recipe: Dict[str, Any]) -> bool:
    """Ground truth of a fuzz recipe's claim, from its construction: an
    always-enabled anchor cell attains exactly its bound window between
    firings, so the gap claim holds iff it contains that window."""
    anchor = recipe["cells"][0]
    claim = recipe["claim"]
    return Fraction(claim["lo"]) <= Fraction(anchor["lo"]) and Fraction(
        anchor["hi"]
    ) <= Fraction(claim["hi"])


def fuzz_verdict_ok(recipe: Dict[str, Any], instance) -> bool:
    """Every determinate leg agrees with the constructed truth, the
    instance linted clean and no leg truncated (the frozen pool holds
    only instances whose every leg is exact)."""
    truth = fuzz_truth(recipe)
    return (
        not instance.lint_errors
        and not instance.truncated
        and instance.expected == truth
        and all(verdict == truth for verdict in instance.verdicts.values())
    )
