"""Differential fuzzing with ``repro.gen`` and persisting reproducers.

The library's fuzzing substrate is now a first-class subsystem.  This
example shows the full workflow:

1. run a small seeded campaign with :func:`repro.gen.fuzzer.run_campaign`
   — each instance is a random well-formed timed automaton whose anchor
   gap claim is decided independently by four proof methods (exhaustive
   mapping sweep, direct semantic inclusion, exact zone bounds, symbolic
   Fourier–Motzkin), with any split failing loudly;
2. serialise one instance as a JSON *reproducer* and re-run the oracle
   from the artifact alone — verdicts replay exactly, no randomness
   involved;
3. materialise a parametric family instance (``gen:relay_ring-6``) and
   peek at its generated bundle.

Run:  python examples/fuzz_and_persist.py
"""

import os
import tempfile

from repro.table import Table
from repro.gen import build_bundle, sample_names
from repro.gen.fuzzer import load_reproducer, run_campaign, write_reproducer


def main() -> None:
    # 1. A seeded differential campaign.  Same seed => same instances,
    #    same verdicts, byte-identical report — campaigns shard freely.
    report = run_campaign(count=5, seed=2026)
    table = Table(
        "differential fuzz — four proof methods per instance",
        ["index", "cells", "claim kind", "expected", "mapping", "semantic",
         "zones", "symbolic", "agree"],
    )
    for inst in report.instances:
        table.add_row(
            inst.index,
            len(inst.recipe["cells"]),
            inst.recipe["claim"]["kind"],
            inst.expected,
            inst.verdicts["mapping"],
            inst.verdicts["semantic"],
            inst.verdicts["zones"],
            inst.verdicts["symbolic"],
            inst.agree,
        )
    table.print()
    print()
    print(report.detail)
    assert report.ok, "method disagreement: an engine has a bug"

    # 2. Reproducer round trip: the artifact alone rebuilds the exact
    #    instance and replays the exact verdicts.
    inst = report.instances[0]
    with tempfile.TemporaryDirectory() as artifacts:
        path = write_reproducer(inst, artifacts)
        replayed = load_reproducer(path)
        assert replayed.verdicts == inst.verdicts
        assert replayed.expected == inst.expected
        print(
            "reproducer {} replayed: verdicts identical".format(
                os.path.basename(path)
            )
        )

    # 3. Parametric families: any gen:<family>-<params> name yields a
    #    fully formed system bundle (automaton, boundmap, obligations,
    #    declared closed-form bounds) accepted by check/lint/analyze.
    bundle = build_bundle("gen:relay_ring-6")
    described = bundle.describe_dict()
    print()
    print("gen:relay_ring-6 bundle:")
    print("  classes: {}".format(", ".join(sorted(described["boundmap"]))))
    print("  declared bounds: {}".format(
        {b.label: repr(b.declared) for b in bundle.bounds()}
    ))
    print("  obligations: {}".format(
        {o.obligation: o.verdict.value for o in bundle.obligations()}
    ))
    print()
    print("one sample per family: {}".format(", ".join(sample_names())))


if __name__ == "__main__":
    main()
