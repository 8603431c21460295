"""Tests for actions and action signatures (Section 2.1)."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.errors import SignatureError
from repro.ioa.actions import Act, ActionSignature, Kind, act


class TestAct:
    def test_equality_by_value(self):
        assert Act("SIGNAL", (1,)) == Act("SIGNAL", (1,))

    def test_inequality_on_args(self):
        assert Act("SIGNAL", (1,)) != Act("SIGNAL", (2,))

    def test_inequality_on_name(self):
        assert Act("TICK") != Act("TOCK")

    def test_hashable(self):
        assert len({Act("A"), Act("A"), Act("B")}) == 2

    def test_act_helper(self):
        assert act("SIGNAL", 3) == Act("SIGNAL", (3,))

    def test_repr_without_args(self):
        assert repr(Act("GRANT")) == "GRANT"

    def test_repr_with_args(self):
        assert repr(act("SIGNAL", 2)) == "SIGNAL(2)"

    def test_ordering(self):
        assert Act("A") < Act("B")


# Run in a child with another hash seed: unpickle the parent's actions,
# build the same ones afresh, and report how they compare.
_CHILD = """
import pickle, sys
from repro.ioa.actions import Act
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
built = [Act("SIGNAL", (1, "x")), Act("GRANT"), Act("SETFLAG", (("p", 2), "up"))]
print(repr(hash("SIGNAL")))
print(all(a == b and hash(a) == hash(b) for a, b in zip(loaded, built)))
print(all(a in set(built) and {b: 1}.get(a) == 1 for a, b in zip(loaded, built)))
print(" ".join(repr(hash(a)) for a in loaded))
"""


class TestActHash:
    ACTS = [Act("SIGNAL", (1, "x")), Act("GRANT"), Act("SETFLAG", (("p", 2), "up"))]

    def test_equal_acts_hash_equal(self):
        for a in self.ACTS:
            twin = act(a.name, *a.args)
            assert twin == a and hash(twin) == hash(a)
            # The value the generated dataclass hash gave: set and dict
            # iteration orders over actions do not move.
            assert hash(a) == hash((a.name, a.args))

    def test_sort_order_unchanged(self):
        acts = [act("B", 2), act("A"), act("B", 1), act("A", 3), act("B", 1, 0)]
        assert sorted(acts) == sorted(acts, key=lambda a: (a.name, a.args))
        assert [repr(a) for a in sorted(acts)] == ["A", "A(3)", "B(1)", "B(1, 0)", "B(2)"]

    def test_copies_rebuild(self):
        for a in self.ACTS:
            for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert twin == a and hash(twin) == hash(a)

    def test_pickle_across_hash_seeds(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
        )
        child = subprocess.run(
            [sys.executable, "-c", _CHILD],
            input=pickle.dumps(self.ACTS).hex(),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        salt, equal, found, hashes = child.stdout.splitlines()
        assert int(salt) != hash("SIGNAL")  # the child's strings hash differently
        assert equal == "True"
        assert found == "True"
        # No hash computed here crossed the pickle.
        assert [int(h) for h in hashes.split()] != [hash(a) for a in self.ACTS]


class TestActionSignature:
    def test_disjointness_enforced(self):
        with pytest.raises(SignatureError):
            ActionSignature(inputs={"a"}, outputs={"a"})

    def test_disjointness_internal(self):
        with pytest.raises(SignatureError):
            ActionSignature(outputs={"a"}, internals={"a"})

    def test_external(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert sig.external == {"i", "o"}

    def test_locally_controlled(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert sig.locally_controlled == {"o", "n"}

    def test_all_actions(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert sig.all_actions == {"i", "o", "n"}

    def test_kind_of(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert sig.kind_of("i") == Kind.INPUT
        assert sig.kind_of("o") == Kind.OUTPUT
        assert sig.kind_of("n") == Kind.INTERNAL

    def test_kind_of_unknown(self):
        sig = ActionSignature(inputs={"i"})
        with pytest.raises(SignatureError):
            sig.kind_of("zzz")

    def test_contains(self):
        sig = ActionSignature(inputs={"i"})
        assert sig.contains("i")
        assert not sig.contains("o")

    def test_is_external(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert sig.is_external("i") and sig.is_external("o")
        assert not sig.is_external("n")

    def test_is_locally_controlled(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert not sig.is_locally_controlled("i")
        assert sig.is_locally_controlled("o") and sig.is_locally_controlled("n")

    def test_hide_moves_outputs_to_internal(self):
        sig = ActionSignature(outputs={"o1", "o2"})
        hidden = sig.hide(["o1"])
        assert hidden.outputs == {"o2"}
        assert hidden.internals == {"o1"}

    def test_hide_rejects_non_outputs(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"})
        with pytest.raises(SignatureError):
            sig.hide(["i"])

    def test_hide_preserves_inputs(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"})
        assert sig.hide(["o"]).inputs == {"i"}

    def test_empty_signature(self):
        sig = ActionSignature()
        assert sig.all_actions == frozenset()

    def test_sets_coerced_to_frozensets(self):
        sig = ActionSignature(inputs=["i"], outputs=["o"])
        assert isinstance(sig.inputs, frozenset)
        assert isinstance(sig.outputs, frozenset)

    def test_describe_mentions_all_kinds(self):
        sig = ActionSignature(inputs={"i"}, outputs={"o"}, internals={"n"})
        text = sig.describe()
        assert "'i'" in text and "'o'" in text and "'n'" in text
