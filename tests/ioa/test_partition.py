"""Tests for partitions of locally controlled actions."""

import pickle

import pytest

from repro.errors import PartitionError
from repro.ioa.actions import ActionSignature
from repro.ioa.partition import Partition, PartitionClass


class TestPartitionClass:
    def test_empty_class_rejected(self):
        with pytest.raises(PartitionError):
            PartitionClass("C", frozenset())

    def test_membership(self):
        cls = PartitionClass("C", {"a", "b"})
        assert "a" in cls and "c" not in cls

    def test_actions_coerced(self):
        cls = PartitionClass("C", ["a"])
        assert isinstance(cls.actions, frozenset)

    def test_equal_classes_hash_equal(self):
        cls = PartitionClass("C", ["a", "b"])
        twin = PartitionClass("C", {"b", "a"})
        assert cls == twin and hash(cls) == hash(twin)
        assert cls != PartitionClass("D", ["a", "b"])
        assert {cls: 1}[twin] == 1
        revived = pickle.loads(pickle.dumps(cls))
        assert revived == cls and hash(revived) == hash(cls)


class TestPartition:
    def test_duplicate_names_rejected(self):
        with pytest.raises(PartitionError):
            Partition.from_pairs([("C", ["a"]), ("C", ["b"])])

    def test_overlapping_actions_rejected(self):
        with pytest.raises(PartitionError):
            Partition.from_pairs([("C", ["a"]), ("D", ["a"])])

    def test_class_lookup_by_name(self):
        part = Partition.from_pairs([("C", ["a"])])
        assert part["C"].actions == {"a"}

    def test_unknown_name(self):
        part = Partition.from_pairs([("C", ["a"])])
        with pytest.raises(PartitionError):
            part["D"]

    def test_contains_name(self):
        part = Partition.from_pairs([("C", ["a"])])
        assert "C" in part and "D" not in part

    def test_class_of(self):
        part = Partition.from_pairs([("C", ["a"]), ("D", ["b"])])
        assert part.class_of("a").name == "C"
        assert part.class_of("zzz") is None

    def test_order_preserved(self):
        part = Partition.from_pairs([("Z", ["z"]), ("A", ["a"])])
        assert part.names == ("Z", "A")

    def test_singletons(self):
        part = Partition.singletons(["a", "b"])
        assert len(part) == 2
        assert part.class_of("a") is not None

    def test_covered_actions(self):
        part = Partition.from_pairs([("C", ["a", "b"]), ("D", ["c"])])
        assert part.covered_actions() == {"a", "b", "c"}

    def test_validate_against_ok(self):
        sig = ActionSignature(outputs={"a"}, internals={"b"})
        Partition.from_pairs([("C", ["a", "b"])]).validate_against(sig)

    def test_validate_missing(self):
        sig = ActionSignature(outputs={"a"}, internals={"b"})
        with pytest.raises(PartitionError):
            Partition.from_pairs([("C", ["a"])]).validate_against(sig)

    def test_validate_extra(self):
        sig = ActionSignature(outputs={"a"})
        with pytest.raises(PartitionError):
            Partition.from_pairs([("C", ["a", "x"])]).validate_against(sig)

    def test_validate_inputs_not_covered(self):
        sig = ActionSignature(inputs={"i"}, outputs={"a"})
        # inputs are not locally controlled, so they must not be covered
        with pytest.raises(PartitionError):
            Partition.from_pairs([("C", ["a", "i"])]).validate_against(sig)

    def test_iteration(self):
        part = Partition.from_pairs([("C", ["a"]), ("D", ["b"])])
        assert [c.name for c in part] == ["C", "D"]
