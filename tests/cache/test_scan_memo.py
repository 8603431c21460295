"""The module-scan memo (:func:`repro.cache.fingerprint._scan` with a
``memo``): a scan that takes hashes and import edges from the last
stored scan must key exactly as a scan that reads every file.

The oracle is a from-scratch scan of the same tree: after each edit,
touch, same-size rewrite, added or removed module, relocation, racy
edit or damaged memo, the memoised scan's hashes, edges and closure
digests equal it.
"""

import ast
import builtins
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.cache import fingerprint
from repro.cache.store import DirBackend, VerdictCache

#: ``(kind, system)`` pairs whose closure digests the oracle compares.
PAIRS = [
    ("lint", "rm"),
    ("analyze", "relay"),
    ("check", "rm"),
    ("check", "gen:fischer-3"),
    ("fuzz", "gen:relay_ring-2"),
    ("nonesuch", "rm"),
]

#: Longer than :data:`~repro.cache.fingerprint._RACY_WINDOW_NS`: a file
#: changed this long before a scan began is trusted by its stat.
SETTLE_S = 0.05


@pytest.fixture(autouse=True)
def _own_scans(monkeypatch):
    monkeypatch.setattr(fingerprint, "_SCANS", {})


def _package_root():
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "a" / "repro"
    shutil.copytree(_package_root(), root, ignore=shutil.ignore_patterns("__pycache__"))
    time.sleep(SETTLE_S)
    return str(root)


@pytest.fixture
def memo(tmp_path):
    return DirBackend(str(tmp_path / "cache"))


def _view(root, memo=None):
    """What a scan keys on: hashes, resolved edges, partition sets and
    the closure digests of :data:`PAIRS`."""
    fingerprint._SCANS.pop(root, None)
    scan = fingerprint._scan(root, memo)
    fingerprint._SCANS.pop(root, None)
    return {
        "hashes": dict(scan.hashes),
        "edges": {name: sorted(edges) for name, edges in scan.edges.items()},
        "barriers": sorted(scan.barrier_inits),
        "opaque": sorted(scan.opaque_inits),
        "digests": [fingerprint._closure_digest(scan, kind, system) for kind, system in PAIRS],
    }


def _agree(root, memo):
    """The memoised scan keys as a from-scratch one; returns the view."""
    memoised = _view(root, memo)
    assert memoised == _view(root)
    return memoised


def _warm(root, memo):
    """Store a scan, and let the files age out of its racy window."""
    _view(root, memo)
    time.sleep(SETTLE_S)
    _view(root, memo)


def _rewrite_same_size(path):
    with open(path, "rb") as fh:
        source = fh.read()
    index = source.index(b'"""') + 3
    with open(path, "wb") as fh:
        fh.write(source[:index] + source[index:index + 1].swapcase() + source[index + 1:])


class TestMemoAgreesWithAFullScan:
    def test_cold_and_warm(self, tree, memo):
        cold = _agree(tree, memo)
        assert memo.load_scan() is not None
        time.sleep(SETTLE_S)
        assert _agree(tree, memo) == cold

    def test_edit(self, tree, memo):
        _warm(tree, memo)
        before = _view(tree, memo)
        path = os.path.join(tree, "systems", "resource_manager.py")
        with open(path, "a") as fh:
            fh.write("\n# edited\n")
        after = _agree(tree, memo)
        assert after["digests"][0] != before["digests"][0]

    def test_touch(self, tree, memo):
        _warm(tree, memo)
        before = _view(tree, memo)
        os.utime(os.path.join(tree, "lint", "rules.py"))
        assert _agree(tree, memo) == before

    def test_same_size_rewrite_with_its_mtime_put_back(self, tree, memo):
        _warm(tree, memo)
        before = _view(tree, memo)
        path = os.path.join(tree, "systems", "mappings_rm.py")
        stat = os.stat(path)
        _rewrite_same_size(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        # Only the ctime tells the stored record from the file now.
        assert _agree(tree, memo)["digests"][0] != before["digests"][0]

    def test_module_added_then_removed(self, tree, memo):
        _warm(tree, memo)
        before = _view(tree, memo)
        extra = os.path.join(tree, "lint", "extra.py")
        with open(extra, "w") as fh:
            fh.write("from repro.systems import resource_manager\n")
        added = _agree(tree, memo)
        assert "repro.lint.extra" in added["hashes"]
        assert added["edges"]["repro.lint.extra"]
        os.unlink(extra)
        assert _agree(tree, memo) == before

    def test_tree_copied_to_another_path(self, tree, memo, tmp_path):
        _warm(tree, memo)
        before = _view(tree, memo)
        # copy2 keeps each file's size and mtime; only the path differs.
        moved = str(tmp_path / "b" / "repro")
        shutil.copytree(tree, moved)
        assert _agree(moved, memo) == before

    def test_racy_edit_inside_the_window(self, tree, memo):
        _warm(tree, memo)
        before = _view(tree, memo)
        name = "repro.systems.mappings_rm"
        path = os.path.join(tree, "systems", "mappings_rm.py")
        _rewrite_same_size(path)
        # As if the edit had landed in the same clock tick as the
        # stored scan's read: the record carries the file's stat as it
        # is now, with the old hash.  Its ctime falls inside the racy
        # window of the scan, so the record must not be trusted.
        stat = os.stat(path)
        body = json.loads(memo.load_scan())
        body["modules"][name][1:4] = [stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns]
        body["started_ns"] = stat.st_ctime_ns + fingerprint._RACY_WINDOW_NS // 2
        memo.save_scan(json.dumps(body).encode())
        after = _agree(tree, memo)
        assert after["hashes"][name] != before["hashes"][name]

    @pytest.mark.parametrize("field", [0, 1, 2, 3])
    def test_a_record_that_differs_from_the_file_is_not_trusted(self, tree, memo, field):
        # The file is old, so the racy rule alone would trust it: only
        # the path or a stat field tells the record is not this file's.
        _warm(tree, memo)
        name = "repro.systems.mappings_rm"
        body = json.loads(memo.load_scan())
        record = body["modules"][name]
        record[field] = record[field] + ("x" if field == 0 else -1)
        record[4] = "0" * 64
        memo.save_scan(json.dumps(body).encode())
        assert _agree(tree, memo)["hashes"][name] != "0" * 64

    @pytest.mark.parametrize(
        "damage",
        ["torn", "garbage", "not-utf8", "list", "scanner", "bad-record"],
    )
    def test_damaged_memo_reads_as_empty(self, tree, memo, damage):
        _warm(tree, memo)
        data = memo.load_scan()
        body = json.loads(data)
        if damage == "torn":
            data = data[: len(data) // 2]
        elif damage == "garbage":
            data = b"\x00not json at all"
        elif damage == "not-utf8":
            data = b"\xff\xfe\xfa"
        elif damage == "list":
            data = b"[1, 2, 3]"
        elif damage == "scanner":
            data = json.dumps(dict(body, scanner=[0, 0, 0])).encode()
        else:
            body["modules"]["repro.surface"] = ["x", 1, 2, 3, None, []]
            data = json.dumps(body).encode()
        memo.save_scan(data)
        if damage == "bad-record":
            records, _ = fingerprint._load_memo(memo)
            assert records and "repro.surface" not in records
        else:
            assert fingerprint._load_memo(memo) == ({}, 0)
        _agree(tree, memo)

    def test_two_processes_writing_at_once(self, tree, memo):
        # Each round touches a module, so every scan re-hashes it and
        # writes the memo; two such loops race on the one file.
        script = (
            "import os, sys\n"
            "from repro.cache import fingerprint\n"
            "from repro.cache.store import DirBackend\n"
            "root, memo = sys.argv[1], DirBackend(sys.argv[2])\n"
            "for _ in range(15):\n"
            "    os.utime(os.path.join(root, sys.argv[3]))\n"
            "    fingerprint._SCANS.clear()\n"
            "    fingerprint._scan(root, memo)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(_package_root()))
        loops = [
            subprocess.Popen(
                [sys.executable, "-c", script, tree, memo.root, relpath], env=env
            )
            for relpath in ("serve/app.py", "lint/rules.py")
        ]
        assert [loop.wait(timeout=120) for loop in loops] == [0, 0]
        records, _ = fingerprint._load_memo(memo)
        assert len(records) == len(_view(tree)["hashes"])
        _agree(tree, memo)
        leftovers = [n for n in os.listdir(os.path.dirname(memo._scan_path())) if n.endswith(".tmp")]
        assert leftovers == []


class TestMemoHit:
    def test_full_hit_reads_no_source_and_parses_nothing(self, tree, memo, monkeypatch):
        _warm(tree, memo)
        expected = _view(tree)
        opened, parsed = [], []
        real_open, real_parse = builtins.open, ast.parse

        def spy_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if not isinstance(file, int) else file)
            return real_open(file, *args, **kwargs)

        def spy_parse(*args, **kwargs):
            parsed.append(args)
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(ast, "parse", spy_parse)
        view = _view(tree, memo)
        monkeypatch.undo()
        assert view == expected
        assert not [path for path in opened if str(path).endswith(".py")]
        assert parsed == []

    def test_a_hit_writes_nothing(self, tree, memo):
        _warm(tree, memo)
        stored = os.stat(memo._scan_path())
        _view(tree, memo)
        assert os.stat(memo._scan_path()).st_mtime_ns == stored.st_mtime_ns

    def test_verdict_key_is_the_same_with_and_without_a_memo(self, memo):
        parts = {"seeds": 2}
        plain = fingerprint.verdict_key("lint", "rm", parts)
        for _ in range(2):  # the memo's first write, then a hit
            fingerprint._SCANS.clear()
            assert fingerprint.verdict_key("lint", "rm", parts, memo) == plain
            time.sleep(SETTLE_S)


class TestWhereTheMemoLives:
    def test_dir_backend_keeps_it_beside_the_entries(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        assert cache.scan_memo is cache.backend
        cache.lookup("lint", "rm", {})
        assert os.path.isfile(os.path.join(str(tmp_path), "cache", "v1", "scan.json"))

    def test_a_backend_without_a_directory_has_none(self, tmp_path):
        from repro.serve.backends import SqliteBackend

        cache = VerdictCache(backend=SqliteBackend(str(tmp_path / "pool.db")))
        assert cache.scan_memo is None
        assert cache.lookup("lint", "rm", {}) is None

    def test_an_unwritable_memo_is_not_an_error(self, tree, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        _agree(tree, DirBackend(str(blocker)))
