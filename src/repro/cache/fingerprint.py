"""Content-addressing for the verdict cache.

A cached verdict is only reusable while *nothing that produced it*
changed.  Verdict keys therefore fold in a **dependency-closure
fingerprint**: every module is hashed individually, an AST-level import
graph is extracted once per process, and each ``(kind, system)`` pair
is fingerprinted over just the modules its computation can actually
reach — the kind's engine modules (:data:`KIND_ROOTS`), the system's
defining modules (:data:`SYSTEM_SEEDS`), and everything they
transitively import.  Editing ``repro.serve`` no longer invalidates a
cached ``check rm`` verdict; editing ``repro.systems.resource_manager``
or ``repro.zones.dbm`` still does.

Five properties keep this sound:

* **Name-level resolution through the systems package.**  The system
  table (:mod:`repro.surface`) imports *every* system, which at module
  granularity would weld all systems together.  Imports into ``repro.systems``'s package ``__init__``\\ s
  are resolved per-name to the defining submodule, and edges into
  system modules are then admitted only for the system under test
  (plus its genuine intra-``systems`` dependencies, which are followed
  transitively — e.g. ``interrupt`` depends on ``resource_manager``).
* **Whole-package fallback.**  An unknown kind or system (a fuzz
  shard's synthetic ``gen`` system) falls back to the closure over
  *all* modules — exactly the old whole-package key, so unknown work
  is never under-keyed.
* **Frozen-closure guard.**  A key is hashed from the files as this
  process scanned them, and it is the key of the code the process runs
  as long as that code was imported after the scan and the scan is
  never redone: a process keeps one scan for its life, and every store
  of a verdict uses the key of the process that computed it.  A
  forkserver child runs code imported right after its server's scan
  (:func:`freeze`), so its keys match its code even after the files
  change; :func:`closure_current` re-stats its closure against the
  scan's ``(path, size, mtime_ns)`` records to tell it that its code is
  outdated (a file whose mtime is not older than the scan is racy, as
  in git's index, and re-hashed), so the transport can start a
  forkserver that imports the new code.
* **A scan memo trusted by stat and age.**  A verdict cache with a
  directory keeps the last scan beside its entries
  (``<root>/v1/scan.json``): per module its path, ``(size, mtime_ns,
  ctime_ns)``, hash and raw import edges, and the scan's start.  A
  process's first key (:func:`verdict_key` with ``memo``) stats every
  module and reuses a stored record only when path and stat match and
  the file's ctime is older than the stored scan's start less
  :data:`_RACY_WINDOW_NS` (git's racy rule).  The ctime, which only the
  kernel sets, is what catches a same-size rewrite whose mtime was put
  back (``touch -r``, ``cp -p``, ``tar x``).  Any other file is read,
  hashed and parsed as before, so a miss costs the cold scan of the
  changed files plus one atomic memo write; a full hit reads no source
  (~5 ms against ~20 ms for 120 modules).  A torn, garbage or foreign
  memo reads as empty, and keys are the same with or without one.
* **ENGINE_VERSION escape hatch.**  Orchestration-only modules
  (``repro.cli``, ``repro.runner``, ``repro.serve``, ``repro.dist``)
  are deliberately outside the closures of the kinds they drive; a
  semantic change there (or in any non-``.py`` input) must bump
  :data:`ENGINE_VERSION`, which invalidates every entry at once.

:func:`source_fingerprint` (the old whole-package hash) is retained —
CI still uses it as its ``actions/cache`` restore key, and it remains
the fallback fingerprint.  :func:`verdict_key` derives one entry's
address from the closure fingerprint plus the job's own identity:
kind, system, and canonical JSON of the parameters that feed the check
(budget caps, seeds, grid…).
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import time
from fractions import Fraction
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

__all__ = [
    "ENGINE_VERSION",
    "KIND_ROOTS",
    "SYSTEM_SEEDS",
    "FAMILY_SEEDS",
    "closure_current",
    "closure_fingerprint",
    "dependency_closure",
    "engine_modules",
    "forget_scan",
    "freeze",
    "source_fingerprint",
    "verdict_key",
]

#: Bump to invalidate every cached verdict without touching source.
#: v2: flat-matrix zone engine + dependency-closure fingerprints.
#: v3: ``check`` no longer stores truncated explorations as conclusive
#: FAILs; lint/analyze keys drop their rule-set part.
#: v4: ``check`` requires the zone graph, not the untimed exploration,
#: to finish on a closed system.
ENGINE_VERSION = 4

#: ``kind -> package-relative module/package roots`` of the computation
#: that produces the verdict.  A root naming a package pulls in every
#: module under it.  Kinds absent here fall back to the whole package.
KIND_ROOTS: Dict[str, Tuple[str, ...]] = {
    # Every module that registers a rule keys the rule-backed kinds, so
    # a new or edited rule invalidates their verdicts; the interference
    # rules (R015+) live in ``analyze`` but share the lint registry.
    # ``surface`` declares every system's canonical build and facts.
    "lint": ("lint", "analyze.interference", "surface"),
    "analyze": ("analyze", "surface"),
    "analyze-mapping": ("analyze", "surface"),
    "check": ("analyze", "core", "faults", "ioa", "surface"),
    "perturb": ("faults", "surface"),
    "fuzz": ("gen",),
}

#: ``system -> package-relative modules defining it`` inside the
#: partitioned ``systems`` package.  Intra-``systems`` imports of these
#: seeds are followed transitively, so only entry modules are listed.
#: ``gen:`` names take their family's :data:`FAMILY_SEEDS`; systems
#: absent from both fall back to the whole package.
SYSTEM_SEEDS: Dict[str, Tuple[str, ...]] = {
    "rm": ("systems.resource_manager", "systems.mappings_rm"),
    "relay": ("systems.signal_relay",),
    "fischer": ("systems.extensions.fischer",),
    "fischer-tight": ("systems.extensions.fischer",),
    "peterson": ("systems.extensions.peterson",),
    "tournament": ("systems.extensions.tournament",),
    "chain": ("systems.extensions.chain",),
    "request-grant": ("systems.extensions.request_grant",),
    "interrupt": ("systems.extensions.interrupt_manager",),
}

#: ``gen family -> package-relative systems modules its builder uses``
#: (:mod:`repro.gen.families`).  A family whose shape also ships is
#: built by that system's builder and shares its seeds; the ring has no
#: system module, and the tree rides on the chain.  A family absent
#: here falls back to the whole package.
FAMILY_SEEDS: Dict[str, Tuple[str, ...]] = {
    "fischer": SYSTEM_SEEDS["fischer"],
    "relay_line": SYSTEM_SEEDS["relay"],
    "relay_ring": (),
    "relay_tree": SYSTEM_SEEDS["chain"],
    "tournament": SYSTEM_SEEDS["tournament"],
}

#: A file whose mtime falls this close to (or after) the start of the
#: scan that hashed it is *racy*: the coarse filesystem clock lags the
#: real one by up to a scheduler tick, so a same-size edit made just
#: after the scan could carry the very mtime the scan recorded.  A racy
#: file is re-hashed rather than trusted by its stat.
_RACY_WINDOW_NS = 20_000_000

#: ``source root -> hex digest`` memo; the package source cannot change
#: under a running process, so one walk per process suffices.
_FINGERPRINTS: Dict[str, str] = {}

#: ``root -> scan`` memo (module hashes, import graph, file stats and
#: the closure fingerprints hashed from them).
_SCANS: Dict[str, "_Scan"] = {}


def source_fingerprint(root: Optional[str] = None) -> str:
    """SHA-256 over the ``repro`` package source + engine version.

    The whole-package hash: any edit anywhere changes it.  Still used
    as CI's ``actions/cache`` restore key and as the fallback
    fingerprint for unknown kinds/systems."""
    root = _default_root(root)
    cached = _FINGERPRINTS.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update("engine:{}".format(ENGINE_VERSION).encode("ascii"))
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if filename.endswith(".py"):
                sources.append(os.path.join(dirpath, filename))
    sources.sort(key=lambda path: os.path.relpath(path, root))
    for path in sources:
        digest.update(b"\x00")
        digest.update(os.path.relpath(path, root).encode("utf-8"))
        digest.update(b"\x00")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    _FINGERPRINTS[root] = digest.hexdigest()
    return _FINGERPRINTS[root]


# ----------------------------------------------------------------------
# Module scan: per-module hashes + AST import graph
# ----------------------------------------------------------------------


class _Scan:
    """One walk of a package root: per-module content hashes, the
    intra-package import graph (name-resolved through the partitioned
    ``systems`` ``__init__``\\ s), and the partition metadata."""

    __slots__ = (
        "package",
        "frozen",
        "started_ns",
        "hashes",
        "files",
        "edges",
        "barrier_inits",
        "opaque_inits",
        "closures",
        "subtrees",
    )

    def __init__(self, package: str):
        self.package = package
        #: set by :func:`freeze`: this process's code was imported after
        #: the scan, and no later than the files it records
        self.frozen = False
        #: wall clock (ns) when the walk began, before any file was read
        self.started_ns = time.time_ns()
        #: dotted module name -> sha256 hex of its source bytes
        self.hashes: Dict[str, str] = {}
        #: dotted module name -> ``(path, size, mtime_ns)`` its hash was
        #: read under (stat taken before the read)
        self.files: Dict[str, Tuple[str, int, int]] = {}
        #: dotted module name -> imported dotted module names
        self.edges: Dict[str, Set[str]] = {}
        #: partitioned package ``__init__``\\ s whose re-exports were
        #: all name-resolved — their own edges need not be followed.
        self.barrier_inits: Set[str] = set()
        #: partitioned ``__init__``\\ s with at least one unresolved
        #: import — followed conservatively.
        self.opaque_inits: Set[str] = set()
        #: ``(kind-or-*, system class) -> hex digest`` of closures hashed
        #: from this scan; dropped with it
        self.closures: Dict[Tuple[str, str], str] = {}
        #: dotted prefix -> the modules at or under it, indexed by the
        #: first :meth:`under` once every module is hashed
        self.subtrees: Optional[Dict[str, Tuple[str, ...]]] = None

    # -- partition helpers ------------------------------------------------

    @property
    def systems_prefix(self) -> str:
        return self.package + ".systems"

    def partitioned(self, module: str) -> bool:
        """True for modules inside the per-system partition (everything
        under ``<pkg>.systems``, the package ``__init__``\\ s included)."""
        prefix = self.systems_prefix
        return module == prefix or module.startswith(prefix + ".")

    def under(self, prefix: str) -> Tuple[str, ...]:
        """All scanned modules at or under a dotted prefix, in scan
        order.  One pass over the modules indexes every prefix, so each
        call is a lookup."""
        if self.subtrees is None:
            subtrees: Dict[str, List[str]] = {}
            for name in self.hashes:
                parts = name.split(".")
                for end in range(1, len(parts) + 1):
                    subtrees.setdefault(".".join(parts[:end]), []).append(name)
            self.subtrees = {key: tuple(names) for key, names in subtrees.items()}
        return self.subtrees.get(prefix, ())


def _default_root(root: Optional[str]) -> str:
    if root is None:
        import repro

        return os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.abspath(root)


def _module_name(package: str, relpath: str) -> str:
    parts = relpath.replace(os.sep, "/").split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join([package] + parts)


def _scan(root: str, memo: Any = None) -> _Scan:
    """This process's scan of ``root``, made on first use.  ``memo``
    (see :func:`verdict_key`) lets the first scan take a module's hash
    and raw edges from the last scan that stored them, for every file
    whose stat says it has not changed since."""
    cached = _SCANS.get(root)
    if cached is not None:
        return cached
    package = os.path.basename(root.rstrip(os.sep)) or "repro"
    scan = _Scan(package)
    paths: Dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            name = _module_name(package, os.path.relpath(path, root))
            paths[name] = path
    known, trusted_before = _load_memo(memo)
    records: Dict[str, list] = {}
    read = False
    for name, path in paths.items():
        record = known.get(name)
        if not _still_valid(record, path, trusted_before):
            record = _read_module(package, name, path)
            read = True
        path, size, mtime_ns, _, digest, edges = record
        scan.files[name] = (path, size, mtime_ns)
        scan.hashes[name] = digest
        scan.edges[name] = set(edges)
        records[name] = record
    if memo is not None and (read or known.keys() != records.keys()):
        _save_memo(memo, scan.started_ns, records)
    # Resolve re-exports through partitioned package __init__s so a
    # registry's `from <pkg>.systems import X` points at X's defining
    # module instead of welding every system together.
    _resolve_init_edges(scan)
    _SCANS[root] = scan
    return scan


def _read_module(package: str, name: str, path: str) -> list:
    """One module's scan record, read from its file: ``[path, size,
    mtime_ns, ctime_ns, sha256 hex, sorted raw import edges]``, the
    stat taken before the read."""
    with open(path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        source = fh.read()
    tree = _import_tree(source, path)
    # Unparseable sources can't contribute edges; the content hash
    # still tracks them wherever they land in a closure.
    edges = () if tree is None else _collect_edges(package, name, tree)
    return [
        path,
        stat.st_size,
        stat.st_mtime_ns,
        stat.st_ctime_ns,
        hashlib.sha256(source).hexdigest(),
        sorted(edges),
    ]


# -- the scan memo ------------------------------------------------------


def _own_stat() -> Optional[List[int]]:
    try:
        stat = os.stat(__file__)
    except OSError:
        return None
    return [stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns]


#: The stat of this module's own source when it was imported: a memo
#: written by other scanning code (another record layout, edited edge
#: extraction) is foreign.
_SCANNER = _own_stat()


def _load_memo(memo: Any) -> Tuple[Dict[str, list], int]:
    """The module records of ``memo``'s stored scan, and the ctime a
    file must be older than for its record to be trusted: the stored
    scan's start less :data:`_RACY_WINDOW_NS`.  No memo, or a torn,
    garbage or foreign one, reads as empty."""
    data = None if memo is None or _SCANNER is None else memo.load_scan()
    if data is None:
        return {}, 0
    try:
        body = json.loads(data)
        started_ns, modules = body["started_ns"], body["modules"]
        if (
            body["scanner"] != _SCANNER
            or type(started_ns) is not int
            or not isinstance(modules, dict)
        ):
            return {}, 0
    except (ValueError, TypeError, KeyError):
        return {}, 0
    records = {name: record for name, record in modules.items() if _well_formed(record)}
    return records, started_ns - _RACY_WINDOW_NS


def _well_formed(record: Any) -> bool:
    return (
        isinstance(record, list)
        and len(record) == 6
        and isinstance(record[0], str)
        and all(type(value) is int for value in record[1:4])
        and isinstance(record[4], str)
        and isinstance(record[5], list)
        and all(isinstance(edge, str) for edge in record[5])
    )


def _still_valid(record: Optional[list], path: str, trusted_before: int) -> bool:
    """A stored record still holds for the file at ``path`` when path
    and ``(size, mtime_ns, ctime_ns)`` match and the file last changed
    well before the stored scan began (git's racy rule).  mtime alone
    could be put back by ``touch -r``, ``cp -p`` or ``tar x`` after a
    same-size rewrite; ctime is set by the kernel at every change."""
    if record is None or record[0] != path:
        return False
    try:
        stat = os.stat(path)
    except OSError:
        return False
    ctime_ns = stat.st_ctime_ns
    return (
        ctime_ns < trusted_before
        and (stat.st_size, stat.st_mtime_ns, ctime_ns) == tuple(record[1:4])
    )


def _save_memo(memo: Any, started_ns: int, records: Dict[str, list]) -> None:
    body = {
        "scanner": _SCANNER,
        "started_ns": started_ns,
        "modules": records,
    }
    memo.save_scan(json.dumps(body, separators=(",", ":")).encode("utf-8"))


# -- import edges -------------------------------------------------------


#: One import statement starting a line (indentation included: lazy
#: in-function imports count — they still affect behaviour), with its
#: parenthesised or backslash-continued tail.  The leading newline is a
#: literal the regex engine can scan for; the source gets one prepended
#: so its first line matches too.
_IMPORT_STATEMENT = re.compile(
    rb"\n[ \t\f]*(?:from|import)[ \t](?:[^\n(\\]+|\\(?:\r?\n|.)|\([^)]*\))*"
)


def _import_statements(source: bytes) -> bytes:
    """The module's import statements, matched lexically, one a line."""
    return b"\n".join(
        statement.lstrip() for statement in _IMPORT_STATEMENT.findall(b"\n" + source)
    )


def _import_tree(source: bytes, path: str) -> Optional[ast.Module]:
    """The module's import statements as a (tiny) parsed AST.

    Parsing whole files just to read their imports costs ~0.4s over
    the package — 100x the hashing itself — so the statements are
    matched lexically first (one regex pass per file) and parsed
    together in one small module.  A docstring line that merely
    *looks* like an import either parses (adding a phantom edge —
    sound, closures only grow) or fails, which demotes the module to a
    full parse: the lexical shortcut can only ever widen a closure,
    never drop a real import.
    """
    try:
        return ast.parse(_import_statements(source).decode("utf-8", "replace"))
    except SyntaxError:
        # Not actually an import (docstring text, broken match):
        # re-parse the whole module rather than risk dropping one.
        try:
            return ast.parse(source, filename=path)
        except SyntaxError:
            return None


def _collect_edges(package: str, name: str, tree: ast.AST) -> Set[str]:
    """Raw intra-package import edges of one module (whole AST: lazy
    in-function imports count — they still affect behaviour)."""
    edges: Set[str] = set()
    prefix = package + "."
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name
                if target == package or target.startswith(prefix):
                    edges.add(target)
        elif isinstance(node, ast.ImportFrom):
            # Package sources use absolute imports throughout; a
            # relative import (level>0) is resolved against `name`.
            base = node.module or ""
            if node.level:
                anchor = name.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            if not (base == package or base.startswith(prefix)):
                continue
            edges.add(base)
            for alias in node.names:
                # `from P import sub` where P.sub is a module.
                edges.add("{}.{}".format(base, alias.name))
    return edges


def _resolve_init_edges(scan: _Scan) -> None:
    """Split each edge into real-module edges; name-resolve edges that
    point *through* a partitioned ``__init__`` at a re-exported name."""
    modules = scan.hashes
    # Export maps of partitioned package __init__s: name -> module.
    exports: Dict[str, Dict[str, str]] = {}
    for init in [m for m in modules if scan.partitioned(m) and scan.under(m) != (m,)]:
        table: Dict[str, str] = {}
        ok = True
        # The __init__'s own raw edges look like `P.sub.Name` for
        # `from P.sub import Name`; invert them via the AST again —
        # cheaper to reuse the speculative edges: `P.sub` is a module,
        # `P.sub.Name` is not, so map Name -> P.sub.
        for edge in scan.edges.get(init, ()):
            if edge in modules:
                continue
            owner, _, exported = edge.rpartition(".")
            if owner in modules and owner != init:
                table[exported] = owner
            else:
                ok = False
        exports[init] = table
        (scan.barrier_inits if ok else scan.opaque_inits).add(init)
    known = set(modules)
    for name, raw in scan.edges.items():
        resolved: Set[str] = raw & known
        for edge in raw - known:
            owner, _, leaf = edge.rpartition(".")
            if owner not in modules:
                continue
            resolved.add(owner)
            mapped = exports.get(owner, {}).get(leaf)
            if mapped is not None:
                resolved.add(mapped)
            elif owner in scan.barrier_inits and scan.partitioned(owner):
                # A name the export map doesn't know: stop treating
                # this __init__ as a barrier.
                scan.barrier_inits.discard(owner)
                scan.opaque_inits.add(owner)
        scan.edges[name] = resolved


# ----------------------------------------------------------------------
# Closures
# ----------------------------------------------------------------------


def _allowed(scan: _Scan, system: str) -> Optional[FrozenSet[str]]:
    """The partitioned modules admissible for one system: its seeds
    plus their transitive intra-``systems`` dependencies, plus the
    (barrier) package ``__init__``\\ s.  ``None`` = unknown system →
    caller falls back to the whole package."""
    if system.startswith("gen:"):
        # A generated system is keyed on its own family's modules, not
        # on every system <pkg>.gen or <pkg>.surface can build.
        if not scan.under(scan.package + ".gen"):
            return None
        relative = FAMILY_SEEDS.get(_family(system))
    else:
        relative = SYSTEM_SEEDS.get(system)
    if relative is None:
        return None
    seeds = ["{}.{}".format(scan.package, mod) for mod in relative]
    if any(seed not in scan.hashes for seed in seeds):
        return None
    allowed: Set[str] = set()
    frontier = list(seeds)
    while frontier:
        module = frontier.pop()
        if module in allowed:
            continue
        allowed.add(module)
        if module in scan.barrier_inits:
            continue
        frontier.extend(
            e for e in scan.edges.get(module, ()) if scan.partitioned(e)
        )
    # The package __init__s are thin re-export shims every import path
    # crosses; keep them in-key so editing them stays invalidating.
    for init in (scan.systems_prefix, scan.systems_prefix + ".extensions"):
        if init in scan.hashes:
            allowed.add(init)
    return frozenset(allowed)


def dependency_closure(
    kind: str, system: str, root: Optional[str] = None
) -> Tuple[str, ...]:
    """The sorted module names whose content keys a ``(kind, system)``
    verdict.  Unknown kinds/systems close over the whole package."""
    return _closure(_scan(_default_root(root)), kind, system)


def _closure(scan: _Scan, kind: str, system: str) -> Tuple[str, ...]:
    roots = KIND_ROOTS.get(kind)
    allowed = _allowed(scan, system)
    if roots is None or allowed is None:
        return tuple(sorted(scan.hashes))
    frontier: Set[str] = set(allowed)
    for rel in roots:
        absolute = "{}.{}".format(scan.package, rel)
        expanded = scan.under(absolute)
        if not expanded:
            # A kind root that no longer exists: the map is stale —
            # fall back to the whole package rather than under-key.
            return tuple(sorted(scan.hashes))
        frontier.update(expanded)
    if system.startswith("gen:"):
        frontier.update(scan.under(scan.package + ".gen"))
    # The package root __init__ configures import-time behaviour for
    # everything; it is always in-key.
    frontier.add(scan.package)
    closure: Set[str] = set()
    stack = [m for m in frontier if m in scan.hashes]
    while stack:
        module = stack.pop()
        if module in closure:
            continue
        closure.add(module)
        if module in scan.barrier_inits:
            # Fully name-resolved re-export shim: every import through
            # it already points at the defining submodule.
            continue
        for edge in scan.edges.get(module, ()):
            if scan.partitioned(edge) and edge not in allowed:
                continue
            if edge in scan.hashes and edge not in closure:
                stack.append(edge)
    return tuple(sorted(closure))


def _family(system: str) -> str:
    """The family of a ``gen:<family>-<params>`` name."""
    return system[len("gen:"):].rpartition("-")[0]


def closure_fingerprint(
    kind: str, system: str, root: Optional[str] = None
) -> str:
    """SHA-256 over engine version + the ``(module, hash)`` pairs of
    the ``(kind, system)`` dependency closure."""
    return _closure_digest(_scan(_default_root(root)), kind, system)


def _closure_digest(scan: _Scan, kind: str, system: str) -> str:
    # A gen family's systems share one closure; unknowns share the
    # fallback.
    if kind in KIND_ROOTS:
        if system.startswith("gen:") and _family(system) in FAMILY_SEEDS:
            system_class = "gen:" + _family(system)
        elif system in SYSTEM_SEEDS:
            system_class = system
        else:
            system_class = "*"
        memo_key = (kind, system_class)
    else:
        memo_key = ("*", "*")
    cached = scan.closures.get(memo_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update("engine:{}".format(ENGINE_VERSION).encode("ascii"))
    for module in _closure(scan, kind, system):
        digest.update(b"\x00")
        digest.update(module.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(scan.hashes[module].encode("ascii"))
    scan.closures[memo_key] = digest.hexdigest()
    return scan.closures[memo_key]


def _unchanged(scan: _Scan, kind: str, system: str) -> bool:
    racy = scan.started_ns - _RACY_WINDOW_NS
    for module in _closure(scan, kind, system):
        path, size, mtime_ns = scan.files[module]
        try:
            stat = os.stat(path)
            if (stat.st_size, stat.st_mtime_ns) != (size, mtime_ns):
                return False
            if mtime_ns >= racy:
                with open(path, "rb") as fh:
                    if hashlib.sha256(fh.read()).hexdigest() != scan.hashes[module]:
                        return False
        except OSError:
            return False
    return True


def freeze(root: Optional[str] = None) -> None:
    """Scan the package and mark this process's code as imported from
    that scan: called before the imports of a process whose code then
    stays as it was while the files may change (the attempt
    forkserver, :mod:`repro.runner.preload`), and inherited by every
    process it forks."""
    _scan(_default_root(root)).frozen = True


def forget_scan(root: Optional[str] = None) -> None:
    """Drop this process's scan unless it is frozen, so that its next
    key hashes the files as they are now.  Only for a process that
    computes no verdict itself, whose attempts now run newer code: a
    transport that has just retired its forkserver
    (:func:`repro.runner.attempts.collect`)."""
    root = _default_root(root)
    scan = _SCANS.get(root)
    if scan is not None and not scan.frozen:
        # Worker threads may retire at once: a second pop is a no-op.
        _SCANS.pop(root, None)


def closure_current(kind: str, system: str, root: Optional[str] = None) -> bool:
    """False when this process runs frozen code (:func:`freeze`) and a
    file of the ``(kind, system)`` closure has changed on disk since its
    scan.  Its verdicts still match their keys; the code is just no
    longer what the disk holds.  Any other process imports its code as
    it goes and keys it on the one scan it keeps, so it has nothing to
    compare."""
    scan = _SCANS.get(_default_root(root))
    return scan is None or not scan.frozen or _unchanged(scan, kind, system)


def engine_modules(root: Optional[str] = None) -> Tuple[str, ...]:
    """Every module some known verdict closes over: the union of the
    closures of each :data:`KIND_ROOTS` kind over each shipped system
    and each :data:`FAMILY_SEEDS` family — the modules a job can import
    (orchestration aside)."""
    scan = _scan(_default_root(root))
    systems = list(SYSTEM_SEEDS) + ["gen:{}-*".format(family) for family in FAMILY_SEEDS]
    return tuple(sorted({
        module
        for kind in KIND_ROOTS
        for system in systems
        for module in _closure(scan, kind, system)
    }))


def _canonical(value: Any) -> Any:
    """Project key parts to canonical plain JSON: exact fractions as
    ``"p/q"`` strings, dicts sorted by :func:`json.dumps` later, any
    other non-primitive stringified via ``str``."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return "{}/{}".format(value.numerator, value.denominator)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return str(value)


def verdict_key(
    kind: str, system: str, parts: Dict[str, Any], memo: Any = None
) -> str:
    """The content address of one verdict: SHA-256 of the dependency-
    closure fingerprint + kind + system + canonical parameter JSON.

    ``memo`` stores this process's scan for the next one to reuse: an
    object with ``load_scan() -> Optional[bytes]`` and
    ``save_scan(data)``, such as the verdict cache's
    :class:`~repro.cache.store.DirBackend`.  It only matters to the
    call that makes the process's scan, and never changes the key."""
    scan = _scan(_default_root(None), memo)
    body = {
        "fingerprint": _closure_digest(scan, kind, system),
        "kind": kind,
        "system": system,
        "parts": _canonical(parts),
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
