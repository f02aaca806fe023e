"""The shape ROADMAP items 4 and 5 ask of ``src/``, kept by a test: no
module grows past 700 lines, ``repro.obs`` stays the bottom layer (it
observes the protocol layers, it does not know them), what it exports
it defines, the option counts only go down, every config field has a
caller, an ECF operation reports through its return value and its
span alone, the runtime seam is stated once, as two base classes, and
replicas repair by one exchange.
Beside ``src/``, the two documents that describe it stay
legible: DESIGN.md's layer map names every module once, and neither it
nor a CHANGES.md entry grows past its cap."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from repro.baselines import CockroachConfig
from repro.core import MusicConfig, build_music
from repro.live import LiveClock, TcpTransport
from repro.net import Network
from repro.sim import Simulator
from repro.storage import StorageEngineConfig
from repro.store import StoreConfig, StoreCoordinator

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

MAX_LINES = 700
# Over the limit today.  It grows only with the reason next to the entry.
OVERSIZE = set()

# The layers repro.obs observes.  Only the CLI (``__main__``) may import
# them, to build the deployments it reports on.
ABOVE_OBS = {"core", "store", "lockstore", "txn", "live", "bench"}


def test_no_module_over_the_line_limit():
    sizes = {
        path.relative_to(SRC).as_posix(): len(path.read_text().splitlines())
        for path in SRC.rglob("*.py")
    }
    oversize = {name for name, lines in sizes.items() if lines > MAX_LINES}
    assert oversize <= OVERSIZE, {name: sizes[name] for name in oversize - OVERSIZE}
    assert OVERSIZE <= oversize, f"now under the limit, drop from OVERSIZE: {OVERSIZE - oversize}"


# -- the documents ----------------------------------------------------------

DESIGN_MAX_LINES = 900
# CHANGES.md entries are capped from the first entry written under the cap.
ENTRY_MAX_WORDS, FIRST_CAPPED_PR = 250, 41


def test_design_stays_within_its_line_cap():
    lines = len((REPO / "DESIGN.md").read_text().splitlines())
    assert lines <= DESIGN_MAX_LINES, f"DESIGN.md is {lines} lines"


def layer_map():
    """The modules DESIGN.md's layer map names, in table order."""
    design = (REPO / "DESIGN.md").read_text()
    start = design.index("\n## 3. The layer map")
    section = design[start:design.index("\n## ", start + 1)]
    return re.findall(r"^\|[^|\n]*\| `([\w/]+\.py)` \|", section, re.MULTILINE)


def test_the_layer_map_names_every_module_once():
    named = layer_map()
    modules = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py") if path.name != "__init__.py"
    }
    assert sorted(name for name in set(named) if named.count(name) > 1) == []
    assert sorted(modules - set(named)) == [], "modules the layer map leaves out"
    assert sorted(set(named) - modules) == [], "the layer map names modules that do not exist"


def changes_entries():
    """``(pr, text)`` per CHANGES.md entry: a top-level ``- `` item and
    its continuation lines, numbered by the PR it opens with."""
    entries = []
    for line in (REPO / "CHANGES.md").read_text().splitlines():
        if line.startswith("- "):
            number = re.match(r"- (?:\*\*)?PR (\d+)", line)
            entries.append([int(number.group(1)) if number else None, line])
        elif entries and not line.startswith(("FOUND:", "MENDED:")):
            entries[-1][1] += "\n" + line
    return entries


def test_changes_entries_stay_within_their_word_cap():
    entries = changes_entries()
    assert any(pr == FIRST_CAPPED_PR for pr, _ in entries)
    long = {
        pr: len(text.split()) for pr, text in entries
        if pr is not None and pr >= FIRST_CAPPED_PR and len(text.split()) > ENTRY_MAX_WORDS
    }
    assert long == {}, f"CHANGES.md entries over {ENTRY_MAX_WORDS} words (PR: words)"


def imported_repro_packages(path):
    """Top-level ``repro`` subpackages a module of ``repro.obs`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("", "repro.obs.", "repro.")[node.level] + (node.module or "")
            names = [f"{base}.{alias.name}".replace("..", ".") for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_obs_imports_no_layer_above_it():
    for path in sorted((SRC / "obs").glob("*.py")):
        if path.name == "__main__.py":
            continue
        above = imported_repro_packages(path) & ABOVE_OBS
        assert not above, f"repro/obs/{path.name} imports {sorted(above)}"


# -- the runtime seam -------------------------------------------------------

# What each seam's base holds, so that no world restates it.
CLOCK_SURFACE = {"event", "timeout", "process", "all_of", "any_of", "call_at", "defuse"}
FABRIC_SURFACE = {
    "register", "fail_node", "recover_node", "partition_sites", "heal_sites",
    "heal_all", "partitioned", "add_tap",
}


def test_the_runtime_seam_is_stated_once():
    """The DES and the live world share one clock base and one fabric
    base, which hold the shared code; neither world's class restates
    it, and no second statement of the seam (``repro.runtime``) is left."""
    for (des, live), surface in (
        ((Simulator, LiveClock), CLOCK_SURFACE),
        ((Network, TcpTransport), FABRIC_SURFACE),
    ):
        shared = (set(des.__mro__) & set(live.__mro__)) - {object}
        assert len(shared) == 1, f"{des.__name__} and {live.__name__} share {shared}"
        (base,) = shared
        assert surface <= set(vars(base)), surface - set(vars(base))
        for cls in (des, live):
            restated = sorted(surface & set(vars(cls)))
            assert restated == [], f"{cls.__name__} restates {restated} of {base.__name__}"
    assert importlib.util.find_spec("repro.runtime") is None


def test_replicas_repair_by_one_exchange():
    """Anti-entropy is one protocol, the store's digest exchange
    (``StorageReplica.repair``): no module outside ``repro.store`` names
    a ``MerkleTree``, and an elastic deployment, whose control plane
    triggers that exchange, registers no second repair path's kinds."""
    named = [
        (path.relative_to(SRC).as_posix(), node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        if not path.relative_to(SRC).as_posix().startswith("store/")
        for node in ast.walk(ast.parse(path.read_text()))
        if "MerkleTree" in (getattr(node, "id", None), getattr(node, "attr", None))
        or (isinstance(node, ast.alias) and node.name == "MerkleTree")
    ]
    assert named == []
    kinds = set().union(*(
        replica._handlers for replica in build_music(elastic=True).store.replicas
    ))
    assert {"ae_tree", "ae_rows", "topo_handover"} <= kinds
    assert [kind for kind in kinds if kind.startswith(("topo_repair", "topo_merkle"))] == []


INSTRUMENTS = ("counter", "gauge", "histogram")


def test_only_obs_touches_an_instrument():
    """Every count is its layer's own tally, folded into the metrics by
    ``repro.obs`` when they are read: no module outside obs/ calls an
    instrument, or asks whether observability is on."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("obs/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and last_name(node.func) in INSTRUMENTS:
                found.append((module, node.lineno, last_name(node.func)))
            elif isinstance(node, ast.Attribute) and node.attr == "enabled":
                if last_name(node.value) == "obs":
                    found.append((module, node.lineno, "obs.enabled"))
    assert found == []


def test_obs_exports_only_what_it_defines():
    obs = importlib.import_module("repro.obs")
    defined = {}
    for path in (SRC / "obs").glob("*.py"):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        module = f"repro.obs.{path.stem}"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.setdefault(node.name, module)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, module)
    for name in obs.__all__:
        assert name in defined, f"repro.obs exports {name}, defined in another layer"
        home = importlib.import_module(defined[name])
        assert getattr(obs, name) is getattr(home, name)
    assert len(obs.__all__) <= 30


def imported_names():
    """``(importer, source, name)`` for every ``from <source> import
    <name>`` under src/, tests/, benchmarks/ and examples/, relative
    sources resolved; an importer outside src/ is its path."""
    root = SRC.parents[1]
    found = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (root / top).rglob("*.py"):
            parts = path.relative_to(root / "src").with_suffix("").parts if top == "src" else ()
            importer = ".".join(p for p in parts if p != "__init__") or path.as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                base = list(parts[: len(parts) - node.level]) if node.level else []
                source = ".".join(base + [node.module] if node.module else base)
                found.extend((importer, source, alias.name) for alias in node.names)
    return found


def test_every_package_exports_only_what_is_used_outside_it():
    """A ``repro.*`` package's ``__all__`` is its face to the rest of
    the repo: each name in it is imported by some module outside the
    package (from the package or one of its modules)."""
    imports = imported_names()

    def inside(module, package):
        return module == package or module.startswith(package + ".")

    for init in sorted(SRC.rglob("__init__.py")):
        package = ".".join(init.relative_to(SRC.parent).parts[:-1])
        if package == "repro":
            continue
        for name in importlib.import_module(package).__all__:
            assert any(
                imported == name and inside(source, package) and not inside(importer, package)
                for importer, source, imported in imports
            ), f"{package} exports {name}, which nothing outside it imports"


# -- the MUSIC tier's options ------------------------------------------------

FEATURE_FIELDS = {"fast_locks", "push_grants", "read_leases", "peek_quorum", "always_sync"}


def test_option_counts_only_go_down():
    assert len(dataclasses.fields(MusicConfig)) <= 11
    assert len(inspect.signature(build_music).parameters) <= 17
    assert len(dataclasses.fields(StorageEngineConfig)) <= 4
    assert len(dataclasses.fields(StoreConfig)) <= 3
    assert len(dataclasses.fields(CockroachConfig)) <= 1
    # self, table, partition, condition, mutation, the stamp rule, two
    # hooks and the round shape: no backoff knob.
    assert len(inspect.signature(StoreCoordinator.cas).parameters) <= 9


# Each config and the module that defines it.
CONFIGS = {
    MusicConfig: "core/config.py",
    StoreConfig: "store/config.py",
    StorageEngineConfig: "storage/config.py",
    CockroachConfig: "baselines/cockroach/raft.py",
}
BY_NAME = {config.__name__: config for config in CONFIGS}
# The config a name stands for: ``store_config``, ``engine.config``.
OWNERS = {
    "music": MusicConfig,
    "store": StoreConfig,
    "storage": StorageEngineConfig,
    "engine": StorageEngineConfig,
    "cockroach": CockroachConfig,
}

# Fields no deployment sets, kept on purpose.
KEPT = {
    "period_ms": "the paper's T, recorded in the audit history",
    "delta": "the paper's δ, in which ForcedReleaseDelta is stated",
    "read_lease_ms": "the lease window, in which forcedRelease's wait-out is stated",
    "elections_enabled": "read once, by CockroachNode.start() inside build_cockroach: "
    "a cluster chooses it when it is built",
}


def last_name(node):
    """``c`` of ``a.b.c`` or of ``c``; "" for any other expression."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def config_of(node):
    """The config class ``node`` evaluates to — a call to the class,
    ``a or b`` of one, or a name that says which (``OWNERS``) — else None."""
    if isinstance(node, ast.BoolOp):
        return next(filter(None, map(config_of, node.values)), None)
    if isinstance(node, ast.Call):
        return BY_NAME.get(last_name(node.func))
    name = last_name(node)
    if name.endswith("_config"):
        return OWNERS.get(name[: -len("_config")])
    if name == "config" and isinstance(node, ast.Attribute):
        return OWNERS.get(last_name(node.value))
    return None


def dict_keywords(node, tree):
    """The keywords of the ``dict(...)`` calls that ``**node`` unpacks:
    in ``node`` itself, or in what its root name is assigned in ``tree``
    (``Config(**modes[mode])`` with ``modes = {…: dict(a=…)}``)."""
    root = node
    while isinstance(root, ast.Subscript):
        root = root.value
    sources = [node]
    if isinstance(root, ast.Name):
        sources += [
            assign.value for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
            and any(getattr(target, "id", None) == root.id for target in assign.targets)
        ]
    return {
        keyword.arg
        for source in sources for call in ast.walk(source)
        if isinstance(call, ast.Call) and last_name(call.func) == "dict"
        for keyword in call.keywords if keyword.arg
    }


def names_set(tree):
    """``(config, name)`` for each field a module sets: ``name=`` in a
    call to the config class (or in a ``dict`` it unpacks with ``**``),
    ``name=`` in ``replace(<config>, …)``, and ``<config>.name = …``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = last_name(node.func)
            config = BY_NAME.get(callee)
            if callee == "replace" and node.args:
                config = config_of(node.args[0])
            if config is None:
                continue
            for keyword in node.keywords:
                names = {keyword.arg} if keyword.arg else dict_keywords(keyword.value, tree)
                found.update((config, name) for name in names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                config = config_of(target.value) if isinstance(target, ast.Attribute) else None
                if config is not None:
                    found.add((config, target.attr))
    return found


def test_the_caller_scan_counts_only_what_a_config_receives():
    tree = ast.parse(
        "state = replace(state, delta=1)\n"
        "kwargs = dict(period_ms=2)\n"
        "options.read_lease_ms = 3\n"
        "modes = {'slow': dict(fsync_latency_ms=1.0)}\n"
        "engine = StorageEngineConfig(**modes['slow'])\n"
        "store_config = replace(store_config or StoreConfig(), replication_factor=3)\n"
        "music.config.fast_locks = True\n"
    )
    assert names_set(tree) == {
        (StorageEngineConfig, "fsync_latency_ms"),
        (StoreConfig, "replication_factor"),
        (MusicConfig, "fast_locks"),
    }


def test_every_config_field_has_a_caller():
    """A field is an option some deployment sets — under src/ (outside
    the config's own module), examples/ or benchmarks/ — or it is in
    ``KEPT`` with its reason.  A value only tests set is a ``ClassVar``
    beside its use (tests patch it on the class)."""
    root = SRC.parents[1]
    tops = (SRC, root / "examples", root / "benchmarks")
    set_by = {config: set() for config in CONFIGS}
    for path in (path for top in tops for path in top.rglob("*.py")):
        for config, name in names_set(ast.parse(path.read_text())):
            if path != SRC / CONFIGS[config]:
                set_by[config].add(name)
    uncalled = {
        field.name
        for config in CONFIGS
        for field in dataclasses.fields(config)
        if field.name not in set_by[config]
    }
    assert uncalled == set(KEPT)


def test_tests_shorten_a_constant_on_its_class():
    """A test changes a config's ``ClassVar`` with
    ``monkeypatch.setattr(<Config>, name, …)``, never on an instance: a
    builder copies the config it is handed (``replace``), and the copy
    silently drops a value set on the original."""
    constants = {
        name
        for config in CONFIGS
        for name in set(config.__annotations__) - {f.name for f in dataclasses.fields(config)}
    }
    on_instances = []
    for path in sorted((SRC.parents[1] / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                pairs = [(target.value, target.attr) for target in node.targets
                         if isinstance(target, ast.Attribute)]
            elif isinstance(node, ast.Call) and last_name(node.func) == "setattr":
                pairs = [(node.args[0], node.args[1].value)] if (
                    len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                ) else []
            else:
                continue
            on_instances += [
                f"{path.name}:{node.lineno} {name}" for owner, name in pairs
                if name in constants and last_name(owner) not in BY_NAME
                and last_name(owner).lower().endswith("config")
            ]
    assert on_instances == []


def attribute_reads(name):
    """``(module, Class.function)`` for every read of ``<anything>.<name>``
    under src/repro; a read outside any function is ``(module, "")``."""
    found = []

    def visit(node, scope, module):
        if isinstance(node, ast.Attribute) and node.attr == name:
            found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner, module)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), "", path.relative_to(SRC).as_posix())
    return found


def test_only_the_store_reads_an_rpc_deadline_from_config():
    """Every other RPC takes ``Node.call``'s ``DEFAULT_RPC_TIMEOUT_MS``;
    ``StoreConfig.rpc_timeout_ms`` is kept because tests shorten it."""
    assert {module.split("/")[0] for module, _ in attribute_reads("rpc_timeout_ms")} == {"store"}


def test_push_grants_is_read_only_where_a_release_channel_is_built():
    """One owner per decision: whether releases are pushed is read where
    the replica builds its ``ReleasePush`` and where a service stub
    picks its long-poll, and nowhere else — a client, the portal and the
    assembly ask the channel (``replica.push``), not the config."""
    assert sorted(set(attribute_reads("push_grants"))) == [
        ("core/replica.py", "MusicReplica.__init__"),
        ("core/service.py", "ReplicaStub.__init__"),
    ]


def feature_reads_outside_init(path):
    """``(function, field)`` for every ``<anything>config.<feature>`` read
    in a function of ``path`` other than ``__init__``."""
    found = []
    for function in ast.walk(ast.parse(path.read_text())):
        if not isinstance(function, ast.FunctionDef) or function.name == "__init__":
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Attribute) or node.attr not in FEATURE_FIELDS:
                continue
            if last_name(node.value).endswith("config"):
                found.append((function.name, node.attr))
    return found


def test_feature_switches_are_resolved_once_in_init():
    """What a feature switch asks for is decided in ``__init__``: no
    method of the replica or the client reads ``config.<feature>``."""
    for module in ("core/replica.py", "core/client.py"):
        assert feature_reads_outside_init(SRC / module) == [], module


def test_an_operation_leaves_nothing_parked_on_the_replica():
    """Stamps and latencies leave an ECF operation through its return
    value and its span: no method of the replica writes a ``last_*``
    side channel or a ``*_recorder`` callback for a caller to read back."""
    parked = [
        (function.name, target.attr)
        for function in ast.walk(ast.parse((SRC / "core/replica.py").read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and getattr(target.value, "id", "") == "self"
        and (target.attr.startswith("last_") or target.attr.endswith("_recorder"))
    ]
    assert parked == []


def test_a_critical_get_makes_one_local_serve_call():
    """criticalGet is one guarded read (DESIGN.md §8): ``_critical_get``
    asks the mirror once, whatever evidence its entry holds, and calls
    no other method of the replica than its guard."""
    tree = ast.parse((SRC / "core/replica.py").read_text())
    (function,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_critical_get"
    ]
    calls = [node.func for node in ast.walk(function) if isinstance(node, ast.Call)]
    serves = [ast.unparse(func) for func in calls if last_name(func) == "serve"]
    assert serves == ["self.mirror.serve"]
    own = [
        func.attr for func in calls
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "self"
    ]
    assert own == ["_guard"]
