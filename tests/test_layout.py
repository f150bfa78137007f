"""Source-layout checks on ``src/rockstack`` and ``tests``, read from the
syntax tree alone.

* Every imported name is used, in the library and in the tests. A deletion
  that leaves an import behind fails here.
* A library module imports no private (``_name``) name from another library
  module; such an import ties a module to another's internals. Tests may
  import private names to check them.
* Every module-level private function, class or constant in the library is
  referenced in its own module outside its own definition, so a helper
  left without callers by a refactor fails here.
* Every module-level public function or class in the library is referenced
  outside its own definition: in its module, in another library module, in
  ``rockstack.__all__`` or in a file under ``benchmarks/`` (whose span
  targets name functions in strings). Code that only tests call fails here.
* Only ``scenesim`` references the renderer's parts (``SCENESIM_ONLY``):
  every other library module reads depth and masks through
  ``scenesim.NoisyDepth``, so no second read path grows back. The
  whole-image ``render_instance_masks`` is a name of its own, which
  ``perception.detect_objects`` keeps.
* ``graspdetect`` has no ``@`` product and no ``vecdot``: its points and
  normals enter hand frames through ``RigidTransform``, whose one rounding
  rule keeps the batched detector bit-equal to one candidate at a time.
* ``graspdetect`` makes no call with a ``where=`` keyword and no
  ``count_nonzero`` call along an axis: its masked reductions take
  ``np.where`` and ``pointcloud.row_counts``, several times faster.
* No library module imports ``scipy``, ``concurrent.futures`` or
  ``multiprocessing`` outside a function body (``LAZY_PACKAGES``): scipy takes
  about 0.4 s to load and the pool about 25 ms, so the functions that use
  them import them on first use, and ``import rockstack`` stays fast for a
  process that never calls them.

One check imports the library instead: the config fields whose declared
type the JSON codec passes through unchecked are a fixed list, so a new
field of such a type fails here until it is given a rule or a reader.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rockstack
from rockstack.geometry import JsonFields, _json_fields

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "rockstack").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend(_bound_names(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return sorted(name for name in imported if name not in used)


def private_imports(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").startswith("rockstack")
        if internal:
            found |= {(module, a.name) for a in node.names if a.name.startswith("_")}
    return found


SCENESIM_ONLY = {"apply_depth_noise", "instance_masks", "object_pixels", "render_scene_geometry"}


def scenesim_only_references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The ``SCENESIM_ONLY`` names a module other than ``scenesim`` imports,
    loads or reads as an attribute."""
    if module == "scenesim":
        return set()
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return {(module, name) for name in found & SCENESIM_ONLY}


def own_products(tree: ast.Module) -> list[str]:
    """``line: kind`` of each ``@`` product (``@=`` too) and each reference
    to ``vecdot`` in a module: the products that round by a rule other than
    ``RigidTransform``'s."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult):
            found.append(f"{n.lineno}: @")
        elif "vecdot" in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None)):
            found.append(f"{n.lineno}: vecdot")
    return sorted(set(found))


def slow_reductions(tree: ast.Module) -> list[str]:
    """``line: kind`` of each call with a ``where=`` keyword and each
    ``count_nonzero`` call given an axis (by keyword or position)."""
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        if any(k.arg == "where" for k in n.keywords):
            found.append(f"{n.lineno}: where=")
        name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        if name == "count_nonzero" and (len(n.args) > 1 or any(k.arg == "axis" for k in n.keywords)):
            found.append(f"{n.lineno}: count_nonzero axis")
    return sorted(set(found))


LAZY_PACKAGES = ("scipy", "concurrent.futures", "multiprocessing")


def import_time_imports(tree: ast.Module, packages=LAZY_PACKAGES) -> list[str]:
    """``line: module`` of each import of one of ``packages`` (or a module
    in it) that runs when the module is imported: any outside a function
    body."""
    found = []
    pending = list(ast.iter_child_nodes(tree))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            if any(name == p or name.startswith(p + ".") for p in packages):
                found.append((node.lineno, name))
                break
    return [f"{line}: {name}" for line, name in sorted(found)]


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced_private_names(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` definitions that no other top-level statement
    of the module loads (a recursive call does not count)."""
    found = []
    for node in tree.body:
        for name in _defined_names(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            used = any(
                isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                for other in tree.body
                if other is not node
                for n in ast.walk(other)
            )
            if not used:
                found.append(name)
    return sorted(found)


def referenced_names(node: ast.AST, strings: bool = False) -> set[str]:
    """Names a node loads, reads as an attribute or imports; with
    ``strings``, also every dotted part of its string constants."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.update(n.value.split("."))
    return found


def unreferenced_public_names(modules: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """``module.name`` of each module-level public function or class that
    no other statement of its module, no other module of ``modules`` and
    nothing in ``outside`` references (a recursive call does not count)."""
    per_node = {m: [referenced_names(node) for node in tree.body] for m, tree in modules.items()}
    found = []
    for module, tree in modules.items():
        known = set(outside).union(
            *(names for other, nodes in per_node.items() if other != module for names in nodes)
        )
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in known:
                continue
            if not any(node.name in names for j, names in enumerate(per_node[module]) if j != i):
                found.append(f"{module}.{node.name}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_no_private_imports_across_modules():
    found = set()
    for path in MODULES:
        found |= private_imports(path.stem, _tree(path))
    assert sorted(found) == []


def test_only_scenesim_references_the_renderer_parts():
    found = set()
    for path in MODULES:
        found |= scenesim_only_references(path.stem, _tree(path))
    assert sorted(found) == []


def test_graspdetect_multiplies_only_through_rigid_transforms():
    assert own_products(_tree(ROOT / "src" / "rockstack" / "graspdetect.py")) == []


def test_graspdetect_reduces_rows_without_the_slow_forms():
    assert slow_reductions(_tree(ROOT / "src" / "rockstack" / "graspdetect.py")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_scipy_and_the_pool_load_on_first_use(path):
    assert import_time_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(_tree(path)) == []


def test_no_public_code_only_tests_call():
    outside = set(rockstack.__all__)
    for path in BENCHMARKS:
        outside |= referenced_names(_tree(path), strings=True)
    modules = {path.stem: _tree(path) for path in MODULES}
    assert unreferenced_public_names(modules, outside) == []


def test_config_fields_the_codec_passes_through():
    records = (rockstack.TrialReport, rockstack.MetricsSummary)
    configs = [c for c in JsonFields.__subclasses__() if c not in records]
    unchecked = [
        f"{cls.__name__}.{name}"
        for cls in configs
        for name, read in _json_fields(cls)[0].items()
        if read is None
    ]
    assert sorted(unchecked) == [
        "ExperimentConfig.task",
        "SceneSpec.base_camera",
        "SceneSpec.hand_camera_intrinsics",
    ]


class TestTheChecks:
    def test_unused_import_found(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "import numpy as np\nimport os.path\nfrom .a import b, c as d\n"
            "__all__ = ['b']\nx = np.zeros(1)\n"
        )
        assert unused_imports(tree) == ["d", "os"]

    def test_private_import_found(self):
        tree = ast.parse(
            "from .scenesim import _x, y\nfrom rockstack.a import _z\nfrom numpy import _w\n"
            "def f():\n    from .b import _v\n"
        )
        assert private_imports("m", tree) == {("m", "_x"), ("m", "_z"), ("m", "_v")}

    def test_own_product_found(self):
        tree = ast.parse(
            "from numpy import vecdot as vd\n"
            "a = b @ c\n"
            "a @= b\n"
            "d = np.vecdot(a, b)\n"
            "e = t.apply(p) - a.dot(b)\n"
        )
        assert own_products(tree) == ["1: vecdot", "2: @", "3: @", "4: vecdot"]

    def test_slow_reduction_found(self):
        tree = ast.parse(
            "a = x.min(axis=1, initial=0.0, where=m)\n"
            "b = np.count_nonzero(m, axis=1)\n"
            "c = count_nonzero(m, 1)\n"
            "d = np.where(m, x, 0.0).min(axis=1) + np.count_nonzero(m)\n"
            "e = np.minimum.reduce(x, where=m)\n"
        )
        assert slow_reductions(tree) == [
            "1: where=",
            "2: count_nonzero axis",
            "3: count_nonzero axis",
            "5: where=",
        ]

    def test_import_time_import_found(self):
        tree = ast.parse(
            "import numpy as np\n"
            "from scipy import ndimage\n"
            "import scipy.spatial as sp\n"
            "from concurrent import futures\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import multiprocessing\n"
            "import scipyx\n"
            "try:\n    from scipy.special import beta\nexcept ImportError:\n    beta = None\n"
            "class A:\n    import multiprocessing.pool\n"
            "def f():\n    from scipy.spatial import cKDTree\n    return cKDTree\n"
            "g = lambda: __import__('scipy')\n"
            "from .scipy import x\n"
        )
        assert import_time_imports(tree) == [
            "2: scipy",
            "3: scipy.spatial",
            "4: concurrent.futures",
            "5: concurrent.futures",
            "6: multiprocessing",
            "9: scipy.special",
            "13: multiprocessing.pool",
        ]

    def test_unreferenced_private_name_found(self):
        tree = ast.parse(
            "_USED = 1\n_UNUSED: int = 2\n__version__ = '1'\npublic = 3\n"
            "def _self_only(n):\n    return _self_only(n - 1) if n else _USED\n"
            "class _Dead:\n    pass\n"
            "def _live():\n    return 0\n"
            "def f():\n    return _live()\n"
        )
        assert unreferenced_private_names(tree) == ["_Dead", "_UNUSED", "_self_only"]

    def test_scenesim_only_reference_found(self):
        tree = ast.parse(
            "from .scenesim import object_pixels as op, render_instance_masks\n"
            "from . import scenesim\n"
            "def f(s, c):\n"
            "    scenesim.apply_depth_noise(render_instance_masks(s, c), None, 0)\n"
            "    return instance_masks, scenesim.NoisyDepth\n"
        )
        want = {("m", "object_pixels"), ("m", "apply_depth_noise"), ("m", "instance_masks")}
        assert scenesim_only_references("m", tree) == want
        assert scenesim_only_references("scenesim", tree) == set()

    def test_unreferenced_public_name_found(self):
        a = ast.parse(
            "def used_here():\n    return 0\n"
            "def self_only(n):\n    return self_only(n - 1) if n else used_here()\n"
            "class Dead:\n    pass\n"
            "def imported():\n    return 0\n"
            "def exported():\n    return 0\n"
            "def benchmarked():\n    return 0\n"
            "def _private():\n    return 0\n"
        )
        b = ast.parse("from .a import imported\n")
        bench = referenced_names(ast.parse("T = ('a.benchmarked',)\n"), strings=True)
        outside = {"exported"} | bench
        assert unreferenced_public_names({"a": a, "b": b}, outside) == ["a.Dead", "a.self_only"]
        assert "benchmarked" not in referenced_names(ast.parse("T = ('a.benchmarked',)\n"))
