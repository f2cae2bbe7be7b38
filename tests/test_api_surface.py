"""`repro.api.__all__` is frozen against a checked-in snapshot.

An API redesign's worst failure mode is silent drift: a name quietly
dropped (breaking users) or quietly added (growing surface nobody
reviewed).  The snapshot in ``tests/api_surface.txt`` makes either a
loud, deliberate diff — update the snapshot in the same commit that
changes the surface.
"""

import importlib
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.api
from repro.service import ResultBackend, open_backend
from repro.storage import BPlusTree
from repro.storage.lsm import LSMTree

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "api_surface.txt"


def snapshot_names():
    return [
        line.strip()
        for line in SNAPSHOT.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def test_all_matches_snapshot():
    assert sorted(repro.api.__all__) == snapshot_names(), (
        "repro.api.__all__ drifted from tests/api_surface.txt; "
        "update both together"
    )


def test_all_is_sorted_and_unique():
    names = list(repro.api.__all__)
    assert names == sorted(set(names))


def test_every_name_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_no_undocumented_public_callables():
    """Everything public and defined by the api package is in __all__."""
    public = {
        name
        for name in dir(repro.api)
        if not name.startswith("_")
        and getattr(getattr(repro.api, name), "__module__", "").startswith(
            "repro.api"
        )
    }
    assert public <= set(repro.api.__all__), public - set(repro.api.__all__)


def test_star_import_honours_all():
    namespace = {}
    exec("from repro.api import *", namespace)
    exported = {name for name in namespace if not name.startswith("_")}
    assert exported == set(repro.api.__all__)


def test_top_level_mine_convoys_alias_is_gone():
    """``mine_convoys`` lives in ``repro.core`` only; the top level has no
    alias for it and still raises for unknown names."""
    from repro.core import mine_convoys

    assert callable(mine_convoys)
    assert "mine_convoys" not in repro.__all__
    with pytest.raises(AttributeError, match="mine_convoys"):
        repro.mine_convoys
    with pytest.raises(AttributeError, match="frobnicate"):
        repro.frobnicate


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro", "ConvoyEngine"),
        ("repro.core", "ConvoyEngine"),
        ("repro.core", "advise_store"),
        ("repro.service", "BPlusTreeBackend"),
        ("repro.service", "LSMResultBackend"),
    ],
)
def test_second_front_door_and_store_wrappers_are_gone(module, name):
    """``ConvoySession`` is the one facade, and the result index persists
    into the B+tree and LSM tree directly, with no forwarding wrappers."""
    with pytest.raises(AttributeError, match=name):
        getattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.core", "engine_mode"),
        ("repro.core", "set_engine_mode"),
        ("repro.core", "scalar_engine"),
        ("repro.core", "vectorized_engine"),
        ("repro.clustering", "GridIndex"),
    ],
)
def test_engine_switch_and_grid_index_are_gone(module, name):
    """k/2-hop has one code path: no process-wide scalar/vectorized switch,
    and no per-point grid index behind it."""
    with pytest.raises(AttributeError, match=name):
        getattr(importlib.import_module(module), name)


def test_engine_switch_module_is_gone():
    with pytest.raises(ModuleNotFoundError, match="enginemode"):
        importlib.import_module("repro.core.enginemode")


@pytest.mark.parametrize("kind, tree", [("bptree", BPlusTree), ("lsmt", LSMTree)])
def test_open_backend_returns_the_tree_itself(tmp_path, kind, tree):
    backend = open_backend(kind, str(tmp_path / kind))
    try:
        assert type(backend) is tree
        assert isinstance(backend, ResultBackend)
    finally:
        backend.close()


def test_devtools_stay_off_the_public_surface():
    """The lint machinery is a development tool, not part of the API."""
    for name in repro.api.__all__:
        module = getattr(getattr(repro.api, name), "__module__", "") or ""
        assert not module.startswith("repro.devtools"), name


def test_importing_the_api_does_not_import_devtools():
    """Library users never pay for (or see) the linter: a fresh
    interpreter importing ``repro.api`` must not load ``repro.devtools``."""
    probe = (
        "import sys\n"
        "import repro.api\n"
        "offenders = [m for m in sys.modules if m.startswith('repro.devtools')]\n"
        "assert not offenders, offenders\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
