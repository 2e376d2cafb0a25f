"""The package surface: lazy exports, and which modules each command loads."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import gpw
from gpw.fixtures import min_semilattice
from gpw.gpsjson import dump

_SRC = os.path.dirname(os.path.dirname(gpw.__file__))

# run `gpw ARGV` (only `import gpw` when ARGV is empty) in a fresh
# interpreter and print the `gpw` modules it loaded, plus `dataclasses`
_LOADED = """
import contextlib, io, json, sys
import gpw
if sys.argv[1:]:
    from gpw.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
    assert code in (0, 3), code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("gpw", "dataclasses"))))
"""


def _fresh(code: str, *argv: str):
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, exact, absent", [
    ([], {"gpw"}, None),
    (["--version"], {"gpw", "gpw.cli", "gpw.core"}, None),
    (["validate", "{path}"], None, {"gpw.explore", "gpw.harness", "gpw.tablewise"}),
    (["analyze", "{path}"], None, {"gpw.explore", "gpw.harness", "gpw.tablewise"}),
    (["check", "{path}"], None, {"gpw.explore", "gpw.tablewise"}),
    (["search", "--n", "2", "--expr", "simple"], None, set()),
    (["campaign", "--n", "2"], None, set()),
])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, exact, absent):
    """`import gpw` loads no submodule, `--version` only the CLI and the
    kernel it needs for its parser, `validate` and `analyze` neither the
    walk nor the claim catalogue, only `campaign` and `search` the
    per-table forms (and through them the claim catalogue), and nothing
    loads `dataclasses`."""
    path = tmp_path / "s.json"
    dump(min_semilattice(), str(path))
    loaded = set(_fresh(_LOADED, *(a.format(path=path) for a in argv)))
    assert "dataclasses" not in loaded
    if exact is not None:
        assert loaded == exact
    else:
        assert {"gpw", "gpw.cli", "gpw.core"} <= loaded and not loaded & absent


def test_sample_loop_does_not_load_the_campaign_forms():
    """The benchmark's sample loop checks its structures through the
    per-structure path alone."""
    perfbench = os.path.join(os.path.dirname(_SRC), "perfbench")
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {perfbench!r})
import sample_loop
with contextlib.redirect_stdout(io.StringIO()):
    sample_loop.main(["--seed", "7", "--m", "2"])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("gpw"))))
"""
    loaded = set(_fresh(code))
    assert {"gpw.explore", "gpw.harness"} <= loaded and "gpw.tablewise" not in loaded


def test_lazy_exports_are_their_modules_objects():
    """Each exported name is the object its module defines, and is listed
    once; `from gpw import *` binds every one and `dir` lists them."""
    assert len(gpw.__all__) == len(set(gpw.__all__)) == 72
    for name in gpw.__all__[1:]:
        home = importlib.import_module(f"gpw.{gpw._HOME[name]}")
        value = getattr(gpw, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    namespace = {}
    exec("from gpw import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gpw.__all__)
    assert set(gpw.__all__) <= set(dir(gpw))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gpw.no_such_name
    with pytest.raises(ImportError):
        exec("from gpw import no_such_name", {})


def test_exports_load_their_module_on_first_access():
    """In a fresh interpreter a name loads its own module (and what that
    imports) when first read, and submodules still import by name."""
    code = """
import json, sys
import gpw
seen = []
for name in ("__version__", "validate", "digest", "search"):
    getattr(gpw, name)
    seen.append(sorted(m for m in sys.modules if m.startswith("gpw")))
from gpw import cli, explore, harness
seen.append([type(m).__name__ for m in (cli, explore, harness)])
print(json.dumps(seen))
"""
    seen = _fresh(code)
    assert seen[:3] == [["gpw"], ["gpw", "gpw.core"], ["gpw", "gpw.core", "gpw.gpsjson"]]
    assert "gpw.explore" in seen[3] and "gpw.harness" not in seen[3]
    assert seen[4] == ["module"] * 3
