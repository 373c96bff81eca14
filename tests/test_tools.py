"""The scripts under tools/ import from walsh_lab inside functions that no
test runs, so a renamed export would only show when they are run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("script", sorted(TOOLS.glob("*.py")), ids=lambda p: p.name)
def test_names_imported_from_walsh_lab_exist(script):
    imports = [node for node in ast.walk(ast.parse(script.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "walsh_lab"]
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            # a name is an attribute of the module or one of its submodules
            assert hasattr(module, alias.name) or \
                importlib.util.find_spec(f"{node.module}.{alias.name}"), \
                f"{script.name}:{node.lineno} imports {alias.name} from {node.module}"


def _load(script):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_layer_makes_the_minimum_sweeps(monkeypatch):
    # with no time to fill, each (m, check) still gets SCAN_MIN_SWEEPS sweeps
    bench = _load(TOOLS / "bench_layers.py")
    monkeypatch.setattr(bench, "SCAN_M", (4, 6))
    monkeypatch.setattr(bench, "SCAN_SECONDS", 0.0)
    out = bench._measure_scan()
    assert sorted(out) == ["m=4 bound", "m=4 sarwate", "m=6 bound", "m=6 sarwate"]
    assert bench.SCAN_MIN_SWEEPS > 1
    assert all(entry["sweeps"] == bench.SCAN_MIN_SWEEPS for entry in out.values())
