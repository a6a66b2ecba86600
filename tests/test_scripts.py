"""Smoke tests of the scripts in scripts/: each runs and writes what it says.

Also checks, without running it, that the benchmark in heapbench/ still
finds every name it imports from the library.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_series_tables():
    proc = run_script("series_tables.py", "--max-size", "6")
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0]
    assert "sq/point" in header
    # n = 6 row: 96 Motzkin prefixes of length 5 on the square lattice,
    # C(12,6)/2 = 462 on the triangular one
    assert proc.stdout.splitlines()[6].split()[:3] == ["6", "96", "462"]


def test_gallery(tmp_path):
    proc = run_script("gallery.py", "--out", str(tmp_path), "--large", "200")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "square_compact_200.svg",
        "square_compact_30.svg",
        "square_point_200.svg",
        "square_point_30.svg",
        "triangular_point_30.svg",
    ]
    assert sorted(p.name for p in tmp_path.glob("*.txt")) == [
        "square_point_200.txt",
        "square_point_30.txt",
        "triangular_point_30.txt",
    ]
    assert all(p.read_text().startswith("<?xml") for p in tmp_path.glob("*.svg"))


def test_heapbench_imports_resolve():
    missing = []
    for path in sorted((ROOT / "heapbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [(alias.name, []) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [(node.module, [alias.name for alias in node.names])]
            else:
                continue
            for module_name, names in targets:
                if module_name.split(".")[0] != "heappieces":
                    continue
                module = importlib.import_module(module_name)
                missing += [
                    f"{path.name}: {module_name}.{name}"
                    for name in names
                    if not hasattr(module, name)
                ]
    assert missing == []
