"""The benchmark's child process reads lapgeo through module aliases
(`lg.<name>`, `cli.<name>`); a name it reads that lapgeo no longer has
would fail only a traced benchmark run.  This test reads
perfbench/child.py and edits nothing."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def test_every_name_the_benchmark_reads_exists():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: importlib.import_module(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "lapgeo"
    }
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {"lg", "cli"} <= set(modules)
    assert ("lg", "oracle_plugin_estimate") in read
    assert sorted(r for r in read if not hasattr(modules[r[0]], r[1])) == []
