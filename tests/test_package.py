import ast
from pathlib import Path

import proxyssl
from proxyssl.engine import ALGORITHMS

PACKAGE = Path(proxyssl.__file__).resolve().parent


def test_public_names_resolve_once():
    names = proxyssl.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(proxyssl, name) for name in names)


def package_imports(module):
    """The package's modules that ``proxyssl.<module>`` imports, as ``proxyssl.<name>``."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["proxyssl" if node.level else "", node.module]))
            # only "from proxyssl import x" names modules; other from-imports name attributes
            found |= {f"{base}.{a.name}" for a in node.names} if base == "proxyssl" else {base}
    return {name for name in found if name.split(".")[0] == "proxyssl"}


def test_report_reads_no_training_code():
    # the read side takes runs from a log alone, so it must not depend on how they trained
    assert {"proxyssl.engine", "proxyssl.report"} <= package_imports("protocol")
    assert package_imports("report") <= {"proxyssl.stats", "proxyssl.errors"}


def test_protocol_leaves_run_rules_to_the_engine():
    # which runs can start is the engine's decision (engine.check_run), and a split marks
    # its own arrays read-only, so protocol names no algorithm and freezes nothing
    tree = ast.parse((PACKAGE / "protocol.py").read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert strings.isdisjoint(ALGORITHMS)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"TRI_TRAINING", "_TRI_TRAINING", "SAMPLING_MODES"})
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_read_only" not in defined
