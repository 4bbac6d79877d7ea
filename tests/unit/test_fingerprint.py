"""The store's code fingerprint covers everything the simulator imports.

``SIM_SOURCES`` is maintained by hand. A simulation module it missed
would let an edit change trace bytes without changing the fingerprint,
so warm stores would serve stale traces. This test walks the static
import closure of ``repro.sim`` and ``repro.scenarios`` and requires
every ``repro`` file it reaches to be covered. The converse premise
follows: a file outside the closure (the estimator, the engine, batch)
can change without invalidating stored traces.
"""

import ast
from pathlib import Path

import repro
from repro.store.fingerprint import SIM_SOURCES

ROOT = Path(repro.__file__).resolve().parent


def module_file(name: str) -> Path | None:
    """The source file of a dotted ``repro`` module name, if it is one."""
    parts = name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    path = ROOT.joinpath(*parts[1:])
    if (path / "__init__.py").is_file():
        return path / "__init__.py"
    if path.with_suffix(".py").is_file():
        return path.with_suffix(".py")
    return None


def module_name(file: Path) -> str:
    parts = file.relative_to(ROOT).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(("repro", *parts))


def imported_names(file: Path):
    """Every dotted module name an import statement in ``file`` names.

    ``from m import x`` yields both ``m`` and ``m.x`` (``x`` may be a
    submodule); names that are not modules resolve to no file and drop
    out. Function-level imports count too.
    """
    package = module_name(file)
    if file.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(file.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def sim_import_closure() -> set[Path]:
    pending = [
        file
        for package in ("sim", "scenarios")
        for file in (ROOT / package).rglob("*.py")
    ]
    reached: set[Path] = set()
    while pending:
        file = pending.pop()
        if file in reached:
            continue
        reached.add(file)
        for name in imported_names(file):
            target = module_file(name)
            if target is not None and target not in reached:
                pending.append(target)
    return reached


def covered(file: Path) -> bool:
    relative = file.relative_to(ROOT).as_posix()
    return any(
        relative == entry or relative.startswith(f"{entry}/")
        for entry in SIM_SOURCES
    )


def test_sim_import_closure_is_fingerprinted():
    closure = sim_import_closure()
    uncovered = sorted(
        file.relative_to(ROOT).as_posix()
        for file in closure
        if not covered(file)
    )
    assert uncovered == []


def test_closure_reaches_beyond_the_seed_packages():
    # Guards the walker itself: the simulator imports the road, the
    # dynamics and perception, so a closure confined to sim/ and
    # scenarios/ would mean the walk resolved nothing.
    reached = {
        file.relative_to(ROOT).parts[0] for file in sim_import_closure()
    }
    assert {"road", "dynamics", "perception", "core"} <= reached


def test_estimator_modules_are_outside_the_closure():
    closure = sim_import_closure()
    for estimator in ("core/threat.py", "core/engine.py", "core/online.py"):
        assert ROOT / estimator not in closure
