"""Every import in the package and the tests is used, every module-level
name of the package is read outside the tests, and so is every public
member of the algebra classes.

The checks read each file with the standard-library ``ast`` module: a name
bound by an import must appear as a name somewhere else in the same file;
a module-level ``_name`` that a file of the package defines must be read
somewhere in the package, and a public one by the package or the benchmark
harness, as a name, an attribute or an import; and a public member of a
class the package defines, record fields included, must be read as an
attribute by the package or the benchmark harness, not by the tests alone.
Each exemption from those two rules must still hold: its name exists, the
tests read it, and the package and the harness do not.  Every ``lyness``
name the benchmark harness reads must exist.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "lyness").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
FILES = sorted(PACKAGE + TESTS)
BENCH = sorted((ROOT / "bench").rglob("*.py"))
READERS = PACKAGE + BENCH
MODULES = [importlib.import_module(f"lyness.{path.stem}") for path in PACKAGE
           if path.stem not in ("__init__", "__main__")]
CLASSES = [cls for module in MODULES for cls in vars(module).values()
           if inspect.isclass(cls) and cls.__module__ == module.__name__]


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that nothing else refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\n"
                          "print(sys.argv, tau)\n") == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> dict[str, int]:
    """Module-level names that ``source`` binds by def, class or assignment,
    each with the line of its first binding."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            defined.setdefault(name, node.lineno)
    return defined


def names_read(source: str) -> set[str]:
    """Every name that ``source`` reads as a name or an attribute, or imports
    from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` defined in ``sources`` (file name -> source)
    that no source reads; dunder names are not private."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(f"{where} line {line}: {name}" for where, source in sources.items()
                  for name, line in defined_names(source).items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_checker_flags_a_dead_private_name():
    sources = {"a.py": "_used = 1\n_dead = 2\n__all__ = []\n"
                       "def _helper():\n    return _used\n",
               "b.py": "import a\nclass _Unread:\n    pass\nprint(a._helper())\n"}
    assert dead_private_names(sources) == ["a.py line 2: _dead", "b.py line 2: _Unread"]


def test_no_dead_private_names_in_the_package():
    assert dead_private_names({path.name: path.read_text(encoding="utf-8")
                               for path in PACKAGE}) == []


def unread_public_names(package: dict[str, str], readers) -> list[str]:
    """``module.name`` for each public module-level name defined in
    ``package`` (file name -> source) that no source of ``readers`` reads."""
    read = set().union(*map(names_read, readers))
    return sorted(f"{Path(where).stem}.{name}" for where, source in package.items()
                  for name in defined_names(source)
                  if not name.startswith("_") and name not in read)


def test_checker_flags_a_public_name_only_the_tests_read():
    package = {"a.py": "LIMIT = 1\nSPARE = 2\ndef helper():\n    return LIMIT\n",
               "b.py": "from .a import helper\nclass Shown:\n    pass\n"
                       "def benched():\n    pass\ndef tested():\n    return helper()\n"}
    bench = "from lyness.b import benched\nimport lyness.b as b\nprint(benched, b.Shown)\n"
    assert unread_public_names(package, [*package.values(), bench]) == ["a.SPARE", "b.tested"]


#: Public module-level names that only the tests read, each kept for a reason:
NAMES_READ_BY_TESTS = {
    # the certificate's substitution chain as a map of the plane: the
    # soundness and coverage tests evaluate it, and the planned region,
    # face-list and replay work builds on it
    "certifier.plane_map",
    # the benchmark recurrence and its exact invariance, called by
    # acceptance criterion 05
    "model.lyness_orbit",
    "model.lyness_invariance_check",
}


def _package_names_unread():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = [*package.values(), *(path.read_text(encoding="utf-8") for path in BENCH)]
    return set(unread_public_names(package, readers))


def test_every_public_name_of_the_package_is_read_outside_the_tests():
    assert sorted(_package_names_unread() - NAMES_READ_BY_TESTS) == []


def _tests_sources():
    return [path.read_text(encoding="utf-8") for path in TESTS]


def stale_exemptions(exempt, unread, tests) -> list[str]:
    """Entries ``owner.name`` of ``exempt`` that no longer hold: those not
    in ``unread``, the names that exist and that neither the package nor
    the harness reads, and those whose name no source of ``tests`` reads."""
    read = set().union(*map(names_read, tests))
    return sorted(entry for entry in exempt
                  if entry not in unread or entry.rpartition(".")[2] not in read)


def test_checker_flags_a_stale_exemption():
    exempt = {"a.kept", "a.gone", "a.now_read", "a.untested"}
    unread = {"a.kept", "a.untested"}
    tests = ["from a import kept\nprint(a.now_read)\n"]
    assert stale_exemptions(exempt, unread, tests) == ["a.gone", "a.now_read", "a.untested"]


def test_every_name_exemption_still_holds():
    assert stale_exemptions(NAMES_READ_BY_TESTS, _package_names_unread(),
                            _tests_sources()) == []


def attributes_read(sources) -> set[str]:
    """Every attribute name that ``sources`` read."""
    return {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def record_fields(cls: type) -> list[str]:
    """The fields of ``cls`` if it is a NamedTuple or a dataclass, else none."""
    if dataclasses.is_dataclass(cls):
        return [field.name for field in dataclasses.fields(cls)]
    return list(getattr(cls, "_fields", ()))


def unread_members(cls: type, sources) -> list[str]:
    """Public non-dunder members of ``cls``, record fields excluded, that no
    source reads as an attribute."""
    skipped = attributes_read(sources) | set(record_fields(cls))
    return [f"{cls.__name__}.{name}" for name in vars(cls)
            if not name.startswith("_") and name not in skipped]


def unread_fields(cls: type, sources) -> list[str]:
    """Record fields of ``cls`` that no source reads as an attribute."""
    read = attributes_read(sources)
    return [f"{cls.__name__}.{name}" for name in record_fields(cls) if name not in read]


def test_checker_flags_an_unread_member():
    class Sample:
        kept = 1

        def dropped(self):
            pass

        def __len__(self):
            return 0

    assert unread_members(Sample, ["print(Sample().kept)\n"]) == ["Sample.dropped"]

    @dataclasses.dataclass
    class Record:
        field: int = 0

        @property
        def derived(self):
            return self.field

    assert unread_members(Record, []) == ["Record.derived"]
    assert unread_fields(Record, []) == ["Record.field"]
    assert unread_fields(Sample, []) == []

    class Pair(NamedTuple):
        kept: int
        dropped: int

    assert unread_fields(Pair, ["print(p.kept)\n"]) == ["Pair.dropped"]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_public_member_of_the_algebra_is_read_outside_the_tests(cls):
    assert unread_members(cls, (path.read_text(encoding="utf-8") for path in READERS)) == []


#: Record fields that only the tests read, each kept for a reason:
FIELDS_READ_BY_TESTS = {
    # the expanded polynomial: the tests audit each witness in it, and the
    # face list and replay data planned for each report are read off it
    "CertificateReport.expansion",
    # the count of steps the exact tie-break decided, printed on the
    # criterion 08 detail line
    "DescentResult.decided_exactly",
    # the model's g and T, which the tests check against the closed forms
    "SymbolicModel.invariant",
    "SymbolicModel.step_map",
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_record_field_is_read_outside_the_tests(cls):
    unread = unread_fields(cls, (path.read_text(encoding="utf-8") for path in READERS))
    assert sorted(set(unread) - FIELDS_READ_BY_TESTS) == []


def test_every_field_exemption_still_holds():
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    unread = {field for cls in CLASSES for field in unread_fields(cls, readers)}
    assert stale_exemptions(FIELDS_READ_BY_TESTS, unread, _tests_sources()) == []


def lyness_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs of the package names ``source`` reads: each name
    it imports ``from lyness.<module>``, and each attribute it reads on a
    module it binds by ``from lyness import <module>``."""
    tree = ast.parse(source)
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "lyness":
            bound.update({alias.asname or alias.name: f"lyness.{alias.name}"
                          for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lyness."):
            reads |= {(node.module, alias.name) for alias in node.names}
    reads |= {(bound[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound}
    return reads


def test_checker_lists_the_package_names_a_file_reads():
    source = ("from lyness import cli as c, model\nfrom lyness.dynamics import sweep\n"
              "c.main(model.f.cache_clear(), other.g)\n")
    assert lyness_reads(source) == {("lyness.cli", "main"), ("lyness.model", "f"),
                                    ("lyness.dynamics", "sweep")}


def test_every_package_name_the_benchmark_reads_exists():
    # the benchmark's set-up probe and traced roster call these by name
    reads = {pair for path in BENCH for pair in lyness_reads(path.read_text(encoding="utf-8"))}
    assert ("lyness.certifier", "certify_q3") in reads
    assert sorted(f"{module}.{name}" for module, name in reads
                  if not hasattr(importlib.import_module(module), name)) == []
