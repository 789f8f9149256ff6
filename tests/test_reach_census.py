"""The reach census (tools/reach_census.py): its recorder and its --check
rules on a planted package, and the repository's own verdict tables."""

import ast
import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach_census.py"
_spec = importlib.util.spec_from_file_location("reach_census", _TOOL)
reach_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach_census)

_MODULE = """\
def in_child():
    return 1


def never():
    return 2


class Box:
    @property
    def parent_only(self):
        return 3
"""

# The parent reads a property; only the forked child, which leaves through
# os._exit (no atexit hooks), calls in_child.
_PROGRAM = """\
import os
from planted import mod

mod.Box().parent_only
pid = os.fork()
if pid == 0:
    mod.in_child()
    os._exit(0)
os.waitpid(pid, 0)
"""


def test_a_forked_childs_call_is_reached_and_an_uncalled_function_is_not(tmp_path):
    src = tmp_path / "src"
    (src / "planted").mkdir(parents=True)
    (src / "planted" / "__init__.py").write_text("")
    (src / "planted" / "mod.py").write_text(_MODULE)
    entered = reach_census.record([sys.executable, "-c", _PROGRAM], tmp_path / "record",
                                  cwd=tmp_path, src=src)
    rows = reach_census.census({"planted program": entered}, src=src)
    assert {fn.key: names for fn, names in rows} == {
        "planted.mod:in_child": ["planted program"],
        "planted.mod:never": [],
        "planted.mod:Box.parent_only": ["planted program"],
    }
    assert [fn.lines for fn, _ in rows] == [2, 2, 2]


_THREADED = """\
import threading
from planted import mod

worker = threading.Thread(target=mod.in_child)
worker.start()
worker.join()
"""


def _plant(tmp_path, module=_MODULE):
    src = tmp_path / "src"
    (src / "planted").mkdir(parents=True)
    (src / "planted" / "__init__.py").write_text("")
    (src / "planted" / "mod.py").write_text(module)
    return src


def test_a_call_made_only_in_a_thread_is_reached(tmp_path):
    src = _plant(tmp_path)
    entered = reach_census.record([sys.executable, "-c", _THREADED], tmp_path / "record",
                                  cwd=tmp_path, src=src)
    reached = {fn.key for fn, names in reach_census.census({"threads": entered}, src=src)
               if names}
    assert reached == {"planted.mod:in_child"}


_NESTED = """\
import functools


@functools.lru_cache(maxsize=None)
def outer():
    def inner():
        return 1

    return inner()


class Box:
    class Lid:
        def open(self):
            return 2
"""


def test_functions_lists_nested_defs_and_counts_lines_from_the_def(tmp_path):
    """``first`` is the decorator's line (a code object's ``co_firstlineno``);
    ``lines`` runs from the ``def`` to its last line."""
    found = reach_census.functions(_plant(tmp_path, _NESTED))
    assert [(fn.key, fn.first, fn.lines) for fn in found] == [
        ("planted.mod:outer", 4, 5),
        ("planted.mod:outer.inner", 6, 2),
        ("planted.mod:Box.Lid.open", 14, 2),
    ]


# --check's verdict rules, on planted rows and tables (CI drift and the safety
# rows' test runs are checked against the repository below).

_F = reach_census.Function


def _rows():
    return [
        (_F("planted.mod", "reached", 1, 2), ["prog"]),
        (_F("planted.mod", "unreached", 4, 3), []),
    ]


def _problems(monkeypatch, rows, exempt=None, called=None, deleted=None):
    monkeypatch.setattr(reach_census, "EXEMPT", exempt or {})
    monkeypatch.setattr(reach_census, "CALLED", called or {})
    monkeypatch.setattr(reach_census, "DELETED", deleted or {})
    monkeypatch.setattr(reach_census, "_ci_drift", lambda: [])
    monkeypatch.setattr(reach_census, "_safety_tests_reach", lambda log: [])
    return reach_census.problems(rows, log=lambda *_: None)


def test_check_passes_when_every_verdict_holds(monkeypatch):
    assert _problems(
        monkeypatch, _rows(),
        exempt={"planted.mod:unreached": reach_census.Exempt("test oracle", "kept")},
        called={"planted.mod:reached": reach_census.Called("prog", "a caller")},
        deleted={"planted.mod:gone": reach_census.Deleted(2, "no caller")},
    ) == []


def test_check_refuses_an_unreached_function_without_a_verdict(monkeypatch):
    assert _problems(monkeypatch, _rows()) == [
        "planted.mod:unreached (3 lines): no program reaches it and it has no verdict"
    ]


def test_check_refuses_an_exemption_a_program_now_reaches(monkeypatch):
    exempt = {"planted.mod:unreached": reach_census.Exempt("test oracle", "kept"),
              "planted.mod:reached": reach_census.Exempt("safety", "abort path")}
    assert _problems(monkeypatch, _rows(), exempt=exempt) == [
        "planted.mod:reached: exempt (safety) but reached by prog"
    ]
    # A row that names the race reaching it now and then is allowed.
    exempt["planted.mod:reached"] = reach_census.Exempt("safety", "abort path",
                                                        sometimes="prog: a race")
    assert _problems(monkeypatch, _rows(), exempt=exempt) == []


def test_check_refuses_an_exemption_for_a_function_that_is_gone(monkeypatch):
    exempt = {"planted.mod:unreached": reach_census.Exempt("test oracle", "kept"),
              "planted.mod:gone": reach_census.Exempt("platform", "mpi")}
    assert _problems(monkeypatch, _rows(), exempt=exempt) == [
        "planted.mod:gone: exempt (platform) but no longer exists"
    ]


def test_check_refuses_a_caller_that_does_not_reach_its_function(monkeypatch):
    exempt = {"planted.mod:unreached": reach_census.Exempt("test oracle", "kept")}
    called = {"planted.mod:reached": reach_census.Called("other", "a caller")}
    assert _problems(monkeypatch, _rows(), exempt=exempt, called=called) == [
        "planted.mod:reached: its caller 'other' does not reach it"
    ]


def test_check_refuses_a_deleted_function_defined_again(monkeypatch):
    exempt = {"planted.mod:unreached": reach_census.Exempt("test oracle", "kept")}
    deleted = {"planted.mod:reached": reach_census.Deleted(2, "no caller")}
    assert _problems(monkeypatch, _rows(), exempt=exempt, deleted=deleted) == [
        "planted.mod:reached: deleted, but defined again"
    ]


# The repository's own tables: what --check can tell without running a program.

_KEYS = {fn.key for fn in reach_census.functions()}


def test_the_program_table_matches_the_ci_workflow():
    assert reach_census._ci_drift() == []


def test_every_exempt_and_called_row_names_a_function_in_src():
    assert sorted(set(reach_census.EXEMPT) - _KEYS) == []
    assert sorted(set(reach_census.CALLED) - _KEYS) == []


def test_no_deleted_function_is_defined_in_src():
    assert sorted(set(reach_census.DELETED) & _KEYS) == []


def test_no_function_has_two_verdicts():
    exempt, called, deleted = (set(reach_census.EXEMPT), set(reach_census.CALLED),
                               set(reach_census.DELETED))
    assert exempt & called == exempt & deleted == called & deleted == set()


def test_every_called_row_names_a_runnable_program():
    runnable = {p.name for p in reach_census.PROGRAMS if not p.unrunnable}
    assert {key: row.program for key, row in reach_census.CALLED.items()
            if row.program not in runnable} == {}


def _defines(node_id):
    """Whether the ``path::Class::test`` a safety row names is defined."""
    path, *names = node_id.split("::")
    file = _TOOL.parent.parent / path
    if not file.is_file():
        return False
    scope = ast.parse(file.read_text())
    for name in names:
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                      and node.name == name), None)
        if scope is None:
            return False
    return True


def test_every_safety_row_names_a_test_that_exists():
    rows = {key: row.test for key, row in reach_census.EXEMPT.items() if row.kind == "safety"}
    assert rows and {key: test for key, test in rows.items() if not _defines(test)} == {}


def test_the_committed_verdict_table_is_what_markdown_prints():
    """docs/ARCHITECTURE.md's "Reach census" table is ``--markdown``'s output
    (its line counts are read from src/, so no program needs to run)."""
    table = reach_census.markdown([(fn, []) for fn in reach_census.functions()])
    assert table in (_TOOL.parent.parent / "docs" / "ARCHITECTURE.md").read_text()
