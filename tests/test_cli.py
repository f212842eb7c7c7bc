"""End-to-end tests for the ``hounif`` command line interface.

Every test drives :func:`hounif.cli.main` in-process with a problem file
written into ``tmp_path``, so exit codes and the exact stdout format are
checked without spawning subprocesses (one smoke test exercises the real
console script).
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import hounif.cli as cli
from hounif.engine import EngineConfig

DEMO_PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "problems"
DATA = pathlib.Path(__file__).resolve().parent / "data"

TWO_UNIFIER_PROBLEM = """\
tp i.
const a : i.
const b : i.
var F : i > i.
var G : i > i.

unify: F (G a) =?= F b.
"""

NON_UNIFIABLE_PROBLEM = """\
tp i.
const f : i > i.
var G : i.

unify: G =?= f G.
"""

DIVERGENT_PROBLEM = """\
tp i.
const f : i > i.
var F : i > i.

unify: \\x:i. F (f x) =?= \\x:i. f (F x).
"""

FLEX_FLEX_PROBLEM = """\
tp i.
var X : i.
var Y : i.

unify: X =?= Y.
"""

INDEX_FILE = """\
tp i.
const a : i.
const b : i.
const f : i > i.
const g : i > i > i.
var F : i > i.
var X : i.

term: f a.
term: g a b.
term: b.

query-unif: F a.
query-unif: X.
query-match: f X.
query-match: f b.
"""


def write(tmp_path, text, name="problem.hou"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve: success paths
# ---------------------------------------------------------------------------


def test_solve_enumerates_both_unifiers(tmp_path, capsys):
    path = write(tmp_path, TWO_UNIFIER_PROBLEM)
    rc, out, err = run_cli(capsys, ["solve", path])
    assert rc == 0
    assert err == ""
    assert "status: exhausted" in out
    assert "found: 2" in out
    assert "unifier 1:" in out and "unifier 2:" in out
    # One unifier maps G to the constant, the other collapses F.
    assert "G -> \\x1:i. b" in out
    assert "F -> \\x1:i. H_" in out

    lines = out.splitlines()
    assert lines[-4].startswith("status: ")
    assert lines[-3] == "found: 2"
    assert lines[-2].startswith("pulls: ")
    assert lines[-1].startswith("steps: ")


def test_solve_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, TWO_UNIFIER_PROBLEM)
    rc1, out1, _ = run_cli(capsys, ["solve", path])
    rc2, out2, _ = run_cli(capsys, ["solve", path])
    assert (rc1, out1) == (rc2, out2)


def test_solve_verify_flag_accepts_sound_answers(tmp_path, capsys):
    path = write(tmp_path, TWO_UNIFIER_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path, "--verify"])
    assert rc == 0
    assert "found: 2" in out


def test_solve_identity_unifier_block(tmp_path, capsys):
    path = write(tmp_path, "tp i.\nconst a : i.\nunify: a =?= a.\n")
    rc, out, _ = run_cli(capsys, ["solve", path])
    assert rc == 0
    assert "unifier 1:\n  identity\n" in out
    assert "found: 1" in out
    assert "status: exhausted" in out


def test_solve_pragmatic_zero_limits_reports_collapse(tmp_path, capsys):
    path = write(tmp_path, FLEX_FLEX_PROBLEM)
    rc, out, _ = run_cli(
        capsys,
        ["solve", path, "--variant", "pragmatic", "--limits", "0,0,0,0,0",
         "--oracles", ""],
    )
    assert rc == 0
    assert "var H_1 : i." in out
    assert "X -> H_1" in out
    assert "Y -> H_1" in out
    assert "found: 1" in out
    assert "status: exhausted" in out


def test_solve_single_oracle_selection(tmp_path, capsys):
    path = write(tmp_path, FLEX_FLEX_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path, "--oracles", "pattern"])
    assert rc == 0
    # Flex-flex pattern pair: most general unifier collapses both sides
    # onto one fresh variable.
    assert "X -> H_1" in out
    assert "Y -> H_1" in out
    assert "found: 1" in out
    assert "status: exhausted" in out


# ---------------------------------------------------------------------------
# solve: statuses and stopping conditions
# ---------------------------------------------------------------------------


def test_solve_non_unifiable_exits_1(tmp_path, capsys):
    path = write(tmp_path, NON_UNIFIABLE_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path])
    assert rc == 1
    assert "status: non-unifiable" in out
    assert "found: 0" in out


def test_solve_max_unifiers_stops_early(tmp_path, capsys):
    path = write(tmp_path, DIVERGENT_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path, "--max-unifiers", "2"])
    assert rc == 0
    assert out.count("unifier ") == 2
    assert "status: max-unifiers" in out
    assert "found: 2" in out


def test_solve_timeout_status(tmp_path, capsys):
    path = write(tmp_path, DIVERGENT_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path, "--timeout-ms", "0"])
    assert "status: timeout" in out
    assert rc in (0, 1)


def test_solve_step_budget_status(tmp_path, capsys):
    path = write(tmp_path, TWO_UNIFIER_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path, "--max-steps", "1"])
    assert rc == 1
    assert "status: budget" in out
    assert "found: 0" in out


# ---------------------------------------------------------------------------
# solve: bad input
# ---------------------------------------------------------------------------


def test_solve_missing_file_exits_2(capsys):
    rc, out, err = run_cli(capsys, ["solve", "/nonexistent/problem.hou"])
    assert rc == 2
    assert err.startswith("error:")


def test_solve_parse_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "tp i\nconst a : i.\n")  # missing period
    rc, out, err = run_cli(capsys, ["solve", path])
    assert rc == 2
    assert err.startswith("error:")


def test_solve_decl_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "tp i.\nunify: a =?= a.\n")  # a undeclared
    rc, out, err = run_cli(capsys, ["solve", path])
    assert rc == 2
    assert err.startswith("error:")


def test_solve_unknown_oracle_exits_2(tmp_path, capsys):
    # the pragmatic limits are an engine setting, not an oracle
    path = write(tmp_path, FLEX_FLEX_PROBLEM)
    for name in ("bogus", "limit"):
        rc, out, err = run_cli(capsys, ["solve", path, "--oracles", name])
        assert rc == 2
        assert f"unknown oracle '{name}'" in err
        assert "known oracles: fixpoint, pattern, solid" in err


def test_solve_malformed_limits_exits_2(tmp_path, capsys):
    path = write(tmp_path, FLEX_FLEX_PROBLEM)
    rc, out, err = run_cli(capsys, ["solve", path, "--limits", "1,2"])
    assert rc == 2
    assert err.startswith("error:")


def test_solve_recursion_error_exits_2(tmp_path, capsys, monkeypatch):
    def overflow(goals, cfg):
        raise RecursionError

    monkeypatch.setattr(cli, "solve", overflow)
    rc, out, err = run_cli(capsys, ["solve", write(tmp_path, FLEX_FLEX_PROBLEM)])
    assert rc == 2
    assert err == "error: input nested too deeply\n"


def test_solve_without_flags_runs_the_default_config(tmp_path, capsys, monkeypatch):
    seen = []

    def recorded(goals, cfg):
        seen.append(cfg)
        return real_solve(goals, cfg)

    real_solve = cli.solve
    monkeypatch.setattr(cli, "solve", recorded)
    rc, out, err = run_cli(capsys, ["solve", write(tmp_path, TWO_UNIFIER_PROBLEM)])
    assert rc == 0 and seen == [EngineConfig()]


@pytest.mark.parametrize("option", ["--max-unifiers", "--max-steps", "--timeout-ms"])
def test_solve_negative_count_exits_2(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as stop:
        cli.main(["solve", write(tmp_path, FLEX_FLEX_PROBLEM), option, "-1"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected a count >= 0, got -1" in err


def test_solve_max_unifiers_zero_prints_no_unifier(tmp_path, capsys):
    path = write(tmp_path, DIVERGENT_PROBLEM)
    rc, out, _ = run_cli(capsys, ["solve", path, "--max-unifiers", "0"])
    assert rc == 1
    assert out == "status: max-unifiers\nfound: 0\npulls: 0\nsteps: 0\n"


# ---------------------------------------------------------------------------
# solve: deep and wide input, at the default recursion limit
# ---------------------------------------------------------------------------


def tower(k, t):
    for _ in range(k):
        t = f"h ({t})"
    return t


@pytest.mark.parametrize("k", [600, 5000])
def test_solve_deep_tower_file(tmp_path, capsys, k):
    problem = "tp i.\nconst a : i.\nconst h : i > i.\nvar X : i.\n"
    problem += f"unify: {tower(k, 'a')} =?= {tower(k, 'X')}.\n"
    rc, out, err = run_cli(capsys, ["solve", write(tmp_path, problem), "--verify"])
    assert (rc, err) == (0, "")
    assert out.startswith("unifier 1:\n  X -> a\n\nstatus: exhausted\nfound: 1\n")


def test_solve_flex_flex_pair_of_order_1000_exits_1(tmp_path, capsys):
    # F, G : tau_1000, where tau_0 = i and tau_k = tau_(k-1) > i: the run
    # stops at the image depth cap with no unifier, not in the recursion
    # guard's exit 2
    ty = "i > i"
    for _ in range(999):
        ty = f"({ty}) > i"
    problem = f"tp i.\nvar F : {ty}.\nvar G : {ty}.\nunify: F =?= G.\n"
    rc, out, err = run_cli(capsys, ["solve", write(tmp_path, problem), "--max-unifiers", "1"])
    assert (rc, err) == (1, "")
    assert out.startswith("status: budget\nfound: 0\n")


def test_solve_constant_of_500_arguments(tmp_path, capsys):
    n = 500
    problem = "tp i.\nconst a : i.\nconst c : " + " > ".join(["i"] * (n + 1)) + ".\n"
    problem += "".join(f"var X{k} : i.\n" for k in range(n))
    problem += "unify: c" + " a" * n + " =?= c" + "".join(f" X{k}" for k in range(n)) + ".\n"
    rc, out, err = run_cli(capsys, ["solve", write(tmp_path, problem), "--verify"])
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "unifier 1:"
    assert sorted(lines[1:n + 1]) == sorted(f"  X{k} -> a" for k in range(n))
    assert lines[n + 2:n + 4] == ["status: exhausted", "found: 1"]


def test_index_prints_a_deep_term(tmp_path, capsys):
    text = f"tp i.\nconst a : i.\nconst h : i > i.\nterm: {tower(5000, 'a')}.\n"
    rc, out, err = run_cli(capsys, ["index", write(tmp_path, text, "index.hou")])
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "term 1: " + "h (" * 4999 + "h a" + ")" * 4999


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------


def test_index_golden_output(tmp_path, capsys):
    path = write(tmp_path, INDEX_FILE, "index.hou")
    rc, out, err = run_cli(capsys, ["index", path])
    assert rc == 0
    assert err == ""
    assert out.splitlines() == [
        "term 1: f a",
        "term 2: g a b",
        "term 3: b",
        "query 1 unif: candidates [1 2 3]",
        "query 2 unif: candidates [1 2 3]",
        "query 3 match: candidates [1]",
        "query 4 match: candidates []",
        "filter-ratio: 0.42",
    ]


def test_index_verify_confirms_candidates(tmp_path, capsys):
    path = write(tmp_path, INDEX_FILE, "index.hou")
    rc, out, _ = run_cli(capsys, ["index", path, "--verify"])
    assert rc == 0
    assert "query 1 unif: confirmed [1 2 3]" in out
    assert "query 2 unif: confirmed [1 2 3]" in out
    assert "query 3 match: confirmed [1]" in out
    assert "query 4 match: confirmed []" in out


def test_index_verify_reports_retrieval_miss(tmp_path, capsys, monkeypatch):
    # Force every entry to count as confirmed: filtered queries must then
    # be flagged as retrieval misses through the internal-error exit code.
    monkeypatch.setattr(cli, "confirm", lambda query, entry, mode, max_steps: True)
    path = write(tmp_path, INDEX_FILE, "index.hou")
    rc, out, err = run_cli(capsys, ["index", path, "--verify"])
    assert rc == 3
    assert err.startswith("internal error:")
    assert "retrieval missed" in err


def test_solve_verify_reports_a_failed_unifier(tmp_path, capsys, monkeypatch):
    # a unifier that fails verification is an internal error: exit 3,
    # and the unifier is not printed
    monkeypatch.setattr(cli, "verify_unifier", lambda pairs, subst: False)
    path = write(tmp_path, TWO_UNIFIER_PROBLEM)
    rc, out, err = run_cli(capsys, ["solve", path, "--verify"])
    assert rc == 3
    assert err == "internal error: emitted substitution failed verification\n"
    assert "unifier 1:" not in out


def test_index_positions_override(tmp_path, capsys):
    text = (
        "tp i.\n"
        "const a : i.\n"
        "const f : i > i.\n"
        "term: a.\n"
        "term: f a.\n"
        "query-match: a.\n"
    )
    path = write(tmp_path, text, "index.hou")
    rc, out, _ = run_cli(capsys, ["index", path, "--positions", "e"])
    assert rc == 0
    assert "query 1 match: candidates [1]" in out
    assert "filter-ratio: 0.50" in out


def test_index_empty_store_empty_candidates(tmp_path, capsys):
    text = "tp i.\nvar X : i.\nquery-unif: X.\n"
    path = write(tmp_path, text, "index.hou")
    rc, out, _ = run_cli(capsys, ["index", path])
    assert rc == 0
    assert "query 1 unif: candidates []" in out
    assert "filter-ratio: 0.00" in out


def test_index_incompatible_pair_is_filtered(tmp_path, capsys):
    # Stored: a binary constant and a unary term headed by another
    # symbol.  Their fingerprints clash (root feature, then argument
    # features), so querying either never returns the other.
    text = (
        "tp i.\n"
        "const f : i > i > i.\n"
        "const g : i > i.\n"
        "term: f.\n"
        "term: (\\x:i>i. \\y:i. x y) g.\n"
        "query-unif: f.\n"
    )
    path = write(tmp_path, text, "index.hou")
    rc, out, _ = run_cli(capsys, ["index", path])
    assert rc == 0
    assert "query 1 unif: candidates [1]" in out


def test_index_bad_positions_exits_2(tmp_path, capsys):
    path = write(tmp_path, INDEX_FILE, "index.hou")
    rc, out, err = run_cli(capsys, ["index", path, "--positions", "0"])
    assert rc == 2
    assert err.startswith("error:")


def test_index_missing_file_exits_2(capsys):
    rc, out, err = run_cli(capsys, ["index", "/nonexistent/index.hou"])
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# shipped problem files: --verify never fails on them
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in DEMO_PROBLEMS.glob("*.hou") if p.name != "retrieval.hou"),
)
def test_demo_problems_verify_cleanly(name, capsys):
    rc, out, err = run_cli(
        capsys,
        ["solve", str(DEMO_PROBLEMS / name), "--verify",
         "--max-unifiers", "3", "--timeout-ms", "2000"],
    )
    assert rc in (0, 1), err
    assert err == ""


def test_demo_index_file_verifies(capsys):
    rc, out, err = run_cli(
        capsys, ["index", str(DEMO_PROBLEMS / "retrieval.hou"), "--verify"]
    )
    assert rc == 0, err
    assert "filter-ratio:" in out


def test_index_verify_frozen_names_clash_with_no_input(capsys):
    # the query names a constant `frozen_0`; freezing `f X` for the match
    # check must not make that constant and confirm a pair that does not match
    rc, out, err = run_cli(
        capsys, ["index", str(DATA / "frozen_name.hou"), "--verify"]
    )
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "term 1: f X",
        "query 1 match: candidates []",
        "query 1 match: confirmed []",
        "filter-ratio: 1.00",
    ]


def test_index_verify_reports_undecided_pairs(tmp_path, capsys):
    # h X unifies with h^600 a, but the engine's stream stops at its image
    # depth cap before the unifier X -> h^599 a: undecided, not a miss
    text = (
        "tp i.\nconst a : i.\nconst h : i > i.\nvar X : i.\n"
        f"term: {tower(600, 'a')}.\nterm: a.\nterm: h a.\nquery-unif: h X.\n"
    )
    rc, out, err = run_cli(capsys, ["index", write(tmp_path, text, "index.hou"), "--verify"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[3:] == [
        "query 1 unif: candidates [1 3]",
        "query 1 unif: confirmed [3]",
        "query 1 unif: undecided [1]",
        "filter-ratio: 0.33",
    ]


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_console_script_smoke(tmp_path):
    path = write(tmp_path, "tp i.\nconst a : i.\nunify: a =?= a.\n")
    exe = shutil.which("hounif")
    cmd = [exe, "solve", path] if exe else [sys.executable, "-m", "hounif.cli", "solve", path]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "identity" in proc.stdout
    assert "status: exhausted" in proc.stdout


def test_python_m_hounif(tmp_path):
    path = write(tmp_path, "tp i.\nconst a : i.\nunify: a =?= a.\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run([sys.executable, "-m", "hounif", "solve", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("unifier 1:\n  identity\n")
