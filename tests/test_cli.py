"""Command line front end, driven through main() with captured streams."""

import io
import json

import pytest

from strategem.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve

def test_solve_prints_the_worked_derivation(capsys):
    code, out, err = run(capsys, ["--mode", "solve", "(a^3*a^4)^2"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "AddExp -> (a^7)^2",
        "MulExp -> a^14",
        "finished: a^14",
    ]


def test_solve_on_a_finished_expression(capsys):
    code, out, _ = run(capsys, ["--mode", "solve", "a^14"])
    assert code == 0
    assert out.splitlines() == ["finished: a^14"]


def test_solve_generates_when_no_target_is_given(capsys):
    code, out, _ = run(capsys, ["--mode", "solve", "--difficulty", "easy",
                                "--seed", "3"])
    assert code == 0
    assert out.splitlines()[-1].startswith("finished: ")
    again, out2, _ = run(capsys, ["--mode", "solve", "--difficulty", "easy",
                                  "--seed", "3"])
    assert (again, out2) == (code, out)


def test_solve_parse_error_exits_2(capsys):
    code, out, err = run(capsys, ["--mode", "solve", "a^^2"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_solve_unknown_exercise_exits_2(capsys):
    code, _, err = run(capsys, ["--mode", "solve", "--exercise", "fractions", "a^2"])
    assert code == 2 and "fractions" in err


def test_solve_with_a_tiny_budget_exits_1(capsys):
    code, _, err = run(capsys, ["--mode", "solve", "--budget", "1",
                                "(a^3*a^4)^2"])
    assert code == 1
    assert err.startswith("error: ")


def test_solve_reports_an_exponent_too_long_to_print(capsys):
    # MulExp makes an exponent of about 6,000 digits
    code, out, err = run(capsys, ["--mode", "solve", "(a^%s)^%s" % ("7" * 3000, "3" * 3000)])
    assert (code, out, err) == (1, "", "error: exponent has too many digits to print\n")


def test_solve_reports_a_term_too_deep_to_solve(capsys):
    code, out, err = run(capsys, ["--mode", "solve", "1/" * 900 + "a"])
    assert (code, out, err) == (1, "", "error: term nested too deeply\n")


def test_budget_must_be_positive(capsys):
    for budget in ("0", "-5"):
        with pytest.raises(SystemExit) as exit_info:
            main(["--mode", "solve", "--budget", budget, "a^2"])
        assert exit_info.value.code == 2
        assert "--budget: must be positive, got %s" % budget in capsys.readouterr().err


def test_a_bad_budget_variable_is_reported_once_at_start_up(capsys, monkeypatch):
    monkeypatch.setenv("STRATEGEM_BUDGET", "abc")
    code, out, err = run(capsys, ["--mode", "serve"], stdin="{bad\n{bad\n",
                         monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: STRATEGEM_BUDGET must be an integer, got 'abc'\n")
    # --budget takes the variable's place, so it is never read
    code, out, _ = run(capsys, ["--mode", "solve", "--budget", "10000", "a^2*a^3"])
    assert (code, out) == (0, "AddExp -> a^5\nfinished: a^5\n")


# ---------------------------------------------------------------------------
# lint

def test_lint_defaults_to_the_exercise_and_is_clean(capsys):
    code, out, _ = run(capsys, ["--mode", "lint"])
    assert code == 0
    assert out == "clean\n"


def test_lint_flags_a_left_recursive_term(capsys):
    code, out, _ = run(capsys, ["--mode", "lint", "mu x . x ; AddExp"])
    assert code == 1
    assert out.splitlines()[0].startswith("LeftRecursion at []: ")
    assert "'x'" in out


def test_lint_marks_uncertain_findings(capsys):
    code, out, _ = run(capsys, ["--mode", "lint",
                                "(mu x . Downs ; x) | AddExp"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("LeftFactor at []: ")
    assert lines[0].endswith(" (possible)")


def test_lint_reports_paths_into_the_term(capsys):
    code, out, _ = run(capsys, ["--mode", "lint",
                                "MulExp ; (mu x . x ; AddExp)"])
    assert code == 1
    assert "LeftRecursion at [1]: " in out


def test_lint_bad_term_exits_2(capsys):
    code, out, err = run(capsys, ["--mode", "lint", "mu . x"])
    assert code == 2 and out == ""
    assert err.startswith("parse error: ")


# ---------------------------------------------------------------------------
# serve

def test_serve_mode_reads_stdin_lines(capsys, monkeypatch):
    request = json.dumps({"service": "ready", "exercise": "powerExercise",
                          "state": {"env": {"bindings": {}, "labelPath": []},
                                    "expr": "a^14", "path": [],
                                    "strategyRef": "exerciseDefault",
                                    "start": "a^14", "trace": []}})
    code, out, _ = run(capsys, ["--mode", "serve"],
                       stdin=request + "\n\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == '{"ok":{"ready":true}}\n'


def test_serve_is_the_default_mode(capsys, monkeypatch):
    code, out, _ = run(capsys, [], stdin="{bad\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["error"]["code"] == "parse-error"


# ---------------------------------------------------------------------------
# interactive

def script(capsys, monkeypatch, commands, argv=()):
    argv = ["--mode", "interactive", *argv]
    return run(capsys, argv, stdin="".join(c + "\n" for c in commands),
               monkeypatch=monkeypatch)


def test_interactive_walks_an_exercise_to_the_end(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch,
                          ["expr", "steps", "hint", "apply AddExp [0]",
                           "steps", "apply MulExp []", "hint", "quit"],
                          argv=["(a^3*a^4)^2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "exercise powerExercise: (a^3*a^4)^2"
    assert lines[1] == "(a^3*a^4)^2"   # expr
    assert lines[2] == "2"             # steps
    assert lines[3] == "AddExp at [0]" # hint
    assert lines[4] == "(a^7)^2"       # after apply
    assert lines[5] == "1"
    assert lines[6] == "a^14"
    assert lines[7] == "already finished"


def test_interactive_submit_diagnoses(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch,
                          ["focus [0]", "submit a^12",
                           "focus []", "submit (a^7)^2", "steps", "quit"],
                          argv=["(a^3*a^4)^2"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines[0] == "Buggy (BugAddExp)"  # focus survives a rejected try
    assert lines[1] == "Expected (AddExp)"  # adopts the step, resets focus
    assert lines[2] == "1"


def test_interactive_correct_leap_restarts_the_strategy(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch,
                          ["submit a^14", "expr", "steps", "quit"],
                          argv=["(a^3*a^4)^2"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines[0] == "Correct"
    assert lines[1] == "a^14"
    assert lines[2] == "0"


def test_interactive_detour_keeps_hints_alive(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch,
                          ["submit 1/a^-5", "expr", "quit"], argv=["a^5"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines[0] == "Detour (ReciExp)"
    assert lines[1] == "1/a^-5"


def test_interactive_errors_do_not_end_the_session(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch,
                          ["focus [5]", "submit a^)", "apply AddExp",
                           "apply AddExp []", "frobnicate", "expr", "quit"],
                          argv=["(a^3*a^4)^2"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines[0] == "error: no subterm at path (5,)"
    assert lines[1].startswith("error: ")           # bad submit expression
    assert lines[2] == "usage: apply RULE LOC"
    assert lines[3].startswith("error: ")           # rule not applicable at []
    assert lines[4] == "unknown command 'frobnicate', try help"
    assert lines[5] == "(a^3*a^4)^2"


def test_interactive_survives_a_term_too_deep_to_solve(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch, ["solve", "quit"], argv=["1/" * 900 + "a"])
    assert code == 0
    assert out.splitlines()[1:] == ["error: term nested too deeply"]


def test_interactive_help_and_eof(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch, ["help"], argv=["a^2*a^3"])
    assert code == 0
    assert "apply RULE LOC" in out
    assert "submit EXPR" in out


def test_interactive_generates_without_a_target(capsys, monkeypatch):
    code, out, _ = script(capsys, monkeypatch,
                          ["quit"], argv=["--difficulty", "easy", "--seed", "1"])
    assert code == 0
    assert out.startswith("exercise powerExercise: ")


def test_interactive_unknown_exercise_exits_2(capsys, monkeypatch):
    code, _, err = script(capsys, monkeypatch, [], argv=["--exercise", "nope"])
    assert code == 2
    assert "nope" in err


def test_bad_mode_is_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["--mode", "dance"])
