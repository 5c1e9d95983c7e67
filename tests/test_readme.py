"""README's examples run as written and print what their comments say, and
its two tables name tests that exist and commands that exit as stated."""

import ast
import functools
import json
import re
import shlex
from pathlib import Path

from fracvar.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)

# Every public result has at least one row in "Accuracy and errors": each
# entry is the set of words its first cell must hold.
REQUIRED_ROWS = [
    ("`frac_deriv`",), ("`frac_deriv_from_base`",), ("history kernel",), ("`lift`",),
    ("`taylor_reconstruct`",), ("`action`",), ("`el_residual`", "classical"),
    ("`el_residual`", "fractional"), ("`frac_partial`",), ("`hessian_g`",),
    ("`el_explicit_rhs`",), ("`solve_multiterm`",), ("`solve_fode2`",), ("`fde_residual`",),
    ("`mittag_leffler`",), ("`ibp_residual`",), ("`leibniz_series`",),
]

# The files the command-line table reads, written into its working directory.
TABLE_FILES = {
    "off-grid.csv": "t,x\n" + "".join(f"{j / 10},{j}\n" for j in (0, 1, 2, 3.5, 4, 5, 6, 7, 8, 9)),
    "no-header.csv": "".join(f"{j / 8},{j**3 / 512}\n" for j in range(10)),
    "nan-x.csv": "t,x\n" + "".join(f"{j / 8},{'nan' if j == 4 else j / 8}\n" for j in range(10)),
    "cfg.json": json.dumps({"nope": 1}),
}


def table(heading):
    """The rows under ``## heading`` of README's first table there, as lists of cells."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip() for line in section.splitlines() if line.startswith("|")]
    rows = [[c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", ln)[1:-1]]
            for ln in lines[2:]]
    assert rows, f"no table under '## {heading}'"
    return rows


@functools.cache
def defined_tests(path):
    """The names of the test functions defined at the top level of ``path``."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def assert_names_a_test(cell):
    """A test cell is `tests/<file>.py::<function>` or, for an open row, ROADMAP item N."""
    item = re.fullmatch(r"ROADMAP item (\d+)", cell)
    if item:
        roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
        assert re.search(rf"^{item[1]}\. \*\*", roadmap, re.MULTILINE), cell
        return
    named = re.fullmatch(r"`(tests/test_\w+\.py)::(test_\w+)`", cell)
    assert named, f"not a test or a ROADMAP item: {cell}"
    path, name = named.groups()
    assert name in defined_tests(path), cell


def test_short_tour_prints_its_comments():
    (tour,) = [code for lang, code in BLOCKS if lang == "python"]
    scope = {}
    exec(compile(tour, "README.md", "exec"), scope)
    assert scope["traj"].jets.shape == (5, 1, 1025)
    report = scope["report"]
    assert round(report.norm_inf, 4) == 0.0108 and report.excluded == 2


def test_command_line_examples_exit_0(capsys, tmp_path, monkeypatch):
    lines = [line for lang, code in BLOCKS if lang == "sh" for line in code.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("fracvar ")]
    assert ["models", "list"] in commands
    monkeypatch.chdir(tmp_path)  # `solve --out plate.csv` writes what `el-check` then reads
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_accuracy_table_has_a_row_for_every_public_result():
    rows = table("Accuracy and errors")
    assert all(len(row) == 4 for row in rows), [row for row in rows if len(row) != 4]
    for words in REQUIRED_ROWS:
        assert any(all(w in row[0] for w in words) for row in rows), f"no row for {words}"
    for row in rows:
        assert_names_a_test(row[3])
        assert ("(open)" in row[0]) == row[3].startswith("ROADMAP"), row


def test_command_line_table_exits_as_stated(capsys, tmp_path, monkeypatch):
    rows = table("Command line")
    monkeypatch.chdir(tmp_path)
    for name, text in TABLE_FILES.items():
        (tmp_path / name).write_text(text)
    for command, code, message, test in rows:
        assert_names_a_test(test)
        argv = shlex.split(command.strip("`"))
        assert argv[0] == "fracvar", command
        got = main(argv[1:])
        out, err = capsys.readouterr()
        assert got == int(code), command
        if got == 0:
            assert (message, err) == ("—", ""), command
        else:
            assert out == "" and err.count("\n") == 1, command
            assert err.startswith(message.strip("`")), (command, err)
