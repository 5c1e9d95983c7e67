"""README's examples run as written and print what their comments say."""

import re
import shlex
from pathlib import Path

from fracvar.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


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
