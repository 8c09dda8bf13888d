"""The README's examples and stated values, run and checked.

Every ``python`` block of README.md runs, in order, in one namespace; every
``covertree`` line of its "Command line" block runs through ``cli.main`` and
must exit 0; and each value its numerical policy states equals the constant
that holds it.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from covertree import analysis, cli, cover, graph_core, spectral

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verdict == "pass"


def test_command_line_block_exits_0(tmp_path, monkeypatch):
    block = re.search(r"```\n(.*?)```", _section("Command line"), flags=re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("covertree ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    # the one input the block does not write: a field on K(3,4)'s edges, which
    # rate --theorem 3 needs and average takes
    k34 = graph_core.generate("complete_bipartite", 3, 4)
    cover.save_field(cli.random_field(k34, cover.EDGES, 1), "f.fld")
    for line in lines:  # an optional [argument] is given
        assert cli.main(shlex.split(re.sub(r"[][]", "", line))[1:]) == 0, line


# each value the numerical policy states, found by the words around it, and
# the constant that holds it
POLICY = [
    ("GROUPING_TOL", r"Eigenvalues within (\S+) are grouped", spectral.GROUPING_TOL),
    ("ACTIVITY_TOL", r"projection norm exceeds (\S+);", spectral.ACTIVITY_TOL),
    ("DISCRIMINANT_TOL", r"Double-step discriminants within (\S+) of zero",
     spectral.DISCRIMINANT_TOL),
    ("DEVIATION_FLOOR", r"Deviations below (\S+) are treated as exact zeros",
     analysis.DEVIATION_FLOOR),
    ("DEFAULT_BUDGET", r"The budget is (\S+) \(`analysis.DEFAULT_BUDGET`\)",
     analysis.DEFAULT_BUDGET),
    ("_GATHER_MIN", r"Below (\S+) half-edges \(`cover._GATHER_MIN`\)", cover._GATHER_MIN),
    ("_EXACT_BITS", r"raw path counts total below 2\^(\S+) \(`cover._EXACT_BITS`\)",
     cover._EXACT_BITS),
    ("_TAIL_FLOATS", r"in chunks of at most 2\^(\S+) floats \(`cover._TAIL_FLOATS`",
     math.log2(cover._TAIL_FLOATS)),
    ("VERIFY_BLOCK", r"in blocks of (\S+) columns \(`cli.VERIFY_BLOCK`", cli.VERIFY_BLOCK),
]


@pytest.mark.parametrize("pattern,constant", [case[1:] for case in POLICY],
                         ids=[case[0] for case in POLICY])
def test_numerical_policy_states_each_constant(pattern, constant):
    stated, = re.findall(pattern, " ".join(_section("Numerical policy").split()))
    assert float(stated.replace("10^", "1e")) == constant
