"""Exact ``--format dot`` bytes of the three commands that name elements."""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from conftest import points_json, square_config
from tightspan import Matroid, PointConfig
from tightspan.cli import main
from tightspan.oracle import normal_fan


def _fan_json(rays, cones) -> str:
    return json.dumps({"rays": [list(r) for r in rays], "cones": [list(c) for c in cones]})


def _inputs() -> dict[str, str]:
    square_fan = normal_fan(square_config())
    line = 0b00111  # {0, 1, 2} is dependent: a three-point line
    bases = [c for c in combinations(range(5), 3) if sum(1 << i for i in c) != line]
    return {
        "square": points_json(square_config()),
        # a triangle with an apex above and below it: 5 vertices, 6 facets
        "bipyramid": points_json(PointConfig.from_rows(
            [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
        )),
        "square-fan": _fan_json(square_fan.rays, square_fan.maximal_cones),
        # a 2-cone and two lone rays: the artificial top covers the 2-cone
        # and each lone ray
        "non-pure-fan": _fan_json(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1), (2,), (3,)]
        ),
        "rank3-on-5": Matroid.from_bases(5, bases).to_json(),
    }


GOLDEN = {
    ("face-lattice", "square", "vertex"):
        "831b0f3fd0b7dbfa87901d35479d71847a1952deda2230e5a6687dbe9f0ba68a",
    ("face-lattice", "square", "facet"):
        "1c0f84c2f621ff8b789b8be5d5557d9c283afc7fa4e059383d431de838fe34a9",
    ("face-lattice", "bipyramid", "vertex"):
        "f5a7cfee9f322f0dd9e0d585a90e36b50e5042acfccfcea034edf7f2fcf66de2",
    ("face-lattice", "bipyramid", "facet"):
        "4b4cd00b9922d770e81036c82fa0b3c34307b8eaa2e3776a5a5233acff788aad",
    ("fan-lattice", "square-fan", None):
        "bbe7c6c22bcc7df6b07f2bbf1c893674047f7440ba5a4a2fa02af306fcaccc79",
    ("fan-lattice", "non-pure-fan", None):
        "c70a962e509e48230f63e248098e69a5158adfa3d429e7c648dfe67ba8e6819c",
    ("flats", "rank3-on-5", None):
        "4332005dfc737dcd73749d6b4cc894f71395bce6a1abae0829e7fd2cd320754e",
}


@pytest.mark.parametrize("command,name,encoding", sorted(GOLDEN, key=str))
def test_dot_output_is_pinned(command, name, encoding, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(_inputs()[name])
    argv = [command, str(path), "--format", "dot"]
    if encoding is not None:
        argv += ["--encoding", encoding]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command, name, encoding], out
