"""The per-configuration caches: every one bounded, none seen in an output.

What depends on the point configuration alone (its affine frame and DD
seed, the gate's supports and pairs, the loop faces, the hull's dual
frame, the uniform owner and its polytope) is kept in small
``functools.lru_cache``s.  Each output below is compared byte for byte
with every cache cleared, on a warm second run in the same process and,
for scans, with ``--jobs 2``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tightspan
from conftest import CENSUS, CENSUS_DIGESTS, u12_power
from tightspan import (
    Matroid,
    PointConfig,
    corank_valuation,
    exactgeom,
    matroid,
    regular_subdivision,
    subdivision,
    troplin,
)
from tightspan.cli import main


def program_caches() -> dict:
    """Every lru_cache of the program, at module level or on a class, by
    qualified name."""
    found = {}
    for info in pkgutil.iter_modules(tightspan.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"tightspan.{info.name}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)]
            for qualname, member in members:
                if hasattr(member, "cache_info") and member.__module__ == module.__name__:
                    found[f"{module.__name__}.{qualname}"] = member
    return found


def clear_caches() -> None:
    for cache in program_caches().values():
        cache.cache_clear()


def test_every_cache_is_bounded():
    caches = program_caches()
    for name in (
        "tightspan.exactgeom._frame",
        "tightspan.matroid.Matroid.uniform",
        "tightspan.matroid.Matroid.polytope",
        "tightspan.matroid._passes_exchange",
        "tightspan.matroid._exchange_pairs",
        "tightspan.troplin._loop_faces",
        "tightspan.subdivision._dual_frame",
    ):
        assert name in caches
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name


def run(argv, out: Path) -> bytes:
    assert main(argv + ["-o", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("census", sorted(CENSUS_DIGESTS))
def test_census_scans_are_the_same_cold_warm_and_in_workers(tmp_path, census):
    r, digest = CENSUS_DIGESTS[census]
    argv = ["fvector-scan", str(CENSUS / census), "--n", "5", "--r", str(r),
            "--lift", "corank"]
    clear_caches()
    cold = run(argv, tmp_path / "cold.jsonl")
    assert hashlib.sha256(cold).hexdigest() == digest
    assert run(argv, tmp_path / "warm.jsonl") == cold
    clear_caches()
    assert run(argv + ["--jobs", "2"], tmp_path / "jobs.jsonl") == cold


def test_a_census_scan_computes_each_configuration_fact_once(tmp_path):
    # every corank line of a file lifts onto U(3, 5), one configuration;
    # the 171 lines are gated one by one, and their 26 distinct
    # subdivisions are enumerated once each
    clear_caches()
    argv = ["fvector-scan", str(CENSUS / "census_n5_r3.txt"), "--n", "5", "--r", "3",
            "--lift", "corank"]
    run(argv, tmp_path / "scan.jsonl")
    for cache in (
        exactgeom._frame,
        Matroid.uniform,
        Matroid.polytope,
        matroid._supports,
        matroid._exchange_pairs,
    ):
        info = cache.cache_info()
        assert info.misses == 1 and info.hits >= 170, cache
    for cache in (troplin._loop_faces, subdivision._dual_frame):
        info = cache.cache_info()
        assert info.misses == 1 and info.hits == 25, cache


def test_flagship_tls_is_the_same_cold_and_warm(tmp_path):
    (tmp_path / "m.json").write_text(Matroid.uniform(4, 8).to_json())
    (tmp_path / "v.json").write_text(corank_valuation(u12_power(4)).to_json())
    argv = ["tls", str(tmp_path / "m.json"), str(tmp_path / "v.json")]
    clear_caches()
    cold = run(argv, tmp_path / "cold.json")
    assert json.loads(cold)["bounded_f_vector"] == [14, 24, 12, 1]
    assert run(argv, tmp_path / "warm.json") == cold


# sha256 of the linear space documents: `tls` on the flagship (the corank
# lift of U(1,2)^4, the files above) and `bergman` on U(1,2)^3
TLS_DIGESTS = {
    ("tls", "json"): "5d2fa3d7f244369cd3884cc8fe21246bb33bd66c712f866e3fc73ca2e1f9b402",
    ("tls", "pretty"): "59fe85152af4cced03577209d46eb8b913087ff861d1fece03376a11e7ac337e",
    ("bergman", "json"): "3a11027112ec0b5fbee8b7b4408cf460f8eefdd2e300da4e6b004568a1736f94",
    ("bergman", "pretty"): "6ab7ea7d866fce76dc9cebed9017546123e1846ac1878599be069ec0e8ffa92e",
}


@pytest.mark.parametrize("command, fmt", sorted(TLS_DIGESTS))
def test_linear_space_documents_keep_their_bytes_cold_and_warm(tmp_path, command, fmt):
    if command == "tls":
        (tmp_path / "m.json").write_text(Matroid.uniform(4, 8).to_json())
        (tmp_path / "v.json").write_text(corank_valuation(u12_power(4)).to_json())
        argv = ["tls", str(tmp_path / "m.json"), str(tmp_path / "v.json")]
    else:
        (tmp_path / "m.json").write_text(u12_power(3).to_json())
        argv = ["bergman", str(tmp_path / "m.json")]
    argv += ["--format", fmt]
    clear_caches()
    cold = run(argv, tmp_path / "cold.out")
    assert hashlib.sha256(cold).hexdigest() == TLS_DIGESTS[command, fmt]
    assert run(argv, tmp_path / "warm.out") == cold


# sha256 of each output, heights in thirds and in integers
FRACTIONAL_DIGESTS = {
    "subdivide": (
        "b726523dcd6463d68bf3816d0b59e4fca214df77ac49692439fb4f79669b3b6a",
        "2bcaa97137a6d3d8f3da046b326cdd5b9d1a08b306979bab756343ed9eb909af",
    ),
    "tightspan": (
        "1c8d5c23c1aba4a52869340a73566737ffcb058bfa7553dd1727a1eb595c193d",
        "254cd1d559e5db7e07205bb87b40eafe873c01cc8e2adb4d3d4f7482317c8328",
    ),
    "tightspan --gamma all --quotient off": (
        "63ded5a49ce302aece602c8bf26853475a053a99bc3c882372e0e5c4d6fc5592",
        "42b524ec00e404bd98209f5803a3a623c6ea1d8e2bc1cf79aa227fbf9b40d9d8",
    ),
}


@pytest.mark.parametrize("command", sorted(FRACTIONAL_DIGESTS))
def test_fractional_heights_rescale_the_cached_frame(tmp_path, command):
    # the points' denominators give the frame's scale 4; heights in thirds
    # are scaled to integers by 3 on their own, so both runs read the
    # cached projections and seed rays as they are
    points = {"dim": 2, "points": [["0", "0"], ["1/2", "0"], ["0", "1/2"], ["1/2", "1/2"],
                                   ["1/4", "1/4"]]}
    (tmp_path / "p.json").write_text(json.dumps(points))
    (tmp_path / "thirds.json").write_text(json.dumps({"values": ["1/3", "0", "2/3", "0", "-1/3"]}))
    (tmp_path / "ints.json").write_text(json.dumps({"values": ["1", "0", "0", "1", "0"]}))
    name, *options = command.split()
    lifted = [name, str(tmp_path / "p.json")]
    clear_caches()
    cold = run(lifted + [str(tmp_path / "thirds.json")] + options, tmp_path / "cold.json")
    other = run(lifted + [str(tmp_path / "ints.json")] + options, tmp_path / "other.json")
    digests = tuple(hashlib.sha256(out).hexdigest() for out in (cold, other))
    assert digests == FRACTIONAL_DIGESTS[command]
    assert run(lifted + [str(tmp_path / "thirds.json")] + options, tmp_path / "warm.json") == cold
    clear_caches()
    assert run(lifted + [str(tmp_path / "ints.json")] + options, tmp_path / "other_cold.json") == other


_quarter = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[_quarter] * d), min_size=2, max_size=7, unique=True)
    ),
    st.data(),
)
def test_the_kept_base_hull_is_the_one_every_height_scale_builds(points, data):
    # heights in thirds, fifths or integers are each scaled by their own
    # denominators; the base each run would build is the kept one
    config = PointConfig(dim=len(points[0]), points=tuple(points))
    scales = [1, 3, 5]
    runs = [
        [Fraction(data.draw(st.integers(-3, 3)), data.draw(st.sampled_from(scales)))
         for _ in points]
        for _ in range(2)
    ]
    runs.append([data.draw(st.integers(-3, 3)) for _ in points])
    cold = []
    for heights in runs:
        clear_caches()
        cold.append(repr(regular_subdivision(config, heights)))
    clear_caches()
    warm = [regular_subdivision(config, heights) for heights in runs]
    assert [repr(sub) for sub in warm] == cold
    if exactgeom._frame(config).pivots:
        assert all(sub.base_hrep is warm[0].base_hrep for sub in warm)
        assert all(sub.base_incidence is warm[0].base_incidence for sub in warm)


@pytest.mark.parametrize("command", ["subdivide", "tightspan"])
def test_the_zero_dimensional_point_is_the_same_cold_and_warm(tmp_path, command):
    (tmp_path / "p.json").write_text(json.dumps({"dim": 0, "points": [[]]}))
    (tmp_path / "h.json").write_text(json.dumps({"values": ["0"]}))
    argv = [command, str(tmp_path / "p.json"), str(tmp_path / "h.json")]
    clear_caches()
    cold = run(argv, tmp_path / "cold.json")
    if command == "subdivide":
        assert json.loads(cold)["matroidal"] is True
    assert run(argv, tmp_path / "warm.json") == cold


def test_a_read_matroid_is_exchange_checked_once(tmp_path):
    # U(1,2) + U(1,2) has 4 of the 6 2-subsets: the exchange test scans
    (tmp_path / "m.json").write_text(u12_power(2).to_json())
    clear_caches()
    assert main(["bergman", str(tmp_path / "m.json"), "-o", str(tmp_path / "b.json")]) == 0
    info = matroid._passes_exchange.cache_info()
    assert info.misses == 1  # the read; the gate's support pass asks again
    assert info.hits == 1
