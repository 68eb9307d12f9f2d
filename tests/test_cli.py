import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from spinstat import cli, correlations, fockspace, hamiltonians, memo, opalgebra, symmetry
from helpers import break_boson_same_point, occupations
from spinstat.cli import load_config, main
from spinstat.hamiltonians import OneBodySpec, one_particle_spectrum
from spinstat.modes import SIZE_KEYS, Lattice, SpinQuantum


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def claim_map() -> str:
    """The README's claim-map section."""
    return README.read_text().split("## Claim map", 1)[1].split("\n## ", 1)[0]


def claim_map_rows(text: str) -> set[tuple[str, str]]:
    """(suite, check) for every check named in the claim-map table."""
    rows = set()
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].startswith("`"):
            suite = cells[1].strip("`")
            rows |= {(suite, check) for check in re.findall(r"`([^`]+)`", cells[2])}
    return rows


@pytest.fixture(scope="module")
def small_suite_reports():
    """Every suite once on ring:4, 2s=1, both grades, sectors up to 2."""
    cfg = cli.RunConfig(n_max=2).validate()
    return {name: suite(cfg, np.random.default_rng(cfg.seed)) for name, suite in cli.SUITES.items()}


def test_claim_map_lists_exactly_the_suite_checks(small_suite_reports):
    reported = {
        (name, re.sub(r" \[sigma=[+-]1\]$", "", r["check"]))
        for name, report in small_suite_reports.items() for r in report.residuals
    }
    text = claim_map()
    listed = claim_map_rows(text)
    assert reported - listed == set(), "suite checks missing from the README claim map"
    assert listed - reported == set(), "claim-map checks no suite reports"
    for step in "abcde":
        assert f"\n| ({step}) " in text, f"step ({step}) has no row"


def test_rotation_suite_squares_the_half_turn(small_suite_reports):
    report = small_suite_reports["rotation"]
    squares = {
        r["check"]: r["value"] for r in report.residuals if r["check"].startswith("half-turn lift squared")
    }
    assert set(squares) == {f"half-turn lift squared vs (-1)^(2sN) [sigma={s:+d}]" for s in (1, -1)}
    assert max(squares.values()) <= 1e-12


def test_verify_theorem_exit_zero(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--suite", "theorem", "--twos-s", "1", "--out", str(out)])
    assert code == 0
    report = read_json(out / "theorem.json")
    assert report["passed"] is True
    assert report["seed"] == 42
    theorem = read_json(out / "theorem_report.json")
    assert theorem["verdict_sigma"] == -1


def test_verify_ideal_gas_example(tmp_path):
    out = tmp_path / "out"
    code = main([
        "verify", "--suite", "ideal-gas", "--twos-s", "0", "--sigma", "-1",
        "-N", "2", "--out", str(out),
    ])
    assert code == 0
    report = read_json(out / "ideal-gas.json")
    assert report["passed"] is True
    assert all(r["passed"] for r in report["residuals"])


def test_verify_all_suites_from_config(tmp_path):
    cfg = {
        "lattice": {"kind": "ring", "M": 2},
        "twos_s": 1,
        "sigma": "both",
        "N": 2,
        "n_max": 2,
        "seed": 7,
        "out": str(tmp_path / "out"),
        "suites": ["commutators", "completeness", "permutations"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    for name in cfg["suites"]:
        assert (tmp_path / "out" / f"{name}.json").exists()


def test_verify_failure_exit_one(tmp_path):
    # an absurd tolerance turns float dust into a failure
    code = main([
        "verify", "--suite", "completeness", "--twos-s", "0", "--lattice", "ring:2",
        "--tol", "1e-300", "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    report = read_json(tmp_path / "out" / "completeness.json")
    assert report["passed"] is False


def test_odd_ring_is_config_error(tmp_path, capsys):
    code = main(["verify", "--suite", "theorem", "--lattice", "ring:3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "even" in capsys.readouterr().err


def test_unknown_suite_rejected(tmp_path):
    cfg = {"suites": ["nonsense"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 2


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["verify", "--config", str(path)]) == 2


def test_unmatched_interaction_key_is_config_error(tmp_path, capsys):
    cfg = {"lattice": {"kind": "grid2d", "L": 3}, "twos_s": 0, "sigma": -1, "N": 2,
           "V": {"1.414": -5}, "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["diagonalize", "--config", str(path)]) == 2
    assert "1.414" in capsys.readouterr().err
    cfg["V"] = {"1.4142135623730951": -5}  # the diagonal distance matches
    path.write_text(json.dumps(cfg))
    assert main(["diagonalize", "--config", str(path)]) == 0


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(cfg, rng):
        raise ValueError("winding undefined")

    monkeypatch.setitem(cli.SUITES, "theorem", broken)
    with pytest.raises(ValueError, match="winding undefined"):
        main(["verify", "--suite", "theorem", "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("spec", [{"kind": "ring", "M": 6}, {"kind": "grid2d", "L": 5}])
def test_lattice_specs_round_trip_through_the_size_keys(spec):
    kind = spec["kind"]
    lattice = cli.RunConfig(lattice=spec).make_lattice()
    assert lattice == Lattice(kind, spec[SIZE_KEYS[kind]])
    assert lattice.describe() == spec
    assert cli._parse_lattice_flag(f"{kind}:{lattice.size}") == spec


def test_bad_lattice_flag_is_config_error(tmp_path, capsys):
    assert main(["verify", "--lattice", "ring:x", "--out", str(tmp_path / "o")]) == 2
    assert "ring:x" in capsys.readouterr().err


def test_onsite_list_of_wrong_length_is_config_error(tmp_path, capsys):
    cfg = {"lattice": {"kind": "ring", "M": 4}, "twos_s": 0, "sigma": -1, "N": 1,
           "onsite_U": [0.1, 0.2], "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["diagonalize", "--config", str(path)]) == 2
    assert "onsite_u has 2 entries" in capsys.readouterr().err


def test_theorem_winding_too_coarse_is_config_error(tmp_path):
    code = main([
        "verify", "--suite", "theorem", "--lattice", "ring:4", "--twos-s", "2",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2


@pytest.mark.parametrize("raw", [
    {"N": "2"}, {"twos_s": "1"}, {"tol": "1e-9"}, {"seed": 1.5}, {"lattice": "ring:4"},
    {"n_max": True}, {"lattice": {"kind": "ring", "M": 4.7}}, {"V": {"1": True}},
])
def test_bad_config_type_is_config_error(tmp_path, capsys, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = main(["verify", "--suite", "theorem", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert f"config key {next(iter(raw))!r}" in capsys.readouterr().err


def test_diagonalize_minimum_matches_filling_oracle(tmp_path):
    out = tmp_path / "out"
    code = main([
        "diagonalize", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1",
        "-N", "2", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    values = [float(r.split(",")[1]) for r in rows]
    eps, _ = one_particle_spectrum(OneBodySpec(hop_t=1.0), Lattice.ring(4), SpinQuantum(0))
    assert min(values) == pytest.approx(eps[0] + eps[1])
    assert values == sorted(values)


def test_diagonalize_vacuum_sector(tmp_path):
    out = tmp_path / "out"
    assert main([
        "diagonalize", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "+1",
        "-N", "0", "--out", str(out),
    ]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows == ["index,eigenvalue", "0,0.0"]


def test_diagonalize_dumps(tmp_path):
    out = tmp_path / "out"
    assert main([
        "diagonalize", "--lattice", "ring:2", "--twos-s", "0", "--sigma", "-1",
        "-N", "1", "--out", str(out), "--dump-basis", "--dump-matrix", "--eigenvectors",
    ]) == 0
    assert (out / "basis.csv").read_text().startswith("n0,n1")
    matrix_rows = (out / "hamiltonian.csv").read_text().strip().splitlines()
    assert matrix_rows[0] == "row,col,re,im"
    assert len(matrix_rows) == 3  # one hopping bond, two directions
    assert (out / "eigenvectors.csv").exists()


def test_diagonalize_requires_single_sigma(tmp_path):
    assert main([
        "diagonalize", "--lattice", "ring:2", "--twos-s", "0", "-N", "1",
        "--out", str(tmp_path / "o"),
    ]) == 2


def test_diagonalize_dimension_cap(tmp_path, monkeypatch, capsys):
    cfg = {"lattice": {"kind": "ring", "M": 8}, "twos_s": 0, "sigma": 1, "N": 3, "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(fockspace, "DEFAULT_DIMENSION_CAP", 10)
    assert main(["diagonalize", "--config", str(path)]) == 2
    assert "120 states, over the cap 10" in capsys.readouterr().err
    # the cap is no config key
    path.write_text(json.dumps(dict(cfg, dimension_cap=10)))
    assert main(["diagonalize", "--config", str(path)]) == 2
    assert "unknown config keys: ['dimension_cap']" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["pair-operator", "theorem", "rotation"])
def test_pair_suites_below_two_particles_are_config_errors(tmp_path, capsys, suite):
    # the pair operator maps N to N - 2: with n_max = 1 there is no sector to check
    assert main(["verify", "--suite", suite, "--n-max", "1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"the {suite} suite needs n_max >= 2" in err
    assert not (tmp_path / "o" / f"{suite}.json").exists()


@pytest.mark.parametrize("suite", ["pair-operator", "theorem"])
def test_lattice_without_inversion_pair_is_config_error(tmp_path, capsys, suite):
    # grid2d:1 is a single site, its own inversion image
    assert main([
        "verify", "--suite", suite, "--lattice", "grid2d:1", "--twos-s", "0",
        "--out", str(tmp_path / "o"),
    ]) == 2
    assert "no site pair related by inversion" in capsys.readouterr().err
    assert not (tmp_path / "o" / f"{suite}.json").exists()


@pytest.mark.parametrize("lattice, twos_s, n_max, site_values", [
    ({"kind": "ring", "M": 4}, 2, 3, [8.881784197001252e-16, 0.0, 0.0, 0.0, 0.0, 0.0]),
    ({"kind": "grid2d", "L": 3}, 1, 2, [8.881784197001252e-16, 0.0, 0.0, 0.0, 0.0, 0.0]),
])
def test_commutator_residuals_are_pinned(lattice, twos_s, n_max, site_values):
    # exact floats of the pair-by-pair products: any change to the ladder
    # kernel or the relation products that moves a bit shows here
    cfg = cli.RunConfig(lattice=lattice, twos_s=twos_s, n_max=n_max).validate()
    report = cli.suite_commutators(cfg, None)
    assert [r["value"] for r in report.residuals] == site_values


def _count_calls(monkeypatch, home, name) -> list:
    """Record each call of ``home.name`` through every spinstat module binding it."""
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (opalgebra, fockspace, hamiltonians, symmetry, correlations, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _sector_builds(builds) -> list:
    """(expressions, domain, codomain) of every sector of every ``matrix_family`` call."""
    return [(tuple(exprs), domain, codomain) for exprs, sectors in builds for domain, codomain in sectors]


def test_rotation_suite_builds_each_matrix_once(monkeypatch):
    cfg = load_config(None).validate()  # CLI defaults: ring:4, 2s=1 (8 modes), both grades, n_max=3
    builds = _count_calls(monkeypatch, fockspace, "matrix_family")
    report = cli.suite_rotation(cfg, None)
    assert report.passed
    # per grade: one call building the family of a(xi) over the 8 modes on
    # N = 1, 2 and one building F(r) over both projections and the 4 sites on N = 2, 3
    assert [(len(exprs), len(sectors)) for exprs, sectors in builds] == [(8, 2), (8, 2)] * 2
    sectors = _sector_builds(builds)
    assert len(sectors) == 2 * (2 + 2) == 8
    assert sorted(len(exprs) for exprs, _, _ in sectors) == [8] * 8
    assert sum(len(exprs) for exprs, _, _ in sectors) == 64  # the matrices, one each
    assert len(set(sectors)) == len(sectors)  # no (family, sector) twice


def test_ladder_relations_build_each_ladder_matrix_once(monkeypatch):
    cfg = load_config(None).validate()  # CLI defaults: ring:4, 2s=1 (8 modes), both grades, n_max=3
    builds = _count_calls(monkeypatch, fockspace, "matrix_family")
    cli.suite_commutators(cfg, None)
    # per grade: one call building the family of the 8 creators on each of
    # N = 0..4 and one building that of the 8 annihilators on each of N = 1..4
    assert [(len(exprs), len(sectors)) for exprs, sectors in builds] == [(8, 5), (8, 4)] * 2
    sectors = _sector_builds(builds)
    assert len(sectors) == 2 * (4 + 5)
    assert len(set(sectors)) == len(sectors)  # no (family, sector) twice
    orderings = _count_calls(monkeypatch, opalgebra, "normal_order")
    cli.suite_ideal_gas(cfg, None)
    assert orderings == []


@pytest.mark.parametrize("suite, total", [(cli.suite_pair_operator, 16), (cli.suite_theorem, 16)])
def test_pair_suites_build_each_pair_matrix_once(monkeypatch, suite, total):
    cfg = load_config(None).validate()  # CLI defaults: ring:4, 2s=1, both grades, n_max=3
    builds = _count_calls(monkeypatch, fockspace, "matrix_family")
    assert suite(cfg, None).passed
    # `total` pair families, one per grade, N = 2, 3, projection and kind: F(r)
    # over the 4 sites and the same-point pair (24 and 20 when each identity was
    # computed apart). Both projections of a kind are one expression list, so
    # total // 2 sector builds (one per projection before), and each list on
    # N = 2, 3 is built in one call
    assert [len(sectors) for _, sectors in builds] == [2] * (total // 4)
    sectors = _sector_builds(builds)
    assert sorted(len(exprs) for exprs, _, _ in sectors) == [2] * (total // 4) + [8] * (total // 4)
    assert len(set(sectors)) == len(sectors) == total // 2  # no (expression list, sector) twice


DEFAULT_VERIFY_FAMILY_CALLS = 18  # matrix_family calls of a default verify
DEFAULT_VERIFY_SECTOR_BUILDS = 52  # the sector families they build


def test_readme_states_the_default_verify_family_counts():
    text = " ".join(README.read_text().split())
    found = re.search(
        r"default `verify` so builds (\d+) sector families instead of 84, in (\d+) `matrix_family` calls", text
    )
    assert found, "the README sentence on the default verify's family builds is gone"
    assert [int(n) for n in found.groups()] == [DEFAULT_VERIFY_SECTOR_BUILDS, DEFAULT_VERIFY_FAMILY_CALLS]


def test_default_verify_builds_each_family_once_for_every_suite(tmp_path, monkeypatch):
    builds = _count_calls(monkeypatch, fockspace, "matrix_family")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--out", str(tmp_path / "o")]) == 0
    # 84 sector builds when each suite built its own: the rotation, pair-operator
    # and theorem suites share the F(r) families, the pair-operator and theorem
    # suites the same-point pairs; 60 calls when each made one call per
    # sector, 22 with one per expression list and projection, 18 with one per
    # expression list over every projection (52 sector builds)
    assert len(builds) == DEFAULT_VERIFY_FAMILY_CALLS
    assert len(_sector_builds(builds)) == DEFAULT_VERIFY_SECTOR_BUILDS
    built = Counter(_sector_builds(builds))
    repeats = {
        (exprs, domain.sigma, domain.n_particles, codomain.n_particles): n
        for (exprs, domain, codomain), n in built.items() if n > 1
    }
    # the only repeats: a(xi) over the 8 modes on N = 1, 2, built by the
    # commutators suite's relation check, which drops its families when done,
    # and again by the rotation suite's field-transform identity
    space = load_config(None).validate().make_space()
    assert repeats == {
        (tuple(opalgebra.destroy(m, sigma) for m in space.modes), sigma, n, n - 1): 2
        for sigma in (1, -1) for n in (1, 2)
    }


def test_default_verify_builds_each_pair_record_once(tmp_path, monkeypatch):
    memos = (symmetry.pair_checks, symmetry._pair_sectors)
    conjugations = _count_calls(monkeypatch, symmetry, "_conjugated_stack")
    before = [m.cache_info() for m in memos]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--out", str(tmp_path / "o")]) == 0
    after = [m.cache_info() for m in memos]
    # per grade: one record, built by the pair-operator suite and read by the
    # theorem suite; its F(r) families (2 projections x N = 2, 3), built by the
    # rotation suite
    assert [(a.misses - b.misses, a.hits - b.hits) for a, b in zip(after, before)] == [(2, 2), (2, 2)]
    # the one-rotation conjugations, each made once by the check that reads
    # it: the half-turn eigenvalue (all 4 families) and the winding (the
    # one-step rotation of the 2 on N = 2); the rotation suite stacks all 4
    # rotations of a family in one conjugation
    assert sum(len(rots) == 1 for rots, _ in conjugations) == 2 * (4 + 2)


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "--suite", "theorem", "--lattice", "ring:4", "--twos-s", "2"],  # exit 2 midway: too few steps
    ["verify", "--suite", "completeness", "--lattice", "ring:2", "--twos-s", "0"],
    ["diagonalize", "--sigma", "-1"],
    ["correlate", "--sigma", "1"],
], ids=["verify", "refused-verify", "completeness", "diagonalize", "correlate"])
def test_every_memo_is_empty_after_main(tmp_path, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path / "o")]) in (0, 2)
    held = {m.__qualname__: m.cache_info().currsize for m in memo._MEMOS}
    assert held == dict.fromkeys(held, 0)
    named = {
        fockspace._build_basis_cached, fockspace.bracket_matrix, symmetry._sector_unitary,
        symmetry._pair_sectors, symmetry.pair_checks,
    }
    assert named == set(memo._MEMOS)  # a rotation is a value, not a memo


def test_orthonormality_suite_makes_one_oracle_call_per_sector(monkeypatch):
    cfg = load_config(None).validate()  # CLI defaults: ring:4, 2s=1 (8 modes), both grades, n_max=3
    calls = _count_calls(monkeypatch, fockspace, "overlap_oracle")
    report = cli.suite_orthonormality(cfg, np.random.default_rng(cfg.seed))
    assert report.passed
    # per grade, N = 0..3: every pair of 8**N tuples up to N = 2, then 2,000 drawn pairs
    assert [(len(bras), sigma) for bras, _, sigma in calls] == [
        (pairs, sigma) for sigma in (1, -1) for pairs in (1, 64, 4096, 2000)
    ]
    assert [bras.shape[1] for bras, _, _ in calls] == [0, 1, 2, 3] * 2


def test_default_verify_reports_are_pinned(tmp_path):
    # exact floats of kernel-exact suites at the CLI defaults; the completeness
    # probes follow the orthonormality draws in one seeded stream, so a moved
    # or reordered draw shows here (ideal-gas is left out: eigh bits depend on
    # the BLAS thread count)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    pinned = {
        "orthonormality": [1.1102230246251565e-16, 1.1102230246251565e-16],
        "completeness": [
            8.95090418262362e-16, 3.1401849173675503e-16, 2.482534153247273e-16,
            9.930136612989092e-16, 3.1401849173675503e-16, 3.1401849173675503e-16,
        ],
        "permutations": [0.0, 0.0],
        "rotation": [0.0, 4.0029660424867215e-16, 0.0, 0.0, 0.0, 2.220446049250313e-16, 0.0, 0.0],
    }
    for suite, values in pinned.items():
        assert [r["value"] for r in read_json(tmp_path / f"{suite}.json")["residuals"]] == values, suite


@pytest.mark.parametrize("lattice, twos_s, n_max, values", [
    ({"kind": "grid2d", "L": 3}, 1, 3, [0.0, 8.005932084973443e-16, 0.0, 0.0, 0.0, 2.220446049250313e-16, 0.0, 0.0]),
    ({"kind": "ring", "M": 8}, 3, 2, [
        2.482534153247273e-16, 4.47411937370028e-16, 2.220446049250313e-16, 0.0,
        1.5700924586837752e-16, 4.47411937370028e-16, 2.220446049250313e-16, 0.0,
    ]),
], ids=["grid3-2s1", "ring8-2s3"])
def test_rotation_residuals_are_pinned(lattice, twos_s, n_max, values):
    # exact floats of the rotation suite where quarter turns carry the spinor
    # phases e^{+-i pi/4} (grid2d) or eighth turns mix real and imaginary parts
    # (ring:8): a wrong complex product in the conjugations or lifts moves them
    cfg = cli.RunConfig(lattice=lattice, twos_s=twos_s, n_max=n_max).validate()
    assert [r["value"] for r in cli.suite_rotation(cfg, None).residuals] == values


@pytest.mark.parametrize("flags, digests", [
    ([], (
        "f02b0f188fc931ce6ab178e28875021bb377853c806ddff23d51fe2b23a81423",
        "5c313c109a10b15991d9877d53b96aa9c6ed29444f5b3d191733fc3021c98ceb",
        "c4ddff44a6b2f7ed39e59968e02cbe08e9b254d73fb44166819058f73b2db665",
    )),
    (["--lattice", "ring:8", "--twos-s", "0"], (
        "78f8bfb4d5cf29f40fbbb75a9598b6f8d6214ed38ab0db74a20d15be87b1c7ee",
        "bf2f4046e19857492444645c893a5631ae85c6a2c5ba272e80dfdbc0b9c90cec",
        "ba96a9909b31e1f75a3ed472c0a96881bd21bd9a141f77c0bf8a5b89b19fb4fb",
    )),
    (["--lattice", "ring:8", "--twos-s", "1"], (
        "9cda1c562eb4fe0dded271684d06d52e1a7c949bc5148a38aa23e804fe648528",
        "589d5550f65f0ac0623dcb2aee6a242dfa58bab1a1de186d6221c4a26aac7b60",
        "26449a3a2a9a07603d794649d385d7f18f4a03b877cd482ecc1695803bf85ec6",
    )),
    (["--lattice", "ring:8", "--twos-s", "2"], (
        "9c93b5301a5d1610796241dc5fa2ffe719642d9379403e76c5090be670f3b17b",
        "7c72cbd04cb62874c2f5915c02a463a9b2bf3eb99211ce487a946e57fb0d441d",
        "bf569d652209fc5fd304ff60a61fe5cc73a4aa948f05cf87273f1fd4e4863a0d",
    )),
    (["--lattice", "ring:8", "--twos-s", "3"], (
        "0469c123fdb814bca02da55dd1f01bb76a070c7489fbfdc2b10048a458e6ca3a",
        "dd727e2aeda8ba3d45c875c28a56276c08460b7f1f7ae91c89836fa1d971b3f9",
        "ab5949d77c024e6cbf35acf052153b8b64602399139c1b7f606c872666eb4273",
    )),
    (["--lattice", "grid2d:3", "--twos-s", "0"], (
        "de4fddd70bb9dc68f0bd3f3533176a2084db8b4bad5e7009be539a13ff45e017",
        "2e830a717cb1e3c64e3596ce848b82be961a4e7965b3d2b7cadc57eb8ca11704",
        "8756e5666be36215234916e0339f4d7d9b7d0bed57ec36d7928302b2de03a1c9",
    )),
    (["--lattice", "grid2d:3", "--twos-s", "1"], (
        "72c45677785c049bedfbdf398115c8739dcb81f1c8c3c8ae80b2fd46afd8b956",
        "7d248e636b193f991922147c027980e9d6ebc29cf3122478562c9032608738a4",
        "6158e2c9516bf740270858c85f639c14554c9990ebf4d9fb9bf6a28c1fce56fc",
    )),
], ids=["defaults", "ring8-2s0", "ring8-2s1", "ring8-2s2", "ring8-2s3", "grid3-2s0", "grid3-2s1"])
def test_pair_and_theorem_reports_are_pinned(tmp_path, flags, digests):
    # exact bytes of steps (c)-(e): the half-turn eigenvalue, the same-point
    # rows, the winding and every field of theorem_report.json
    assert main(["verify", "--suite", "pair-operator", "--suite", "theorem", *flags, "--out", str(tmp_path)]) == 0
    names = ("pair-operator.json", "theorem.json", "theorem_report.json")
    for name, digest in zip(names, digests):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _share_first_image(rot, image, phase):
    """Send basis state 1 where state 0 goes: one row of U gets two entries
    and another none."""
    if len(image) > 1:
        image[1] = image[0]


def _negate_moved_phase(rot, image, phase):
    """Flip the sign of the half-turn lift's entry for the first state it
    moves: U U is then -(-1)^(2sN) on that state's column."""
    if 2 * rot.steps == rot.space.lattice.steps_per_turn:
        moved = np.flatnonzero(image != np.arange(len(image)))
        if len(moved):
            phase[moved[0]] = -phase[moved[0]]


@pytest.mark.parametrize("patch, check", [
    (_share_first_image, "sector lift unitarity"),
    (_negate_moved_phase, "half-turn lift squared vs (-1)^(2sN)"),
], ids=["shared-image", "negated-phase"])
def test_broken_lift_arrays_fail_their_check(tmp_path, monkeypatch, capsys, patch, check):
    # controls for the lift residuals read from the image and phase arrays:
    # each wrong ingredient fails its own check by O(1) in both grades
    original = symmetry._sector_unitary

    def broken(rot, n_particles, sigma):
        lift = original(rot, n_particles, sigma)
        image, phase = lift.image.copy(), lift.phase.copy()
        patch(rot, image, phase)
        return symmetry.SectorLift(image, phase)

    monkeypatch.setattr(symmetry, "_sector_unitary", broken)
    assert main(["verify", "--suite", "rotation", "--out", str(tmp_path)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rotation.json"]
    values = {r["check"]: r["value"] for r in read_json(tmp_path / "rotation.json")["residuals"]}
    assert [values[f"{check} [sigma={sigma}]"] >= 0.1 for sigma in ("+1", "-1")] == [True, True]
    assert "Traceback" not in capsys.readouterr().err


def test_lifts_without_the_boson_normaliser_fail_unitarity(tmp_path, monkeypatch, capsys):
    # control for the prod_m n_m! normaliser of the lift builder: without it a
    # doubly occupied boson state has norm 2, and only sigma=+1 fails
    original = symmetry.sector_lift

    def unnormalised(basis, perm, mode_phases):
        lift = original(basis, perm, mode_phases)
        if basis.sigma == -1:
            return lift
        norms = [math.prod(map(math.factorial, occ)) for occ in occupations(basis).tolist()]
        return symmetry.SectorLift(lift.image, lift.phase * np.sqrt(norms))

    monkeypatch.setattr(symmetry, "sector_lift", unnormalised)
    basis = fockspace.build_basis(load_config(None).validate().make_space(), 2, 1)
    identity = symmetry.sector_lift(basis, range(basis.space.n_modes), np.ones(basis.space.n_modes))
    assert symmetry._unitarity_residual(identity) == pytest.approx(1.0)
    symmetry._sector_unitary.cache_clear()  # no lift kept from an earlier call is read
    assert main(["verify", "--suite", "rotation", "--out", str(tmp_path)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rotation.json"]
    rows = {r["check"]: r for r in read_json(tmp_path / "rotation.json")["residuals"]}
    assert rows["sector lift unitarity [sigma=+1]"]["value"] >= 0.1
    fermions = [r for check, r in rows.items() if check.endswith("[sigma=-1]")]
    assert fermions and all(r["value"] <= r["tol"] for r in fermions)
    assert "Traceback" not in capsys.readouterr().err


def test_failed_verdict_is_a_report_and_exit_one(tmp_path, monkeypatch, capsys):
    # with bosons' same-point pair vanishing too, both grades are consistent
    break_boson_same_point(monkeypatch)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{name}.json" for name in cli.SUITE_NAMES] + ["theorem_report.json"]
    )
    report = read_json(tmp_path / "theorem_report.json")
    assert report["verdict_sigma"] is None
    assert report["failure"] == "expected exactly one consistent grade, got [1, -1]"
    theorem = {r["check"]: r["value"] for r in read_json(tmp_path / "theorem.json")["residuals"]}
    assert theorem["verdict grade"] == 1.0
    assert theorem["same-point vanishing [sigma=+1]"] == 1.0
    pair = {r["check"]: r["value"] for r in read_json(tmp_path / "pair-operator.json")["residuals"]}
    assert pair["same-point pair vanishing rule [sigma=+1]"] == 1.0
    assert "Traceback" not in capsys.readouterr().err


def test_spectrum_command_outputs_are_pinned(tmp_path):
    # exact bytes of diagonalize and correlate on a small Hubbard ring: state 3
    # is a block component of a triplet level spread over the three count
    # blocks, so block order, vector values and the level order all show here
    cfg = {
        "lattice": {"kind": "ring", "M": 6}, "twos_s": 1, "sigma": -1, "N": 2,
        "V": {"0": 4.0, "1": 1.0}, "onsite_U": [0.25, -0.5, 0.75, 0.125, -0.875, 0.375],
        "state_index": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["diagonalize", "--config", str(path), "--eigenvectors", "--out", str(out)]) == 0
    assert main(["correlate", "--config", str(path), "--out", str(out)]) == 0
    pinned = {
        "spectrum.csv": "10122cd92b23cbd71dcb37a31cc126b232e351cd442e94e237753ac5005f54bf",
        "eigenvectors.csv": "313e10de2c94fbbfcf03807083cd853f5e2a704b65ddbe7056595ed7d432bbd8",
        "profile.csv": "6a77e2680435875f832a7b62e657e280a9b1612dbce5389f9930fb41165d96d3",
        "angular.csv": "e00979067ea34e9c09006658eee6a99f76f5a2302cbd92cf26c28743eb77c654",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_mirrored_spectrum_outputs_are_pinned(tmp_path):
    # exact bytes on ring:6, N=3 (blocks 20/90/90/20): the (2,1) and (3,0)
    # blocks reuse their partners' eigenpairs through a reordering, signed
    # spin-reversal map; state 0 is the partner's component of the ground doublet
    cfg = {
        "lattice": {"kind": "ring", "M": 6}, "twos_s": 1, "sigma": -1, "N": 3,
        "V": {"0": 4.0, "1": 1.0}, "onsite_U": [0.25, -0.5, 0.75, 0.125, -0.875, 0.375],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["diagonalize", "--config", str(path), "--eigenvectors", "--out", str(out)]) == 0
    assert main(["correlate", "--config", str(path), "--out", str(out)]) == 0
    pinned = {
        "spectrum.csv": "b03c32a8f264492025bf9820c424ee6db55ebe6a0a2f14fbd721d31e192e3bbe",
        "eigenvectors.csv": "eb56f30207ae5aabaea27d918ca77cc566b1956c0a2f1bff259b10fea66750cf",
        "profile.csv": "779edb1ff0a98eaa60b542327fbb9fb36ab08ae840c555b9e785e4b95245a760",
        "angular.csv": "16e36dcbd2699a75e82a28ffbe395665e47e81eae38b8ebb633f3bc631b7584f",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_benchmark_hamiltonian_bytes_are_pinned(tmp_path):
    # the hubbard benchmark's build, ring:10, N=3 (1,140 states, 180 terms),
    # with a fixed potential: H's entries and the basis take no BLAS, so
    # their bytes are the same on every machine
    cfg = {
        "lattice": {"kind": "ring", "M": 10}, "twos_s": 1, "sigma": -1, "N": 3, "V": {"0": 4.0, "1": 1.0},
        "onsite_U": [0.25, -0.5, 0.75, 0.125, -0.875, 0.375, -0.25, 0.5, -0.75, 0.625],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["diagonalize", "--config", str(path), "--dump-matrix", "--dump-basis", "--out", str(out)]) == 0
    pinned = {
        "hamiltonian.csv": "d301cbc5aa3165936e91d32052cb46a0b9c770cead05ff3e999223c6ac85feeb",
        "basis.csv": "6604e11aa85ff578b87361dce3c0a92782a54d824f0a05eb9103bffc8a8fe320",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "rotation", "--n-max", "1"],
    ["correlate", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1", "-N", "1"],
    ["diagonalize", "--lattice", "ring:4", "--twos-s", "1", "--sigma", "-1", "-N", "2"],
], ids=["verify", "correlate", "diagonalize"])
def test_refused_command_leaves_no_output_directory(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: 1024)  # the memory guard refuses
    assert main([*argv, "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()


def test_diagonalize_past_free_memory_is_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(hamiltonians, "_available_memory", lambda: 1024)
    assert main([
        "diagonalize", "--lattice", "ring:4", "--twos-s", "1", "--sigma", "-1",
        "-N", "2", "--out", str(tmp_path / "o"),
    ]) == 2
    assert "bytes of dense storage" in capsys.readouterr().err


def test_completeness_at_n4_runs_with_4_gb_free(tmp_path, monkeypatch):
    # ring:8, 2s=1, N=4: 65,536 tuples; as a dense bracket matrix and its conjugate
    # the bosons' 3,876 states took 8.1 GB, and this was refused with exit 2
    monkeypatch.setattr(fockspace, "_available_memory", lambda: 4_000_000_000)
    assert main([
        "verify", "--suite", "completeness", "--lattice", "ring:8", "--twos-s", "1",
        "-N", "4", "--out", str(tmp_path / "o"),
    ]) == 0
    assert json.loads((tmp_path / "o" / "completeness.json").read_text())["passed"]


def test_completeness_past_500_000_tuples_is_exit_two(tmp_path, capsys):
    # ring:8, 2s=1, N=5: 16**5 = 1,048,576 coordinate tuples
    assert main([
        "verify", "--suite", "completeness", "--lattice", "ring:8", "--twos-s", "1",
        "-N", "5", "--out", str(tmp_path / "o"),
    ]) == 2
    assert "1048576 coordinate tuples is past desk scale" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_correlate_degenerate_ground_state_is_reproducible(tmp_path):
    cfg = {
        "lattice": {"kind": "ring", "M": 4}, "twos_s": 1, "sigma": -1, "N": 3,
        "V": {"0": 4.0, "1": 1.0}, "onsite_U": [0.1, -0.5, 0.3, 0.7],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    spectrum = cli._spectrum_for(load_config(str(path)).validate())[3]
    assert spectrum.eigenvalues[1] - spectrum.eigenvalues[0] <= 1e-12  # a degenerate ground level
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["correlate", "--config", str(path), "--out", str(out)]) == 0
    for name in ("profile.csv", "angular.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_correlate_picks_the_same_doublet_state_at_any_blas_thread_count(tmp_path):
    # the hubbard-spectrum benchmark's seed-1 config: its ground level is a
    # doublet over the (1,2) and (2,1) blocks, whose values are bitwise equal,
    # so the stable merge keeps the (1,2) component whatever eigh's bits are
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs for a second BLAS thread")
    rng = random.Random(1)
    cfg = {
        "lattice": {"kind": "ring", "M": 10}, "twos_s": 1, "sigma": -1, "N": 3,
        "V": {"0": 4.0, "1": 1.0}, "onsite_U": [rng.uniform(-1.0, 1.0) for _ in range(10)],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    energies, profiles = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "spinstat", "correlate", "--config", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        energies.append(done.stdout.split("energy ")[1].strip())
        profiles.append(np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1))
    assert energies[0] == energies[1]
    assert np.max(np.abs(profiles[0] - profiles[1])) <= 1e-12


def test_correlate_profile_zero_at_origin(tmp_path):
    out = tmp_path / "out"
    code = main([
        "correlate", "--lattice", "grid2d:3", "--twos-s", "0", "--sigma", "-1",
        "-N", "2", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "profile.csv").read_text().strip().splitlines()[1:]
    origin_row = rows[4]  # site (0,0) is index 4 in the 3x3 block
    _, re, im, abs2 = origin_row.split(",")
    assert float(re) == 0.0 and float(im) == 0.0 and float(abs2) == 0.0
    assert not (out / "angular.csv").exists()  # grids have no angular index


def test_correlate_ring_angular_selection_rule(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "lattice": {"kind": "ring", "M": 6}, "twos_s": 0, "sigma": 1, "N": 2,
        "V": {"0": -2.0}, "out": str(out),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["correlate", "--config", str(path)]) == 0
    rows = (out / "angular.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        l, re, im = row.split(",")
        if int(l) % 2 == 1:
            assert abs(complex(float(re), float(im))) <= 1e-12


def test_negative_seed_is_exit_two(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["verify", "--suite", "orthonormality", "--seed", "-5", "--out", str(out)]) == 2
    assert "seed must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tol_is_exit_two(tmp_path, capsys, tol):
    out = tmp_path / "o"
    assert main(["verify", "--suite", "permutations", f"--tol={tol}", "--out", str(out)]) == 2
    assert "tol must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["diagonalize", "-N", "9"],
    ["correlate", "-N", "9"],
    ["verify", "--suite", "ideal-gas", "-N", "9"],
], ids=["diagonalize", "correlate", "verify"])
def test_empty_sector_is_exit_two(tmp_path, capsys, argv):
    # ring:4 with 2s = 0 has 4 modes, so no fermion state holds 9 particles
    out = tmp_path / "o"
    common = ["--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1", "--out", str(out)]
    assert main([*argv, *common]) == 2
    assert "sector N=9, sigma=-1 has no states" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_bad_state_index(tmp_path):
    assert main([
        "correlate", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1",
        "-N", "2", "--state-index", "99", "--out", str(tmp_path / "o"),
    ]) == 2


@pytest.mark.parametrize("flags, reason", [
    (["--state-index", "5000"], "state index 5000 outside 0..27"),
    (["--state-index", "-1"], "state index -1 outside 0..27"),
    (["--twos-ms", "3"], "projection 2m_s=3 not allowed for 2s=1"),
], ids=["past-the-end", "negative", "projection"])
def test_bad_correlate_request_is_refused_before_the_solve(tmp_path, capsys, monkeypatch, flags, reason):
    def no_solve(ham):
        raise AssertionError("diagonalize reached")

    monkeypatch.setattr(cli, "diagonalize", no_solve)
    out = tmp_path / "o"
    assert main([
        "correlate", "--lattice", "ring:4", "--twos-s", "1", "--sigma", "-1", "-N", "2", *flags, "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err == f"configuration error: {reason}\n"
    assert not out.exists()


def test_correlate_needs_two_particles(tmp_path):
    assert main([
        "correlate", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1",
        "-N", "1", "--out", str(tmp_path / "o"),
    ]) == 2


def test_expression_check(tmp_path):
    # the graded mixed commutator written out longhand equals the identity
    ok = main([
        "verify", "--sigma", "-1", "--lattice", "ring:2", "--twos-s", "1",
        "--expr", "a-(0,1) * a+(0,1) + a+(0,1) * a-(0,1)",
        "--equals", "1",
        "--out", str(tmp_path / "a"),
    ])
    assert ok == 0
    bad = main([
        "verify", "--sigma", "-1", "--lattice", "ring:2", "--twos-s", "1",
        "--expr", "a+(0,1) * a+(0,1)",
        "--equals", "1",
        "--out", str(tmp_path / "b"),
    ])
    assert bad == 1
    missing = main([
        "verify", "--sigma", "-1", "--expr", "a+(0,1)", "--out", str(tmp_path / "c"),
    ])
    assert missing == 2
    outside = main([
        "verify", "--sigma", "-1", "--lattice", "ring:2", "--twos-s", "0",
        "--expr", "a+(9,1)", "--equals", "1", "--out", str(tmp_path / "d"),
    ])
    assert outside == 2


def test_expression_reports_the_residual(tmp_path):
    out = tmp_path / "half"
    assert main(["verify", "--expr", "1.5", "--equals", "1", "--tol", "1", "--out", str(out)]) == 0
    residuals = read_json(out / "expression.json")["residuals"]
    assert [r["value"] for r in residuals] == [0.5, 0.5]


def test_byte_identical_reruns(tmp_path):
    cfg_base = {
        "lattice": {"kind": "ring", "M": 4}, "twos_s": 1, "sigma": "both",
        "N": 2, "n_max": 2, "seed": 13,
        "suites": ["commutators", "completeness", "theorem"],
    }
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = dict(cfg_base, out=str(out))
        path = tmp_path / f"cfg_{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == 0
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"


def test_seed_echoed_in_reports(tmp_path):
    out = tmp_path / "out"
    assert main([
        "verify", "--suite", "completeness", "--lattice", "ring:2", "--twos-s", "0",
        "--seed", "99", "--out", str(out),
    ]) == 0
    assert read_json(out / "completeness.json")["seed"] == 99


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.lattice == {"kind": "ring", "M": 4}
    assert cfg.sigmas() == (1, -1)
    assert cfg.validate() is cfg


# flag: (valid values, invalid values)
_VERIFY_FLAGS = {
    "--lattice": (["ring:2", "ring:4", "ring:6", "grid2d:1", "grid2d:3"], ["ring:3"]),
    "--twos-s": (["0", "1", "2", "3"], ["-1"]),
    "-N": (["0", "1", "2", "3", "4"], ["-1"]),
    "--n-max": (["0", "1", "2", "3"], ["-1"]),
    "--sigma": (["+1", "-1", "both"], ["0"]),
    "--tol": ([None], ["0", "-1", "nan", "inf"]),
    "--seed": (["0", str(2**64)], ["-1"]),
    "--hop-t": ([None, "0.5"], ["nan", "inf", "-inf"]),
}
_SITES = {"ring:2": 2, "ring:3": 3, "ring:4": 4, "ring:6": 6, "grid2d:1": 1, "grid2d:3": 9}


def _flags(**broken) -> dict:
    """The first valid value of every flag, with the given ones replaced."""
    return {flag: broken.get(flag.strip("-").replace("-", "_"), valid[0]) for flag, (valid, _) in _VERIFY_FLAGS.items()}


@st.composite
def _verify_flags(draw) -> dict:
    """One value per flag; at most one flag takes an invalid value, so runs
    that reach a suite and runs refused for each flag are both common."""
    broken = draw(st.sets(st.sampled_from(sorted(_VERIFY_FLAGS)), max_size=1))
    return {
        flag: draw(st.sampled_from(invalid if flag in broken else valid))
        for flag, (valid, invalid) in _VERIFY_FLAGS.items()
    }


@given(flags=_verify_flags(), suite=st.sampled_from(cli.SUITE_NAMES))
# inputs that ended in a traceback or a vacuous verdict before they were refused
@example(flags=_flags(seed="-1"), suite="orthonormality")
@example(flags=_flags(lattice="ring:2", sigma="-1", N="3"), suite="ideal-gas")
@example(flags=_flags(tol="nan"), suite="theorem")
@example(flags=_flags(lattice="grid2d:1", n_max="2"), suite="theorem")
@example(flags=_flags(hop_t="nan"), suite="ideal-gas")
@example(flags=_flags(hop_t="inf"), suite="ideal-gas")
# an empty sigma=-1 sector (past the mode count) as a domain: a traceback once
@example(flags=_flags(lattice="grid2d:1", n_max="2", sigma="-1"), suite="rotation")
@example(flags=_flags(n_max="3", sigma="both"), suite="theorem")
def test_every_config_ends_in_a_contract_exit_code(tmp_path_factory, flags, suite):
    # the largest bosonic sector a suite may build stays small, to bound the run time
    modes = _SITES[flags["--lattice"]] * (max(int(flags["--twos-s"]), 0) + 1)
    top = max(int(flags["-N"]), int(flags["--n-max"]) + 1, 2)
    assume(math.comb(modes + top - 1, top) <= 400)
    out = tmp_path_factory.mktemp("fuzz") / "out"
    argv = ["verify", "--suite", suite, "--out", str(out)]
    argv += [arg for flag, value in flags.items() if value is not None for arg in (flag, value)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)  # an exception escaping main fails the test
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("configuration error: ")
        assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["diagonalize", "--hop-t", "inf", "-N", "2", "--sigma", "-1"], None),
    (["correlate", "-N", "2", "--sigma", "-1", "--hop-t", "inf"], None),
    (["verify", "--suite", "ideal-gas"], {"V": {"0": float("nan")}}),
    (["diagonalize", "--sigma", "1"], {"onsite_U": [0.0, float("inf"), 0.0, 0.0]}),
    (["verify", "--suite", "ideal-gas"], {"hop_t": 10**400}),  # no float holds it
], ids=["diagonalize-inf-hop", "correlate-inf-hop", "nan-interaction", "inf-potential", "huge-int-hop"])
def test_non_finite_hamiltonian_parameters_are_refused(tmp_path, capsys, argv, config):
    # these ran to 'energy 0.0', a spectrum of NaNs or a LinAlgError traceback
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # NaN and Infinity, as Python writes them
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert re.match(r"configuration error: config key '\w+' must be finite", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def _limited_child(code: str, limit: int, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a Python child that first lowers its own RLIMIT_AS soft
    limit to ``limit`` bytes; nothing outside the child changes."""
    prelude = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        f"soft = {limit} if hard == resource.RLIM_INFINITY else min({limit}, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_memory_probe_reads_the_address_space_limit():
    child = _limited_child(
        "from spinstat.fockspace import _available_memory\nprint(_available_memory())", 1_500_000_000
    )
    assert child.returncode == 0, child.stderr
    assert 0 < int(child.stdout) < 1_500_000_000  # the limit less what the child already maps


@pytest.mark.parametrize("command", ["diagonalize", "correlate"])
def test_huge_lattice_is_refused_by_the_cap_before_any_site_list(tmp_path, command):
    # ring:1000000 at 2s=1 has 2,000,000 modes and an N=2 sector far past the
    # dimension cap; counting them from the size alone refuses it at once,
    # where building the mode list first took seconds and hundreds of MB
    child = _limited_child(
        "from spinstat.cli import main\nsys.exit(main(sys.argv[1:]))", 350_000_000,
        command, "--lattice", "ring:1000000", "--sigma", "-1", "--out", str(tmp_path / "o"),
    )
    assert child.returncode == 2, child.stderr
    assert "over the cap" in child.stderr


def test_commutators_size_every_sector_before_any_mode_expression(tmp_path, monkeypatch, capsys):
    # ring:1000000 at 2s=1 has 2,000,000 modes; the sectors the ladder
    # relations read are sized from the mode count first, so the N=2 sector is
    # refused before one destroy(m) is built, where an expression per mode ran
    # out of memory
    calls = []
    destroy = cli.destroy
    monkeypatch.setattr(cli, "destroy", lambda *args: calls.append(args) or destroy(*args))
    assert main(["verify", "--suite", "commutators", "--lattice", "ring:1000000", "--out", str(tmp_path / "o")]) == 2
    assert "over the cap" in capsys.readouterr().err
    assert calls == []
    assert main(["verify", "--suite", "commutators", "--out", str(tmp_path / "small")]) == 0
    assert calls  # the count sees the suite's expressions when it runs


@pytest.mark.parametrize("suite, home, name", [
    ("ideal-gas", cli, "one_particle_spectrum"),  # the dense site matrix and its eigh
    ("rotation", symmetry, "destroy"),  # one a(xi) per mode for the field-transform identity
])
def test_suites_size_every_sector_before_any_per_mode_build(tmp_path, monkeypatch, capsys, suite, home, name):
    # ring:1000000 at 2s=1 has 2,000,000 modes: the N=2 sector is refused at
    # the cap before the site matrix is solved (14.6 TiB) or one expression
    # per mode is built, where both runs ran out of memory
    def reached(*args, **kwargs):
        raise AssertionError(f"{name} reached")

    monkeypatch.setattr(home, name, reached)
    argv = ["verify", "--suite", suite, "--out", str(tmp_path / "o")]
    assert main([*argv, "--lattice", "ring:1000000"]) == 2
    assert "over the cap" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="reached"):
        main(argv)  # a run that passes the cap does reach it


def test_fermion_relations_stop_at_the_last_nonempty_sector(monkeypatch):
    # ring:4, 2s=1 has 8 modes: every sigma=-1 sector past N = 8 is empty, so
    # n_max = 200 checks what n_max = 8 checks, on the bases N = 0..10
    cfg = load_config(None).validate()
    builds = _count_calls(monkeypatch, fockspace, "build_basis")
    values = {}
    for n_max in (8, 200):
        builds.clear()
        report = cli.suite_commutators(replace(cfg, sigma=-1, n_max=n_max), None)
        assert report.passed
        values[n_max] = [r["value"] for r in report.residuals]
        assert len(builds) <= 8 + 3
    assert values[8] == values[200]
    # and for eigenmode annihilators, whose residuals are not all zero
    space = cfg.make_space()
    phi = one_particle_spectrum(OneBodySpec(hop_t=1.0, onsite_u=(0.3, -0.7, 0.2, 0.9)), space.lattice, space.spin)[1]
    cs = hamiltonians.mode_operators(space, phi, -1)
    residuals = [fockspace.ladder_relation_residuals(space, cs, -1, n_max) for n_max in (8, 200)]
    assert residuals[0] == residuals[1] and max(residuals[0]) > 0


def test_running_out_of_memory_exits_2_naming_the_command_and_suite(tmp_path):
    # ring:16, 2s=7: the rotation suite's sectors of 128 modes (N = 3 holds
    # about 350,000 states, and a lift of them is kept for each of the 16
    # rotations) need more than 350 MB of address space; that ended in rc 1
    # and a numpy MemoryError traceback
    out = tmp_path / "o"
    child = _limited_child(
        "from spinstat.cli import main\nsys.exit(main(sys.argv[1:]))", 350_000_000,
        "verify", "--suite", "rotation", "--lattice", "ring:16", "--twos-s", "7", "--out", str(out),
    )
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("out of memory: verify: the rotation suite: ")
    assert "Traceback" not in child.stderr
    assert not out.exists()


def test_completeness_at_n4_runs_under_the_address_space_limit(tmp_path):
    # ring:8, 2s=1, N=4 fermions: 1,820 states x 65,536 tuples, 3.8 GB as a dense
    # bracket matrix and its conjugate; under a 1.5 GB limit that ended in a
    # numpy MemoryError traceback, later in exit 2
    out = tmp_path / "o"
    child = _limited_child(
        "from spinstat.cli import main\nsys.exit(main(sys.argv[1:]))", 1_500_000_000,
        "verify", "--suite", "completeness", "--lattice", "ring:8", "--twos-s", "1",
        "-N", "4", "--sigma", "-1", "--out", str(out),
    )
    assert child.returncode == 0, child.stderr
    assert json.loads((out / "completeness.json").read_text())["passed"]


CI_HUBBARD = {
    "lattice": {"kind": "ring", "M": 10}, "twos_s": 1, "sigma": -1, "N": 3, "V": {"0": 4.0, "1": 1.0},
    "onsite_U": [0.25, -0.5, 0.75, 0.125, -0.875, 0.375, -0.25, 0.5, -0.75, 0.625],
}


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI loads no scipy
    # module, and with scipy blocked the default verify and the CI Hubbard
    # diagonalize and correlate commands still exit 0
    config = tmp_path / "hubbard.json"
    config.write_text(json.dumps(CI_HUBBARD))
    code = (
        "import sys\n"
        "import spinstat.cli as cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
        "sys.modules['scipy'] = None\n"
        "out, config = sys.argv[1], sys.argv[2]\n"
        "for argv in (['verify', '--out', out + '/verify'],\n"
        "             ['diagonalize', '--config', config, '--eigenvectors', '--dump-matrix', '--out', out + '/h'],\n"
        "             ['correlate', '--config', config, '--out', out + '/h']):\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), str(config)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "h" / "hamiltonian.csv").exists() and (tmp_path / "h" / "profile.csv").exists()
