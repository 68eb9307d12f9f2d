import json
from pathlib import Path

import pytest

from spinstat import cli
from spinstat.cli import load_config, main
from spinstat.hamiltonians import OneBodySpec, one_particle_spectrum
from spinstat.modes import Lattice, SpinQuantum


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


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


def test_diagonalize_dimension_cap(tmp_path):
    cfg = {"lattice": {"kind": "ring", "M": 8}, "twos_s": 0, "sigma": 1, "N": 3,
           "dimension_cap": 10, "out": str(tmp_path / "o")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["diagonalize", "--config", str(path)]) == 2


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


def test_correlate_bad_state_index(tmp_path):
    assert main([
        "correlate", "--lattice", "ring:4", "--twos-s", "0", "--sigma", "-1",
        "-N", "2", "--state-index", "99", "--out", str(tmp_path / "o"),
    ]) == 2


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
