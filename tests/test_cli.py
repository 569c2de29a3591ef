import hashlib
import json

import pytest

from heckeverify import baxter, hecke, transfer
from heckeverify.cli import SUITE_NAMES, config_from_dict, main, run_suite
from heckeverify.errors import CalibrationFailure, ConfigError
from heckeverify.reporting import CheckReport, render_report


def test_config_defaults():
    cfg = config_from_dict({})
    assert cfg.local_dim == 2 and cfg.sites == 3
    assert cfg.suites == SUITE_NAMES


def test_config_rejects_bad_rational():
    with pytest.raises(ConfigError):
        config_from_dict({"q": "1/0"})
    with pytest.raises(ConfigError):
        config_from_dict({"q": "three"})


def test_config_rejects_locus_violations():
    with pytest.raises(ConfigError):
        config_from_dict({"q": "1"})
    with pytest.raises(ConfigError):
        config_from_dict({"Q0": "0"})


def test_config_family_tower():
    cfg = config_from_dict({"family": "B"})
    assert cfg.families() == ("A", "B")
    with pytest.raises(ConfigError):
        config_from_dict({"family": "D"})
    cfg = config_from_dict({"family": "A", "suites": ["relations"]})
    reports = run_suite(cfg)
    assert all(r.check_name == "relations/A" for r in reports)


def test_toml_config(tmp_path):
    try:
        import tomllib  # noqa: F401
    except ImportError:
        pytest.importorskip("tomli")
    cfgfile = tmp_path / "cfg.toml"
    cfgfile.write_text('local_dim = 2\nsites = 2\nsuites = ["relations"]\nq = "4/7"\n')
    out = tmp_path / "r.json"
    assert main(["suite", "--config", str(cfgfile), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["overrides"] == {"q": "4/7"}


def test_config_desk_bounds():
    with pytest.raises(ConfigError):
        config_from_dict({"local_dim": 4})
    with pytest.raises(ConfigError):
        config_from_dict({"local_dim": 2, "sites": 7})
    with pytest.raises(ConfigError):
        config_from_dict({"local_dim": 3, "sites": 5})
    with pytest.raises(ConfigError):
        config_from_dict({"suites": ["nonsense"]})


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("HECKE_SEED", "777")
    cfg = config_from_dict({"seed": 5})
    assert cfg.seed == 777
    # an explicit seed argument still wins
    cfg = config_from_dict({"seed": 5}, seed_override=9)
    assert cfg.seed == 9


def test_run_suite_deterministic_bytes():
    cfg = config_from_dict({"sites": 2, "suites": ["relations", "unitarity", "crossing"]})
    a = render_report(run_suite(cfg), cfg.echo())
    b = render_report(run_suite(cfg), cfg.echo())
    assert a == b
    payload = json.loads(a)
    assert payload["version"] == "1"
    assert all("elapsed" not in r for r in payload["reports"])


def test_run_suite_prop2_has_four_subchecks():
    cfg = config_from_dict({"sites": 2, "suites": ["prop2"]})
    reports = run_suite(cfg)
    names = [r.check_name for r in reports if r.check_name.startswith("prop2/")]
    per_spec = [n for n in names if n != "prop2/calibration"]
    assert len(per_spec) == 4 * 3  # four edge checks per specialization
    assert all(r.status == "pass" for r in reports)


def test_lattice_points_evaluated_once(monkeypatch):
    seen = []
    factors = transfer.TwoBoundaryLattice.factors

    def counting(self, p):
        seen.append((self.rep.params, p))
        return factors(self, p)

    monkeypatch.setattr(transfer.TwoBoundaryLattice, "factors", counting)
    cfg = config_from_dict({"sites": 3, "suites": ["prop2", "explore-generic"]})
    reports = run_suite(cfg)
    assert not [r for r in reports if r.status == "fail"]
    # four per specialization for prop2; explore adds only p = +-2 (2N - 4)
    assert len(seen) == 4 * 3 + 2
    assert len(set(seen)) == len(seen)


def test_murphy_targets_built_once(monkeypatch):
    seen = []
    for name in ("murphy", "murphy_inverse"):
        build = getattr(hecke, name)

        def counting(rep, family, i, build=build, name=name):
            seen.append((rep.params, name, family, i))
            return build(rep, family, i)

        monkeypatch.setattr(transfer, name, counting)
    cfg = config_from_dict({"sites": 3, "suites": ["prop2", "explore-generic"]})
    assert not [r for r in run_suite(cfg) if r.status == "fail"]
    # prop2 needs J_C[0], J_C[2] and inverses per specialization; explore adds
    # J_C[1] and its inverse at specialization 0
    assert len(seen) == 4 * 3 + 2
    assert len(set(seen)) == len(seen)


def test_largest_lattice_config():
    cfg = config_from_dict({"local_dim": 2, "sites": 6,
                            "suites": ["prop2", "explore-generic"]})
    reports = run_suite(cfg)
    assert sum(r.status == "pass" for r in reports) == 4 * 3
    assert not [r for r in reports if r.status == "fail"]
    notes = {r.check_name: r.note.split("; ") for r in reports
             if r.check_name.startswith("explore/")}
    assert len(notes) == 2 * 6
    for n in range(1, 7):
        assert f"low~J_C[{n - 1}]" in notes[f"explore/lattice[p={n}]"]
        assert f"low~J_C[{n - 1}]^-1" in notes[f"explore/lattice[p=-{n}]"]


def test_render_report_empty():
    payload = json.loads(render_report([], {"seed": 1}))
    assert payload["reports"] == []


def test_report_invariants():
    with pytest.raises(ValueError):
        CheckReport("x", "fail")
    with pytest.raises(ValueError):
        CheckReport("x", "pass", first_failure={"a": 1})


def test_cli_suite_roundtrip(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["suite", "--seed", "101", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 101
    assert any(r["status"] == "pass" for r in payload["reports"])


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"sites": 2, "suites": ["relations"],
                                   "q": "4/7"}))
    out = tmp_path / "r.json"
    assert main(["suite", "--config", str(cfgfile), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["overrides"] == {"q": "4/7"}
    assert all(r["params"]["q"] == "4/7" for r in payload["reports"])


def test_cli_bad_config_exit_code(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"q": "1/0"}))
    assert main(["suite", "--config", str(cfgfile)]) == 2


def test_cli_murphy_and_dump(tmp_path):
    out = tmp_path / "m.json"
    assert main(["murphy", "--family", "B", "--n", "1", "--sites", "2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"dim", "layout", "entries"}
    assert payload["dim"] == 4

    for obj in ("t_open", "t_minus", "t_plus"):
        out = tmp_path / f"{obj}.json"
        assert main(["dump", "--object", obj, "--sites", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 4
        # entries sorted by (row, col) with ascending degrees
        coords = [(e[0], e[1]) for e in payload["entries"]]
        assert coords == sorted(coords)
        for e in payload["entries"]:
            degs = [t[0] for t in e[2]]
            assert degs == sorted(degs)


def test_cli_dump_needs_no_kit(tmp_path, monkeypatch):
    # the factorized transfer matrices use no calibrated data, so a failing
    # calibration must not stop their dump or change its bytes
    plain = tmp_path / "plain.json"
    assert main(["dump", "--object", "t_minus", "--sites", "2", "--out", str(plain)]) == 0

    def no_kit(rep):
        raise CalibrationFailure("calibration unavailable")

    monkeypatch.setattr(baxter, "build_kit", no_kit)
    out = tmp_path / "t_minus.json"
    assert main(["dump", "--object", "t_minus", "--sites", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6a7354af4f673fdf1fb79286882ac89c57fd7de95f7968045fcbe320263f18d0")


def test_cli_calibrate(capsys):
    assert main(["calibrate", "--sites", "2"]) == 0
    out = capsys.readouterr().out
    assert "crossing_unit" in out
    assert "condition2/right-trace: pass" in out
