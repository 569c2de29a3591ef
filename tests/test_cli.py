import hashlib
import json

import pytest

from heckeverify import baxter, cli, hecke, transfer
from heckeverify.cli import SUITE_NAMES, config_from_dict, main, run_suite
from heckeverify.errors import CalibrationFailure, ConfigError, DimensionMismatch
from heckeverify.params import sample_params
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


@pytest.mark.parametrize("name", ["local_dim", "sites", "seed"])
def test_config_rejects_malformed_integers(name, tmp_path):
    # a float is not truncated, a bool is not read as 0 or 1
    for value in ("two", 2.9, True):
        with pytest.raises(ConfigError):
            config_from_dict({name: value})
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({name: value}))
        assert main(["suite", "--config", str(cfgfile)]) == 2


@pytest.mark.parametrize("data", [
    {"out": 5}, {"out": 1}, {"suites": "prop1"}, {"suites": {"ybe": 1}},
    {"suites": ["ybe", 3]}, {"family": 3}, {"family": ["C"]},
], ids=["out-fd", "out-stdout", "suites-string", "suites-table", "suites-non-string",
        "family-int", "family-list"])
def test_config_rejects_malformed_types(data, tmp_path, capsys):
    # an integer out is not a file descriptor; a string is not a list of names
    with pytest.raises(ConfigError, match="must be a"):
        config_from_dict(data)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(data))
    assert main(["suite", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["suite", "--out", "{missing}"],
    ["suite", "--out", "{dir}"],
    ["suite", "--config", "{config}"],
    ["murphy", "--family", "B", "--n", "1", "--out", "{missing}"],
    ["dump", "--object", "t_open", "--out", "{missing}"],
], ids=["suite-missing-dir", "suite-directory", "config-out", "murphy", "dump"])
def test_unwritable_out_is_config_error(argv, tmp_path, monkeypatch, capsys):
    # the output path is opened before any work, not after the whole run
    def no_work(*args, **kwargs):
        raise AssertionError("work done for an unwritable output path")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(hecke, "murphy", no_work)
    monkeypatch.setattr(transfer, "t_open_factorized", no_work)
    missing = tmp_path / "missing" / "r.json"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"out": str(missing)}))
    paths = {"missing": missing, "dir": tmp_path, "config": config}
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert captured.out == ""
    assert not missing.parent.exists()


@pytest.mark.parametrize("name,text", [
    ("cfg.json", '{"sites": 2,'),
    ("cfg.json", None),
    ("cfg.json", "[1, 2]"),
    ("cfg.toml", "sites = \n"),
], ids=["malformed-json", "missing-file", "not-a-table", "malformed-toml"])
def test_config_file_errors(name, text, tmp_path, capsys):
    cfgfile = tmp_path / name
    if text is not None:
        cfgfile.write_text(text)
    assert main(["suite", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert captured.out == ""


def test_malformed_env_seed_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("HECKE_SEED", "abc")
    with pytest.raises(ConfigError):
        config_from_dict({})
    assert main(["murphy", "--family", "B", "--n", "1", "--sites", "2"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["murphy", "--family", "C", "--n", "1", "--sites", "30"],
    ["dump", "--object", "t_open", "--sites", "7"],
    ["dump", "--object", "t_minus", "--local-dim", "3", "--sites", "5"],
    ["calibrate", "--local-dim", "5"],
    ["calibrate", "--sites", "0"],
], ids=["murphy-2x30", "dump-2x7", "dump-3x5", "calibrate-5x3", "calibrate-2x0"])
def test_cli_rejects_unbounded_sizes(argv, monkeypatch, capsys):
    # the bound check must come before any representation is built
    def no_rep(*args, **kwargs):
        raise AssertionError("representation built for an unbounded size")

    monkeypatch.setattr(hecke, "build_glN_rep", no_rep)
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


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


def test_one_factorized_build_per_check(monkeypatch):
    seen = []
    build = transfer.t_open_factorized

    def counting(rep, n, **kwargs):
        seen.append((rep.params, n, kwargs.get("trivial_k", False)))
        return build(rep, n, **kwargs)

    monkeypatch.setattr(transfer, "t_open_factorized", counting)
    cfg = config_from_dict({"sites": 3, "suites": ["prop1", "corollary"]})
    assert not [r for r in run_suite(cfg) if r.status == "fail"]
    # one per specialization and suite
    assert len(seen) == 3 * 2
    assert len(set(seen)) == len(seen)


ONE_BOUNDARY_SUITES = ["prop1", "corollary", "hamiltonian", "commuting-family"]


def test_one_boundary_pass_builds_once(monkeypatch):
    seen = {"t_open_factorized": [], "aux_trace_scalar": []}
    for name, key in (("t_open_factorized", lambda rep, n, **kw: (n, kw.get("trivial_k"))),
                      ("aux_trace_scalar", lambda rep: ())):
        build = getattr(transfer, name)

        def counting(rep, *args, build=build, name=name, key=key, **kwargs):
            seen[name].append((rep.params, *key(rep, *args, **kwargs)))
            return build(rep, *args, **kwargs)

        monkeypatch.setattr(transfer, name, counting)
    cfg = config_from_dict({"sites": 3, "suites": ONE_BOUNDARY_SUITES})
    assert not [r for r in run_suite(cfg) if r.status == "fail"]
    # once per (specialization, trivial_k), and once per specialization
    assert len(seen["t_open_factorized"]) == 3 * 2
    assert len(set(seen["t_open_factorized"])) == 3 * 2
    assert len(seen["aux_trace_scalar"]) == 3
    assert len(set(seen["aux_trace_scalar"])) == 3


def test_one_boundary_error_stays_with_its_suite(monkeypatch):
    cfg = config_from_dict({"sites": 3, "suites": ONE_BOUNDARY_SUITES})
    clean = run_suite(cfg)
    bad_params = sample_params(cfg.seed * 1000 + 1)
    hamiltonian = transfer.OneBoundaryChain.hamiltonian

    def failing(self):
        if self.rep.params == bad_params:
            raise DimensionMismatch("injected")
        return hamiltonian(self)

    monkeypatch.setattr(transfer.OneBoundaryChain, "hamiltonian", failing)
    reports = run_suite(cfg)
    ham = [r for r in reports if r.check_name.startswith("hamiltonian/")]
    assert [(r.check_name, r.status) for r in ham] == [("hamiltonian/error", "fail")]
    assert ham[0].first_failure == {"relation": "injected"}

    def others(rs):
        return render_report([r for r in rs if not r.check_name.startswith("hamiltonian/")],
                             cfg.echo())

    assert others(reports) == others(clean)
    assert len(clean) - len(reports) == 3 * 2 - 1


@pytest.mark.parametrize("local_dim,sites,digest", [
    (2, 4, "509708e615f63850602a7e6e4feacd8eb8e019971172c901a39406c735db3eec"),
    (3, 3, "7f5439d32f892cce50ff519f691da9e4f11e815f1d9279beaf6655ba7201c588"),
])
def test_one_boundary_reports_pinned(local_dim, sites, digest, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"local_dim": local_dim, "sites": sites, "seed": 4,
                                   "suites": ONE_BOUNDARY_SUITES}))
    out = tmp_path / "r.json"
    assert main(["suite", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("obj,sites,digest", [
    ("t_open", 2, "c28bf84d72077c2084c48aa5a69a1c7b43b1eaa2be5dd7b81b06c1b51e3e00b4"),
    ("t_open", 3, "edcf023607a3429b088ef2ca600856a0984bf5eaf4d5f75c7b0cf11940fbebc6"),
    ("t_minus", 2, "6a7354af4f673fdf1fb79286882ac89c57fd7de95f7968045fcbe320263f18d0"),
    ("t_minus", 3, "04c057040859a2d71b81f69c8098bdf10720da593a473e4e33f1ce5fbc9330f1"),
    ("t_plus", 2, "7a2cb689363a3ec4284a66ef6d5ad696dec115ef53e59e716a80f8219ff38f62"),
    ("t_plus", 3, "bbb8d43c0aa8ee21316be0a78eff55109e5590f8cf105b60cffb01642e31c406"),
])
def test_cli_dump_bytes_pinned(obj, sites, digest, tmp_path):
    out = tmp_path / f"{obj}.json"
    assert main(["dump", "--object", obj, "--sites", str(sites), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_calibrate(capsys):
    assert main(["calibrate", "--sites", "2"]) == 0
    out = capsys.readouterr().out
    assert "crossing_unit" in out
    assert "condition2/right-trace: pass" in out
