import hashlib
import itertools
import json
import pathlib
import re
import weakref

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


def test_config_validates_every_specialization(tmp_path, capsys):
    # Q0 equal to the q drawn at specialization 1 (q is drawn first, so the
    # override does not move it) breaks that specialization only: the config
    # is rejected up front, not reported as failed suites
    collision = sample_params(101 * 1000 + 1).q
    assert collision != sample_params(101 * 1000).q
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 101, "Q0": str(collision),
                                   "suites": ["relations", "tl"]}))
    assert main(["suite", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err and captured.out == ""


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
    {"suites": ["ybe", 3]}, {"suites": []}, {"suites": ["re", "re"]}, {"family": 3},
    {"family": ["C"]},
], ids=["out-fd", "out-stdout", "suites-string", "suites-table", "suites-non-string",
        "suites-empty", "suites-repeated", "family-int", "family-list"])
def test_config_rejects_malformed_types(data, tmp_path, capsys):
    # an integer out is not a file descriptor; a string is not a list of
    # names; an empty list verifies nothing and a repeated name runs once
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
    ("cfg.json", '{"sites": 2, "sutes": ["prop2"]}'),
    ("cfg.json", '{"site": 4}'),
], ids=["malformed-json", "missing-file", "not-a-table", "malformed-toml", "unknown-key-sutes",
        "unknown-key-site"])
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
    cfg = config_from_dict({"sites": 3, "suites": ["prop2", "explore-generic", "factorized"]})
    reports = run_suite(cfg)
    assert not [r for r in reports if r.status == "fail"]
    # four per specialization for prop2; explore adds only p = +-2 (2N - 4),
    # and factorized reads p = N and p = 1 from the lattice
    assert len(seen) == 4 * 3 + 2
    assert len(set(seen)) == len(seen)


def _count_growths(monkeypatch) -> list:
    """Record every double row ``transfer._grow`` builds."""
    grown, grow = [], transfer._grow

    def counting(*args, **kwargs):
        grown.append(grow(*args, **kwargs))
        return grown[-1]

    monkeypatch.setattr(transfer, "_grow", counting)
    return grown


def _all_distinct(matrices) -> bool:
    return all(a != b for a, b in itertools.combinations(matrices, 2))


def test_one_factorized_build_per_check(monkeypatch):
    grown = _count_growths(monkeypatch)
    cfg = config_from_dict({"sites": 3, "suites": ["prop1", "corollary"]})
    assert not [r for r in run_suite(cfg) if r.status == "fail"]
    # one bulk sandwich per specialization and suite; the middle is its factor cycle
    assert len(grown) == 3 * 2
    assert _all_distinct(grown)


ONE_BOUNDARY_SUITES = ["prop1", "corollary", "hamiltonian", "commuting-family"]


def test_one_boundary_pass_builds_once(monkeypatch):
    grown = _count_growths(monkeypatch)
    traces = []
    aux_trace = transfer.aux_trace

    def counting(rep):
        traces.append((rep.params, aux_trace(rep)))
        return traces[-1][1]

    monkeypatch.setattr(transfer, "aux_trace", counting)
    chains = []
    init = transfer.OneBoundaryChain.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chains.append((self.rep.params, self.trivial_k))

    monkeypatch.setattr(transfer.OneBoundaryChain, "__init__", tracking)
    cfg = config_from_dict({"sites": 3, "suites": ONE_BOUNDARY_SUITES})
    assert not [r for r in run_suite(cfg) if r.status == "fail"]
    # one chain per (specialization, trivial_k), each growing one double row
    # and computing one aux trace; both traces of a specialization agree
    assert len(chains) == len(set(chains)) == 3 * 2
    assert len(grown) == 3 * 2
    assert _all_distinct(grown)
    assert len(traces) == 3 * 2
    assert len({str(tr.get(0, 0)) for _, tr in traces}) == len({p for p, _ in traces}) == 3


@pytest.mark.parametrize("suite,owner,attr,per_spec", [
    ("hamiltonian", transfer.OneBoundaryChain, "hamiltonian", 2),
    ("prop2", transfer, "verify_murphy_two_boundary", 4),
], ids=["hamiltonian", "prop2"])
def test_one_boundary_error_stays_with_its_suite(monkeypatch, suite, owner, attr, per_spec):
    """A suite raising at specialization 1 gives one ``<suite>/error`` report
    in place of all of its own; the other suites' reports do not change."""
    cfg = config_from_dict({"sites": 3, "suites": [*ONE_BOUNDARY_SUITES, "prop2"]})
    clean = run_suite(cfg)
    bad_params = sample_params(cfg.spec_seed(1))
    original = getattr(owner, attr)

    def failing(target, *args):   # a chain or a lattice, and the C towers
        if target.rep.params == bad_params:
            raise DimensionMismatch("injected")
        return original(target, *args)

    monkeypatch.setattr(owner, attr, failing)
    reports = run_suite(cfg)
    mine = [r for r in reports if r.check_name.startswith(f"{suite}/")]
    assert [(r.check_name, r.status) for r in mine] == [(f"{suite}/error", "fail")]
    assert mine[0].first_failure == {"relation": "injected"}

    def others(rs):
        return render_report([r for r in rs if not r.check_name.startswith(f"{suite}/")],
                             cfg.echo())

    assert others(reports) == others(clean)
    assert len(clean) - len(reports) == 3 * per_spec - 1


def test_one_specialization_alive_at_a_time(monkeypatch):
    peak, specs = {}, {}
    for cls in (transfer.TwoBoundaryLattice, transfer.OneBoundaryChain):
        live = weakref.WeakSet()

        def tracking(self, *args, cls=cls, init=cls.__init__, live=live, **kwargs):
            init(self, *args, **kwargs)
            live.add(self)
            peak[cls.__name__] = max(peak.get(cls.__name__, 0), len(live))
            specs[cls.__name__] = max(specs.get(cls.__name__, 0),
                                      len({x.rep.params for x in live}))

        monkeypatch.setattr(cls, "__init__", tracking)
    assert not [r for r in run_suite(config_from_dict({})) if r.status == "fail"]
    # the corollary's chain lives next to the shared one, on the same
    # specialization; every other object is alone
    assert peak == {"TwoBoundaryLattice": 1, "OneBoundaryChain": 2}
    assert specs == {"TwoBoundaryLattice": 1, "OneBoundaryChain": 1}


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
    build = hecke.murphy_tower

    def counting(rep, family, inverse=False):
        seen.append((rep.params, family, inverse))
        return build(rep, family, inverse)

    monkeypatch.setattr(hecke, "murphy_tower", counting)
    assert not [r for r in run_suite(config_from_dict({})) if r.status == "fail"]
    # every (specialization, family, direction) of the full default run,
    # each built once: A, B and C, forward and inverse
    assert len(seen) == 6 * 3
    assert len(set(seen)) == len(seen)
    assert {(family, inverse) for _, family, inverse in seen} == {
        (family, inverse) for family in "ABC" for inverse in (False, True)}


def test_largest_lattice_config():
    cfg = config_from_dict({"local_dim": 2, "sites": 6,
                            "suites": ["prop2", "explore-generic"]})
    reports = run_suite(cfg)
    assert sum(r.status == "pass" for r in reports) == 4 * 3 + 2 * 6
    assert not [r for r in reports if r.status == "fail"]
    notes = {r.check_name: r.note for r in reports if r.check_name.startswith("explore/")}
    assert len(notes) == 2 * 6
    for n in range(1, 7):
        assert notes[f"explore/lattice[p={n}]"] == f"low~J_C[{n - 1}]"
        assert notes[f"explore/lattice[p=-{n}]"] == f"low~J_C[{n - 1}]^-1"


KIT_SUITES = ["prop2", "explore-generic", "condition2", "factorized"]


def test_kit_suites_fail_on_calibration_failure(monkeypatch):
    def no_kit(rep):
        raise CalibrationFailure("calibration unavailable")

    monkeypatch.setattr(baxter, "build_kit", no_kit)
    cfg = config_from_dict({"sites": 2, "suites": KIT_SUITES})
    reports = run_suite(cfg)
    assert [(r.check_name, r.status) for r in reports] == (
        [("prop2/calibration", "fail")] * 3 + [("explore/calibration", "fail")]
        + [("condition2/calibration", "fail")] * 3 + [("factorized/calibration", "fail")] * 3)
    # the params of every other report of the specialization
    for r, idx in zip(reports, [0, 1, 2, 0, 0, 1, 2, 0, 1, 2]):
        assert r.params == {**sample_params(cfg.spec_seed(idx)).echo(),
                            "local_dim": "2", "sites": "2"}
        assert r.first_failure == {"relation": "calibration unavailable"}


@pytest.mark.parametrize("end", ["right", "left"])
def test_condition2_fails_on_zeroed_dual(monkeypatch, end):
    calibrate = baxter.calibrate_dual

    def zeroed(rep, which):
        pencil = calibrate(rep, which)
        return tuple(x.scale(0) for x in pencil) if which == end else pencil

    monkeypatch.setattr(baxter, "calibrate_dual", zeroed)
    reports = run_suite(config_from_dict({"sites": 2, "suites": ["condition2"]}))
    other = "left" if end == "right" else "right"
    assert len(reports) == 2 * 3
    assert {(r.check_name, r.status) for r in reports} == {
        (f"condition2/{end}-trace", "fail"), (f"condition2/{other}-trace", "pass")}


@pytest.mark.parametrize("local_dim,sites", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_default_suite_passes_on_small_configs(local_dim, sites):
    reports = run_suite(config_from_dict({"local_dim": local_dim, "sites": sites}))
    assert not [r.check_name for r in reports
                if r.status == "fail" or r.check_name.endswith("/error")]
    names = {r.check_name.split("/")[0] for r in reports}
    assert {"condition2", "factorized", "prop2", "explore"} <= names


@pytest.mark.parametrize("local_dim,sites,digest", [
    (2, 6, "b90c693b2adc81bd12077441b5bd7e4eee0cb260d52805525b41057c562e26c0"),
    (3, 4, "33019e77942209c509b9463aa5e53d7dd1087055068c2710ca49a77c9da2f898"),
])
def test_largest_default_reports_pinned(local_dim, sites, digest):
    cfg = config_from_dict({"local_dim": local_dim, "sites": sites})
    text = render_report(run_suite(cfg), cfg.echo())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


@pytest.mark.parametrize("workload,digest", [
    ("two-boundary", "457384cab82574651317e47b163ea608b78b4ba69dc43d194d0f63af5bd0569b"),
    ("one-boundary", "35a1142fdf5c36f42b1fdcf030f72d093d8860a96a21c2a13cf94e5a2371cc8d"),
    ("algebra", "d3f20119f63a353691cfd7b58528c6ddfaa5d89b3f3e7fb030ff0e765c060ef2"),
])
def test_workload_reports_pinned(workload, digest):
    # the report the benchmark's worker renders for a workload at suite seed
    # 101 (the golden report covers suite-default)
    cfg = config_from_dict(cli.load_config(str(WORKLOADS / f"{workload}.json")),
                           seed_override=101)
    text = render_report(run_suite(cfg), cfg.echo())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_suite_names_match_cli():
    text = README.read_text(encoding="utf-8")
    listing = text[text.index("Suite names:"):]
    listing = listing[:listing.index(".\n")]
    assert re.findall(r"`([a-z0-9-]+)`", listing) == SUITE_NAMES
    # every suite is named once, in the header of one verified property
    claims = text[text.index("## What gets verified"):text.index("## Install and test")]
    heads = [name for bullet in claims.split("\n* **")[1:]
             for name in re.findall(r"`([a-z0-9-]+)`", bullet[:bullet.index(")")])]
    assert sorted(heads) == sorted(SUITE_NAMES)


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[:code.index("```")]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


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


@pytest.mark.parametrize("family,n,digest", [
    ("A", 1, "affe56e7327f2f0c34209d4524b2d7c5bcd469e3d05ee0d51d0f959f977161d3"),
    ("B", 1, "5b4e3ef77808dffdba313f139a641bcc0fb8eb510667aab609b6bbb61175ca18"),
    ("C", 1, "6e81285bdd6d8b9bc7a5196cd3dff64db466e8966d6dc23e133050cb79fd07b8"),
    ("C", 2, "ac834dab265d7df48b2eb3956661a288bb6c3ff9959ee34c7220cb1e05f29720"),
])
def test_cli_murphy_bytes_pinned(family, n, digest, tmp_path):
    out = tmp_path / "m.json"
    assert main(["murphy", "--family", family, "--n", str(n), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("local_dim,digest", [
    (2, "fb4694f3a956b0ec043d0e4b35ccb0638ea1abfc08498ff00be4152bb320c7ad"),
    (3, "5e04e1c4546b87a55e9da738500e6b45f2cee3a454528fce131f7d10c85a0a0d"),
])
def test_cli_calibrate_bytes_pinned(local_dim, digest, capsys):
    # the crossing search and both dual-boundary calibrations, as printed
    assert main(["calibrate", "--local-dim", str(local_dim)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_cli_calibrate(capsys):
    assert main(["calibrate", "--sites", "2"]) == 0
    out = capsys.readouterr().out
    assert "crossing_unit" in out
    assert "condition2/right-trace: pass" in out
