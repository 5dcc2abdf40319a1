import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsobolev as gs
from groupsobolev import verify
from groupsobolev.cli import ENV_CONFIG, main, parse_group_arg

SMALL_CONFIG = {
    "groups": [{"kind": "cyclic", "n": 4}, {"kind": "su2", "band": 1}],
    "m": 2,
    "batch_size": 2,
    "seed": 5,
    "vector_checks": 10,
    "continuity_pairs": 6,
    "sup_extra_samples": 50,
    "s_values": [0.0, 1.0],
    "st_pairs": [[1.0, 2.0]],
}


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL_CONFIG, **overrides}))
    return str(path)


def test_parse_group_arg():
    assert parse_group_arg("cyclic:12") == {"kind": "cyclic", "n": 12}
    assert parse_group_arg("s3") == {"kind": "s3"}
    assert parse_group_arg("circle:16") == {"kind": "circle", "band": 16}
    assert parse_group_arg("su2:2") == {"kind": "su2", "band": 2.0}
    assert parse_group_arg("su2:1:half") == {
        "kind": "su2",
        "band": 1.0,
        "half_integers": True,
    }
    assert parse_group_arg("custom:foo.json") == {"kind": "custom", "source": "foo.json"}
    with pytest.raises(ValueError):
        parse_group_arg("so3:2")
    # numbers read as a config's: make_group accepts 16.0 and refuses 2.7 alike
    assert gs.make_group(parse_group_arg("circle:16.0")).name == "circle(16)"
    assert gs.make_group(parse_group_arg("cyclic:12.0")).name == "cyclic(12)"
    with pytest.raises(ValueError, match="'circle' group parameter 'band' needs an integer"):
        gs.make_group(parse_group_arg("circle:2.7"))
    with pytest.raises(ValueError, match="'cyclic' group parameter 'n' needs an integer"):
        gs.make_group(parse_group_arg("cyclic:twelve"))
    # a part left over, or one missing, is refused, naming the spec
    for spec in ["s3:5", "su2:2:hal", "su2:2:half:x", "cyclic", "circle:", "circle:16:2"]:
        with pytest.raises(ValueError, match=f"cannot parse group spec '{spec}'"):
            parse_group_arg(spec)


def test_spectra_constant_writes_single_block(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["spectra", "--group", "cyclic:4", "--source", "constant", "--out", str(out), "--quiet"]
    )
    assert code == 0
    data = json.loads((out / "spectra_cyclic_4.json").read_text())
    assert list(data["blocks"]) == ["0"]
    assert data["m"] == 3  # default config target dimension


@pytest.mark.parametrize(
    "spec, message",
    [
        ("su2:2:hal", "cannot parse group spec 'su2:2:hal'"),
        ("circle:2.7", "'circle' group parameter 'band' needs an integer, got 2.7"),
    ],
)
def test_spectra_refuses_a_bad_group_flag(tmp_path, capsys, spec, message):
    argv = ["spectra", "--group", spec, "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectra_random_is_deterministic(tmp_path):
    args = ["spectra", "--group", "su2:1", "--seed", "11", "--quiet"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "spectra_su2_1.json").read_bytes() == (b / "spectra_su2_1.json").read_bytes()


def test_spectra_file_round_trip_bytes(tmp_path):
    first = tmp_path / "first"
    assert main(["spectra", "--group", "circle:2", "--seed", "3", "--out", str(first), "--quiet"]) == 0
    src = first / "spectra_circle_2.json"
    second = tmp_path / "second"
    assert (
        main(
            [
                "spectra",
                "--group",
                "circle:2",
                "--source",
                str(src),
                "--out",
                str(second),
                "--quiet",
            ]
        )
        == 0
    )
    assert src.read_bytes() == (second / "spectra_circle_2.json").read_bytes()


def test_spectra_rejects_mismatched_file(tmp_path):
    first = tmp_path / "first"
    assert main(["spectra", "--group", "circle:2", "--out", str(first), "--quiet"]) == 0
    src = first / "spectra_circle_2.json"
    code = main(["spectra", "--group", "circle:3", "--source", str(src), "--quiet"])
    assert code == 2


def test_norms_match_library_exactly(tmp_path):
    out = tmp_path / "out"
    assert main(["spectra", "--group", "su2:1", "--seed", "7", "--out", str(out), "--quiet"]) == 0
    coeff_path = out / "spectra_su2_1.json"
    assert (
        main(["norms", "--coefficients", str(coeff_path), "--out", str(out), "--quiet"]) == 0
    )
    rows = json.loads((out / "norms_su2_1.json").read_text())

    group = gs.make_group("su2", band=1)
    coeffs = gs.load_coefficients(coeff_path, group)
    weights = gs.canonical_weights(group)
    by_name = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row)
    for row in by_name["s_p_norm"]:
        assert row["value"] == gs.s_p_norm(coeffs, row["params"]["p"])
    for row in by_name["h_s_norm"]:
        assert row["value"] == gs.h_s_norm(coeffs, weights, row["params"]["s"])
    f = gs.VectorFunction.from_samples(gs.synthesize(coeffs, group))
    assert by_name["l2_norm"][0]["value"] == gs.l_p_norm(f, group, 2.0)
    sup_row = by_name["sup_norm"][0]
    extra, seed = sup_row["params"]["extra_samples"], sup_row["params"]["seed"]
    assert sup_row["value"] == gs.probed_sup(coeffs, group, extra, seed)


def test_norms_of_zero_file_are_zero(tmp_path):
    group = gs.make_group("cyclic", n=4)
    path = tmp_path / "zero.json"
    gs.save_coefficients(path, gs.FourierCoefficients(group.window, 2))
    out = tmp_path / "out"
    assert main(["norms", "--coefficients", str(path), "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "norms_cyclic_4.json").read_text())
    assert rows and all(row["value"] == 0.0 for row in rows)


@pytest.mark.parametrize("p_E, message", [
    ("nan", "field 'p_E' needs a number or 'inf', got 'nan'"),
    (math.nan, "p_E must be >= 1, got nan"),
    ([2], "field 'p_E' needs a number or 'inf', got [2]"),
])
def test_norms_refuses_a_bad_target_exponent(tmp_path, capsys, p_E, message):
    group = gs.make_group("cyclic", n=4)
    data = gs.coefficients_to_json(gs.random_band_limited(0, group, m=2))
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**data, "p_E": p_E}))
    out = tmp_path / "out"
    assert main(["norms", "--coefficients", str(path), "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_norms_with_weight_table(tmp_path):
    out = tmp_path / "out"
    assert main(["spectra", "--group", "cyclic:4", "--out", str(out), "--quiet"]) == 0
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"0": 0.0, "1": 1.0, "2": 2.0, "3": 1.0}))
    assert (
        main(
            [
                "norms",
                "--coefficients",
                str(out / "spectra_cyclic_4.json"),
                "--weights",
                str(wpath),
                "--out",
                str(out),
                "--quiet",
            ]
        )
        == 0
    )
    rows = json.loads((out / "norms_cyclic_4.json").read_text())
    assert any(r["name"] == "h_s_norm" and r["params"]["weights"] == "table" for r in rows)


def test_constants_values_and_determinism(tmp_path):
    cfgpath = write_config(
        tmp_path,
        groups=[{"kind": "cyclic", "n": 2}, {"kind": "su2", "band": 1}],
        s_values=[1.0, 2.0],
        st_pairs=[[1.0, 2.0]],
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["constants", "--config", cfgpath, "--out", str(out1), "--quiet"]) == 0
    assert main(["constants", "--config", cfgpath, "--out", str(out2), "--quiet"]) == 0
    b1 = (out1 / "constants.json").read_bytes()
    assert b1 == (out2 / "constants.json").read_bytes()

    rows = json.loads(b1)
    su2_c = next(
        r
        for r in rows
        if r["name"] == "embedding_constant_C" and r["group"] == "su2(1)" and r["params"]["s"] == 2.0
    )
    assert abs(su2_c["value"] - 2.0) <= 1e-12
    z2_c = next(
        r
        for r in rows
        if r["name"] == "embedding_constant_C" and r["group"] == "cyclic(2)" and r["params"]["s"] == 1.0
    )
    assert abs(z2_c["value"] - math.sqrt(2.0)) <= 1e-12  # zero weights on finite groups
    assert su2_c["verdict"] == "diverging" and su2_c["upper"] == "inf"  # s = 2 is not above 2
    assert z2_c["verdict"] == "summable" and z2_c["upper"] == z2_c["value"]
    assert {r["name"] for r in rows} == {"embedding_constant_C", "lq_bound_constant"}


def test_lq_bound_constant_rows_carry_the_series_verdict(tmp_path):
    cfgpath = write_config(
        tmp_path,
        groups=[{"kind": "cyclic", "n": 2}, {"kind": "su2", "band": 2}],
        st_pairs=[[1.0, 2.0], [1.0, 3.0]],
    )
    out = tmp_path / "o"
    assert main(["constants", "--config", cfgpath, "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "constants.json").read_text())
    verdicts = {
        (r["group"], r["params"]["t"]): r["verdict"] for r in rows if r["name"] == "lq_bound_constant"
    }
    assert verdicts == {
        ("cyclic(2)", 2.0): "summable",
        ("cyclic(2)", 3.0): "summable",
        ("su2(2)", 2.0): "diverging",
        ("su2(2)", 3.0): "summable",
    }


def test_verify_writes_one_record_per_line(tmp_path):
    cfgpath = write_config(tmp_path)
    out = tmp_path / "report"
    assert main(["verify", "--config", cfgpath, "--out", str(out), "--quiet"]) == 0
    lines = (out / "verification_report.json").read_text().splitlines()
    report = json.loads("\n".join(lines))
    start = lines.index('  "records": [')
    assert len(lines) == start + len(report["records"]) + 3
    assert f'    "record_count": {len(report["records"])},' in lines


def test_verify_small_config(tmp_path):
    cfgpath = write_config(tmp_path)
    out = tmp_path / "report"
    code = main(["verify", "--config", cfgpath, "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "verification_report.json").read_text())
    assert report["summary"]["all_pass"] is True
    assert report["summary"]["record_count"] == len(report["records"])
    csv_text = (out / "verification_report.csv").read_text()
    assert csv_text.splitlines()[0] == "name,group,seed,lhs,rhs,slack,tol,pass"


def test_verify_deterministic_modulo_timestamp(tmp_path):
    cfgpath = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", "--config", cfgpath, "--out", str(out1), "--quiet"]) == 0
    assert main(["verify", "--config", cfgpath, "--out", str(out2), "--quiet"]) == 0
    a = json.loads((out1 / "verification_report.json").read_text())
    b = json.loads((out2 / "verification_report.json").read_text())
    assert a["metadata"].pop("generated_at") != b["metadata"].pop("generated_at") or True
    assert a == b
    assert (out1 / "verification_report.csv").read_bytes() == (
        out2 / "verification_report.csv"
    ).read_bytes()


def test_verify_tamper_exits_nonzero(tmp_path):
    cfgpath = write_config(tmp_path)
    out = tmp_path / "report"
    code = main(["verify", "--config", cfgpath, "--out", str(out), "--quiet", "--tamper"])
    assert code == 1
    report = json.loads((out / "verification_report.json").read_text())
    assert report["summary"]["failure_count"] >= 1


def test_verify_names_the_tightest_record_of_each_check(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    out = tmp_path / "report"
    assert main(["verify", "--config", cfgpath, "--out", str(out), "--tamper"]) == 1
    lines = capsys.readouterr().out.splitlines()
    report = json.loads((out / "verification_report.json").read_text())
    assert len(report["summary"]["min_slack"]) == 10
    for name, slack in report["summary"]["min_slack"].items():
        line = next(l for l in lines if l.split(" ", 1)[1].startswith(f"{name}:"))
        tightest = next(r for r in report["records"] if r["name"] == name and r["slack"] == slack)
        ctx = tightest["context"]
        where = [f"{k}={ctx[k]}" for k in ("batch", "index", "block", "pair") if k in ctx]
        assert where and line.startswith("FAIL ")
        named = [f"tightest group={tightest['group']}", f"seed={tightest['seed']}", *where]
        assert line.endswith(" ".join(named))


def test_a_default_tamper_run_builds_at_most_two_records_per_check(tmp_path, monkeypatch, capsys):
    """Counts, failures and tightest records are read from the table's
    columns: the report's summary and the console's tightest-record lines
    build one InequalityRecord per check each, however many records fail."""
    built, record = Counter(), verify.InequalityRecord

    def counted(name, *args):
        built[name] += 1
        return record(name, *args)

    monkeypatch.delenv(ENV_CONFIG, raising=False)
    monkeypatch.setattr(verify, "InequalityRecord", counted)
    assert main(["verify", "--tamper", "--out", str(tmp_path)]) == 1
    summary = json.loads((tmp_path / "verification_report.json").read_text())["summary"]
    assert summary["failure_count"] > 10000
    assert built.keys() == summary["records_per_check"].keys() and max(built.values()) == 2
    assert capsys.readouterr().out.splitlines()[-1].endswith(f"{summary['failure_count']} failures")


def test_verify_format_selection(tmp_path):
    cfgpath = write_config(tmp_path)
    out = tmp_path / "jsononly"
    assert main(["verify", "--config", cfgpath, "--out", str(out), "--format", "json", "--quiet"]) == 0
    assert (out / "verification_report.json").exists()
    assert not (out / "verification_report.csv").exists()


def test_verify_invalid_config_exit_code(tmp_path):
    cfgpath = write_config(tmp_path, st_pairs=[[2.0, 1.0]])
    assert main(["verify", "--config", cfgpath, "--quiet"]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", 2.5),
        ("batch_size", 2.5),
        ("seed", 1.5),
        ("p_E", "2"),
        ("s_values", ["a"]),
        ("tamper", "false"),
        ("quiet", "no"),
        ("st_pairs", [5]),
        ("s_values", 1.0),
        ("formats", "json"),
        # json writes and reads Infinity and NaN; a float holds no 10**400
        ("st_pairs", [[1.0, math.inf]]),
        ("st_pairs", [[math.nan, 2.0]]),
        ("s_values", [0.0, math.inf]),
        ("s_values", [10**400]),
        ("p_values", [math.inf]),
        ("p_values", [math.nan]),
        ("formats", ["json", "xml"]),
        ("groups", {"kind": "s3"}),
    ],
)
def test_verify_refuses_wrongly_typed_config_fields(tmp_path, capsys, field, value):
    cfgpath = write_config(tmp_path, **{field: value})
    assert main(["verify", "--config", cfgpath, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides, message", [({"s_values": [400.0]}, "s=400")], ids=["sobolev-weight"])
def test_verify_refuses_an_overflowing_norm(tmp_path, capsys, overrides, message):
    # an inf lhs would fake a failure and an inf rhs a pass; neither is written
    cfgpath = tmp_path / "config.json"
    cfgpath.write_text(json.dumps({**overrides, "batch_size": 2}))  # on the default groups
    assert main(["verify", "--config", str(cfgpath), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # no numpy RuntimeWarning before it
    assert line.startswith("error: ") and message in line
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_reaches_a_verdict_on_an_l202_norm(tmp_path, capsys):
    # alpha' = 202 at (s, t) = (1, 1.01): |f|^202 is past the largest float, but the norm is not
    cfgpath = tmp_path / "config.json"
    cfgpath.write_text(json.dumps({"st_pairs": [[1.0, 1.01]], "batch_size": 2}))
    argv = ["verify", "--config", str(cfgpath), "--quiet"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert main([*argv, "--out", str(tmp_path / "t"), "--tamper"]) == 1
    assert capsys.readouterr().err == ""
    records = list(csv.DictReader((tmp_path / "o" / "verification_report.csv").open()))
    lq = [float(r["lhs"]) for r in records if r["name"] == "lq_embedding"]
    assert len(lq) == 2 * 4 and all(0.0 < value < math.inf for value in lq)


@pytest.mark.parametrize("pair", [[1.0, 1e300], [1e-300, 1.0]])
def test_verify_refuses_st_pairs_whose_exponents_round_out_of_range(tmp_path, capsys, pair):
    cfgpath = write_config(tmp_path, st_pairs=[pair])
    assert main(["verify", "--config", cfgpath, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: config field 'st_pairs'") and f"s={pair[0]}, t={pair[1]}" in line
    assert not (tmp_path / "o").exists()


def test_an_unexpected_error_exits_3_with_its_traceback(tmp_path, capsys, monkeypatch):
    def crash(cfg):
        raise RuntimeError("run_suite crashed")

    monkeypatch.setattr("groupsobolev.verify.run_suite", crash)
    cfgpath = write_config(tmp_path)
    assert main(["verify", "--config", cfgpath, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: run_suite crashed" in err


SMALL_GROUPS = [
    *({"kind": "cyclic", "n": n} for n in (1, 2, 5)),
    {"kind": "s3"},
    *({"kind": "circle", "band": band} for band in (0, 1, 3)),
    *({"kind": "su2", "band": band, "half_integers": half}
      for band in (0.0, 1.0) for half in (False, True)),
]


@st.composite
def admitted_configs(draw) -> dict:
    """A small config that ``RunConfig`` admits, with p_E, s and (s, t) drawn near their bounds."""
    groups = draw(st.lists(st.sampled_from(SMALL_GROUPS), min_size=1, max_size=2))
    table = st.floats(0.0, 1e3)
    weights = draw(st.one_of(
        st.sampled_from(["canonical", "zero"]),
        st.tuples(*(st.fixed_dictionaries({str(label): table for label in
                                           gs.make_group(dict(spec)).window.labels})
                    for spec in groups)).map(list),
    ))
    s = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]), st.floats(0.0, 2.0), st.floats(100.0, 500.0))
    low = st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 10.0))
    ratio = st.one_of(st.floats(1.0 + 2**-40, 1.01), st.floats(1.01, 1e6))
    pair = st.tuples(low, ratio).map(lambda sr: [sr[0], sr[0] * sr[1]]).filter(lambda p: _admitted(*p))
    return {
        "groups": groups,
        "m": draw(st.integers(1, 3)),
        "p_E": draw(st.one_of(st.sampled_from(["inf", 1.0, 2.0, 1e308]), st.floats(1.0, 1e308))),
        "weights": weights,
        "s_values": draw(st.lists(s, max_size=3)),
        "st_pairs": draw(st.lists(pair, max_size=2)),
        "batch_size": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**64)),
        "vector_checks": draw(st.integers(0, 5)),
        "vector_max_dim": draw(st.integers(1, 4)),
        "continuity_pairs": draw(st.integers(0, 6)),
        "sup_extra_samples": draw(st.integers(0, 8)),
        "block_check_stride": draw(st.integers(0, 3)),
        "tamper": draw(st.booleans()),
        "quiet": draw(st.booleans()),
    }


def _admitted(s, t) -> bool:
    """Whether ``exponents`` admits the pair (s, t)."""
    try:
        gs.exponents(s, t)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=admitted_configs())
def test_verify_on_any_small_admitted_config_reaches_a_verdict_or_one_error_line(config):
    # a RuntimeWarning raises in the run, so main exits 3 with its traceback
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, err, path = io.StringIO(), io.StringIO(), Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--config", str(path), "--out", str(Path(tmp) / "o")])
        reports = sorted(p.name for p in (Path(tmp) / "o").glob("*"))
        summary = json.loads((Path(tmp) / "o" / reports[-1]).read_text())["summary"] if reports else None
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ") and reports == []
    else:
        assert err.getvalue() == ""
        assert reports == ["verification_report.csv", "verification_report.json"]
        assert summary["all_pass"] is (code == 0)
        verdict = f"{'PASS' if code == 0 else 'FAIL'}: {summary['record_count']} records"
        if config["quiet"]:
            assert out.getvalue() == ""
        else:
            assert out.getvalue().splitlines()[-1].startswith(verdict)


@pytest.mark.parametrize(
    "document, message",
    [
        ({"weights": [{"0": None}, "canonical"]}, "weight for 0 must be a finite number >= 0, got None"),
        ({"weights": [dict.fromkeys("0123", True), "canonical"]}, "weight for 0 must be a finite number"),
        ({"weights": [5, "canonical"]}, "invalid weight selection 5"),
        ({"groups": [{"kind": "custom", "source": 5}]}, "source needs a mapping or its JSON file"),
        ({"groups": [{"kind": "custom", "source": {"order": None}}]},
         "'custom' group parameter 'order' needs an integer, got None"),
        ({"groups": [{"kind": "custom", "source": {"order": 1, "mult_table": [[0]],
                                                   "irreps": [{"label": "a", "dim": None}]}}]},
         "'custom' group parameter 'dim' needs an integer, got None"),
        ({"groups": [{"kind": "custom", "source": {"order": 2, "mult_table": [[None, 1], [1, 0]]}}]},
         "'custom' group parameter 'mult_table' needs an integer, got None"),
        ({"groups": [{"kind": "custom", "source": {"order": 1, "mult_table": [[0]], "irreps": [5]}}]},
         "custom group: irreps needs a list of objects, got [5]"),
        ({"groups": [{"kind": "custom", "source": {"order": 1, "mult_table": [[0]], "irreps": 5}}]},
         "custom group: irreps needs a list of objects, got 5"),
        ({"groups": [{"kind": "custom", "source": {"order": 1, "mult_table": [[0]], "name": 7}}]},
         "custom group: name needs a string, got 7"),
        ([SMALL_CONFIG], "must hold a JSON object"),
    ],
    ids=["null-weight", "bool-weight", "number-as-weights", "source-5", "null-order", "null-dim",
         "null-table-entry", "irrep-not-an-object", "irreps-not-a-list", "name-not-a-string", "array"],
)
def test_verify_refuses_a_malformed_weight_table_group_or_config_file(tmp_path, capsys, document, message):
    cfgpath = tmp_path / "config.json"
    cfgpath.write_text(json.dumps({**SMALL_CONFIG, **document} if isinstance(document, dict) else document))
    assert main(["verify", "--config", str(cfgpath), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # no traceback
    assert line.startswith("error: ") and message in line
    assert not (tmp_path / "o").exists()


def test_norms_refuses_a_weight_table_value_that_is_not_a_number(tmp_path, capsys):
    assert main(["spectra", "--group", "cyclic:4", "--out", str(tmp_path), "--quiet"]) == 0
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"0": 0.0, "1": "1.5", "2": 0.0, "3": 0.0}))
    coefficients = str(tmp_path / "spectra_cyclic_4.json")
    argv = ["norms", "--coefficients", coefficients, "--weights", str(weights), "--out", str(tmp_path)]
    assert main([*argv, "--quiet"]) == 2
    assert "weight for 1 must be a finite number >= 0, got '1.5'" in capsys.readouterr().err


def _block_0(entries):
    """An edit of a coefficient file that sets block "0" to ``entries(block)``."""
    return lambda data: {**data, "blocks": {**data["blocks"], "0": entries(data["blocks"]["0"])}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_block_0(lambda b: [[[z[:1] for z in row] for row in rows] for rows in b]),
         "coefficient file block '0' needs [re, im] pairs, got shape (1, 1, 3, 1)"),
        (_block_0(lambda b: [[[[*z, 99.0] for z in row] for row in rows] for rows in b]),
         "coefficient file block '0' needs [re, im] pairs, got shape (1, 1, 3, 3)"),
        (_block_0(lambda b: 1.0), "coefficient file block '0' needs [re, im] pairs, got shape ()"),
        (lambda data: {**data, "window": {**data["window"], "labels": 5}},
         "coefficient file field 'labels' needs a list, got 5"),
        (lambda data: {**data, "window": {**data["window"], "dims": None}},
         "coefficient file field 'dims' needs a list, got None"),
        (lambda data: {**data, "blocks": [1]}, "coefficient file field 'blocks' needs an object, got [1]"),
        (lambda data: {**data, "window": 5}, "coefficient file field 'window' needs an object, got 5"),
        (lambda data: [data], "coefficient file field 'window' needs an object, got None"),
    ],
    ids=["re", "re-im-99", "block-number", "labels-5", "dims-null", "blocks-list", "window-5", "array"],
)
def test_norms_refuses_a_malformed_coefficient_file(tmp_path, capsys, edit, message):
    assert main(["spectra", "--group", "cyclic:4", "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "spectra_cyclic_4.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["norms", "--coefficients", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # no traceback
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("field", ["m", "kind", "band", "trivial"])
def test_norms_refuses_a_coefficient_file_without_a_field_by_naming_it(tmp_path, capsys, field):
    assert main(["spectra", "--group", "cyclic:4", "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "spectra_cyclic_4.json"
    data = json.loads(path.read_text())
    del (data if field == "m" else data["window"])[field]
    path.write_text(json.dumps(data))
    assert main(["norms", "--coefficients", str(path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # no traceback
    assert line == f"error: coefficient file field {field!r} needs a value, got None"


def test_verify_refuses_a_non_integer_circle_band(tmp_path, capsys):
    cfgpath = write_config(tmp_path, groups=[{"kind": "circle", "band": 2.7}], batch_size=1)
    assert main(["verify", "--config", cfgpath, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "'circle' group parameter 'band' needs an integer" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_config_from_environment(tmp_path, monkeypatch):
    cfgpath = write_config(tmp_path, groups=[{"kind": "cyclic", "n": 3}], batch_size=1)
    monkeypatch.setenv("GROUPSOBOLEV_CONFIG", cfgpath)
    out = tmp_path / "envout"
    assert main(["verify", "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verification_report.json").read_text())
    groups = {r["group"] for r in report["records"]}
    assert groups <= {"cyclic(3)", "-"}


def test_no_command_shows_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exit_code():
    assert main(["verify", "--definitely-not-a-flag"]) == 2


def test_flag_overrides_config_seed(tmp_path):
    cfgpath = write_config(tmp_path, groups=[{"kind": "cyclic", "n": 4}])
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["spectra", "--config", cfgpath, "--seed", "1", "--out", str(out1), "--quiet"]) == 0
    assert main(["spectra", "--config", cfgpath, "--seed", "2", "--out", str(out2), "--quiet"]) == 0
    a = (out1 / "spectra_cyclic_4.json").read_bytes()
    b = (out2 / "spectra_cyclic_4.json").read_bytes()
    assert a != b


def test_norms_refuses_per_group_weight_list(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectra", "--group", "cyclic:4", "--out", str(out), "--quiet"]) == 0
    coeff_path = str(out / "spectra_cyclic_4.json")
    cfg = write_config(tmp_path, weights=["zero", "canonical"])
    argv = ["norms", "--coefficients", coeff_path, "--config", cfg, "--out", str(out), "--quiet"]
    assert main(argv) == 2
    assert "--weights" in capsys.readouterr().err
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"0": 0.0, "1": 1.0, "2": 2.0, "3": 1.0}))
    assert main(argv + ["--weights", str(wpath)]) == 0


def test_norms_of_custom_group_file_names_the_group_flag(tmp_path, capsys):
    table = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    source = tmp_path / "z2.json"
    source.write_text(json.dumps({
        "order": 2,
        "mult_table": table,
        "irreps": [{"label": "sign", "dim": 1, "matrices": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}],
    }))
    out = tmp_path / "out"
    group_arg = f"custom:{source}"
    assert main(["spectra", "--group", group_arg, "--out", str(out), "--quiet"]) == 0
    (coeff_path,) = out.glob("spectra_*.json")
    argv = ["norms", "--coefficients", str(coeff_path), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--group custom:PATH" in err
    assert "requires parameter" not in err
    assert main(argv + ["--group", group_arg]) == 0
