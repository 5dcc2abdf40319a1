import json
import math

import pytest

import groupsobolev as gs
from groupsobolev.cli import main, parse_group_arg

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


def test_spectra_constant_writes_single_block(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["spectra", "--group", "cyclic:4", "--source", "constant", "--out", str(out), "--quiet"]
    )
    assert code == 0
    data = json.loads((out / "spectra_cyclic_4.json").read_text())
    assert list(data["blocks"]) == ["0"]
    assert data["m"] == 3  # default config target dimension


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
    f = gs.inverse_transform(coeffs, group)
    by_name = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row)
    for row in by_name["s_p_norm"]:
        assert row["value"] == gs.s_p_norm(coeffs, row["params"]["p"])
    for row in by_name["h_s_norm"]:
        assert row["value"] == gs.h_s_norm(coeffs, weights, row["params"]["s"])
    assert by_name["l2_norm"][0]["value"] == gs.l_p_norm(f, group, 2.0)
    sup_row = by_name["sup_norm"][0]
    assert sup_row["value"] == gs.sup_norm(
        f, group, extra_samples=sup_row["params"]["extra_samples"], seed=sup_row["params"]["seed"]
    )


def test_norms_of_zero_file_are_zero(tmp_path):
    group = gs.make_group("cyclic", n=4)
    path = tmp_path / "zero.json"
    gs.save_coefficients(path, gs.zero_coefficients(group, m=2))
    out = tmp_path / "out"
    assert main(["norms", "--coefficients", str(path), "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "norms_cyclic_4.json").read_text())
    assert rows and all(row["value"] == 0.0 for row in rows)


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
    assert any(r["name"] == "summability" and "verdict" in r for r in rows)
    assert any(r["name"] == "lq_bound_constant" for r in rows)


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


def test_verify_format_selection(tmp_path):
    cfgpath = write_config(tmp_path)
    out = tmp_path / "jsononly"
    assert main(["verify", "--config", cfgpath, "--out", str(out), "--format", "json", "--quiet"]) == 0
    assert (out / "verification_report.json").exists()
    assert not (out / "verification_report.csv").exists()


def test_verify_invalid_config_exit_code(tmp_path):
    cfgpath = write_config(tmp_path, st_pairs=[[2.0, 1.0]])
    assert main(["verify", "--config", cfgpath, "--quiet"]) == 2


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
