"""Command-line interface: flag handling, exit codes, output formats, and
reproducibility."""

import json
import os
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import georank as gr
from georank import cli, rankfield
from georank import selftest as selftest_mod
from georank._write import csv_text
from georank.cli import main
from georank.measures import _read_table


def run(argv):
    return main(argv)


def test_rank_points_csv(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1,0,0\n0,0,0\n")
    out = tmp_path / "out.csv"
    code = run(["rank", "--family", "gaussian", "--dim", "3",
                "--points", str(pts), "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3,r1,r2,r3"
    assert len(lines) == 3
    row = [float(v) for v in lines[1].split(",")]
    prof = gr.radial_profile(gr.RadialClosedForm("gaussian", 3))
    assert row[3] == pytest.approx(prof.g(1.0), rel=1e-12)


def test_rank_missing_dim_is_config_error(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1,0\n")
    code = run(["rank", "--family", "gaussian", "--points", str(pts)])
    assert code == 2
    assert "--dim" in capsys.readouterr().err


def test_rank_at_atom_flagged(tmp_path):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0,0\n1,1\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n0.5,0.5\n")
    out = tmp_path / "out.csv"
    code = run(["rank", "--csv", str(atoms), "--points", str(pts),
                "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith("at_atom")
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[-1] == "0"


def test_exactly_one_measure_source(tmp_path, capsys):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0,0\n1,1\n")
    code = run(["contour", "--family", "gaussian", "--dim", "2",
                "--csv", str(atoms), "--beta", "0.5"])
    assert code == 2


def test_reconstruct_parity_mismatch_exit_2(capsys):
    code = run(["reconstruct", "--family", "gaussian", "--dim", "3",
                "--method", "singular"])
    assert code == 2
    err = capsys.readouterr().err
    assert "even" in err


def test_reconstruct_curve_with_reference(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(["reconstruct", "--family", "cauchy", "--dim", "2",
                "--method", "singular", "--radii", "0:2:0.25",
                "--reference", "-o", str(out)])
    assert code == 0
    names, data = _read_table(out)
    assert names == ["r", "f_hat", "f_reference", "abs_error"]
    f0 = 1.0 / (2 * np.pi)
    assert np.max(data[:, 3]) / f0 <= 1e-3


def test_reconstruct_output_idempotent(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = run(["reconstruct", "--family", "gaussian", "--dim", "3",
                    "--method", "odd-local", "--radii", "0.1:2:0.1",
                    "--reference", "-o", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_quantile_command(tmp_path):
    out = tmp_path / "q.csv"
    code = run(["quantile", "--family", "cauchy", "--dim", "2",
                "--alpha", str(np.sqrt(2.0) - 1.0), "--direction", "0,1",
                "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == pytest.approx(0.0, abs=1e-8)
    assert vals[1] == pytest.approx(1.0, abs=1e-8)
    assert vals[2] <= 1e-8


def test_quantile_nonconvergence_maps_to_exit_4(monkeypatch, capsys):
    from georank.errors import NonConvergenceError

    def boom(*a, **k):
        raise NonConvergenceError("stalled", residual=0.1)

    monkeypatch.setattr(cli, "solve_quantile", boom)
    code = run(["quantile", "--family", "gaussian", "--dim", "2",
                "--alpha", "0.5", "--direction", "1,0"])
    assert code == 4


def test_contour_csv_roundtrip(tmp_path):
    atoms = tmp_path / "atoms.csv"
    rng = np.random.default_rng(3)
    atoms.write_text("\n".join(",".join("%.17g" % v for v in row)
                               for row in rng.standard_normal((40, 2))))
    out = tmp_path / "contour.csv"
    code = run(["contour", "--csv", str(atoms), "--beta", "0.4",
                "--rays", "16", "-o", str(out)])
    assert code == 0
    names, data = _read_table(out)
    assert names == ["u1", "u2", "radius", "rank_norm"]
    assert data.shape == (16, 4)
    assert np.max(np.abs(data[:, 3] - 0.4)) <= 1e-8


def test_content_command(tmp_path, capsys):
    code = run(["content", "--family", "gaussian", "--dim", "3",
                "--radius", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["content"] == pytest.approx(0.198748, abs=1e-6)
    assert payload["abs_error"] <= 1e-6


def test_content_format_csv_exits_2(tmp_path, capsys):
    # content writes one JSON object: json is its default, csv is refused
    argv = ["content", "--family", "gaussian", "--dim", "3", "--radius", "1"]
    out = tmp_path / "content.csv"
    assert run(argv + ["--format", "csv", "-o", str(out)]) == 2
    assert "--format csv is refused" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["path"] == "analytic"


@pytest.mark.parametrize("cmd", ["rank", "content"])
def test_unknown_format_flag_or_config_exits_2(tmp_path, capsys, cmd):
    # only csv and json exist; anything else wrote CSV and exited 0
    argv = {"rank": ["rank", "--family", "gaussian", "--dim", "2",
                     "--grid=-1:1:3"],
            "content": ["content", "--family", "gaussian", "--dim", "3",
                        "--radius", "1"]}[cmd]
    out = tmp_path / "out.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": 1}))
    for extra, bad in ((["--format", "xml"], "'xml'"),
                       (["--config", str(cfg)], "'1'")):
        assert run(argv + extra + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--format must be csv or json, got {bad}" in err
        assert not out.exists()


def test_content_grid_path_in_d1_exits_2(tmp_path, capsys):
    # d = 1 has only the exact path; grid wrote it with "path": "grid"
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("-1.0\n0.2\n1.0\n")
    argv = ["content", "--csv", str(atoms), "--radius", "0.5"]
    assert run(argv + ["--path", "grid"]) == 2
    assert "--path grid" in capsys.readouterr().err
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["path"] == "analytic"


def test_contour_beta_zero_writes_rank_norm_at_the_origin(tmp_path, capsys):
    # the rays of a cloud off the origin wrote rank_norm 0
    atoms = tmp_path / "atoms.csv"
    np.savetxt(atoms, np.random.default_rng(0).standard_normal((300, 2))
               + 3.0, delimiter=",")
    ev = gr.RankEvaluator(gr.empirical_from_csv(str(atoms)))
    want = np.linalg.norm(ev.rank(np.zeros(2)))
    assert run(["contour", "--csv", str(atoms), "--beta", "0", "--rays",
                "4", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["rank_norm"]
    np.testing.assert_allclose(got, [want] * 4, rtol=1e-14)


def test_content_even_dim_rejected(capsys):
    code = run(["content", "--family", "gaussian", "--dim", "2",
                "--radius", "1"])
    assert code == 2


def test_selftest_passes(capsys):
    code = run(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[pass]") >= 12
    assert "note:" in out            # density-convention note is printed


def test_selftest_json(capsys):
    code = run(["selftest", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert len(payload["checks"]) >= 12


def test_selftest_detects_corrupted_constant(monkeypatch, capsys):
    monkeypatch.setattr(selftest_mod, "gamma_d",
                        lambda d: 1.001 * gr.gamma_d(d))
    code = run(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] gamma_d identity" in out


def test_config_file_merge_flags_win(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"alpha": 0.25, "direction": "1,0",
                               "family": "cauchy", "dim": 2}))
    out = tmp_path / "q.csv"
    # --alpha on the command line overrides the config value
    code = run(["quantile", "--config", str(cfg), "--alpha", "0.5",
                "-o", str(out)])
    assert code == 0
    prof = gr.radial_profile(gr.RadialClosedForm("cauchy", 2))
    got = float(out.read_text().strip().splitlines()[1].split(",")[0])
    assert prof.g(got) == pytest.approx(0.5, abs=1e-8)


def test_config_keys_that_name_no_flag_exit_2(tmp_path, capsys):
    # every unknown key is named, the subcommand's other flags are not, and
    # nothing is written
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "direction": "1,0",
                               "family": "cauchy", "dim": 2,
                               "no_such_flag": 1, "rays": 8}))
    out = tmp_path / "q.csv"
    code = run(["quantile", "--config", str(cfg), "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "georank: configuration error: --config keys that name no flag of "
        "quantile: no_such_flag, rays\n")
    assert not out.exists()


def test_help_documents_every_flag(capsys):
    parser = cli._build_parser()
    sub_actions = [a for a in parser._actions
                   if isinstance(a, cli.argparse._SubParsersAction)]
    assert sub_actions
    for name, sub in sub_actions[0].choices.items():
        help_text = sub.format_help()
        opts = {opt for action in sub._actions
                for opt in action.option_strings}
        for opt in opts:
            assert opt in help_text, f"{name}: {opt} undocumented"
        # no flag that no code reads
        assert not opts & {"--mc-budget", "--seed", "--threads", "--nodes",
                           "--box", "--fd-order"}, name


def test_rank_grid_output(tmp_path):
    out = tmp_path / "grid.csv"
    code = run(["rank", "--family", "gaussian", "--dim", "2",
                "--grid=-1:1:5", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 26          # header + 5^2 nodes


def test_rank_csv_roundtrips_through_table_parser(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.5\n1,0\n")
    out = tmp_path / "ranks.csv"
    assert run(["rank", "--family", "cauchy", "--dim", "2",
                "--points", str(pts), "-o", str(out)]) == 0
    names, data = cli.load_table(out)
    assert names == ["x1", "x2", "r1", "r2"]
    ev = gr.RankEvaluator(gr.RadialClosedForm("cauchy", 2))
    again = ev.rank_many(data[:, :2])
    assert np.array_equal(again, data[:, 2:4])


def test_reconstruct_empirical_singular_at_points(tmp_path, capsys):
    # an atomic measure has no density to evaluate pointwise: refused before
    # any work, off the atoms and on one alike
    atoms = tmp_path / "atoms.csv"
    rng = np.random.default_rng(7)
    atoms.write_text("\n".join(",".join("%.17g" % v for v in row)
                               for row in rng.standard_normal((50, 2))))
    on_atom = tmp_path / "two.csv"
    on_atom.write_text("0,0\n1,0\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.5\n2,0\n0,0\n")
    out = tmp_path / "fhat.csv"
    for src in (atoms, on_atom):
        code = run(["reconstruct", "--csv", str(src), "--method", "singular",
                    "--points", str(pts), "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "extension" in err and "--height" in err
    assert not out.exists()


def test_reconstruct_singular_at_points_of_a_family(tmp_path):
    # singular evaluates a closed form at --points; --reference gives f(|x|)
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n0.6,-0.8\n1.2,0.5\n")
    out = tmp_path / "f.csv"
    assert run(["reconstruct", "--family", "gaussian", "--dim", "2",
                "--method", "singular", "--points", str(pts), "--reference",
                "-o", str(out)]) == 0
    names, table = cli.load_table(out)
    assert names == ["x1", "x2", "f_hat", "f_reference", "abs_error"]
    assert np.array_equal(table[:, :2], cli.load_table(pts)[1])
    want = np.exp(-0.5 * (table[:, :2] ** 2).sum(axis=1)) / (2 * np.pi)
    np.testing.assert_allclose(table[:, 3], want, rtol=1e-15)
    assert np.max(table[:, 4]) <= 1e-3 / (2 * np.pi)
    # and the library's report for the same points, without the reference
    assert run(["reconstruct", "--family", "gaussian", "--dim", "2",
                "--method", "singular", "--points", str(pts), "-o",
                str(out)]) == 0
    rep = gr.reconstruct_even_singular(
        gr.RankEvaluator(gr.RadialClosedForm("gaussian", 2)),
        gr.ReconstructionConfig(method="singular", points=table[:, :2]))
    assert np.array_equal(cli.load_table(out)[1][:, 2], rep.f_hat)


@pytest.mark.parametrize("method, dim", [("hankel", "2"), ("odd-local", "3")])
def test_reconstruct_curve_routes_refuse_points(tmp_path, capsys, method,
                                                dim):
    pts = tmp_path / "pts.csv"
    pts.write_text(",".join(["0.5"] * int(dim)) + "\n")
    out = tmp_path / "f.csv"
    assert run(["reconstruct", "--family", "gaussian", "--dim", dim,
                "--method", method, "--points", str(pts), "-o",
                str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("georank: configuration error:")
    assert "--radii" in err and "--points" in err
    assert not out.exists()


def test_reconstruct_numeric_failure_exit_3(capsys):
    # an inner cutoff this coarse moves the answer under refinement by far
    # more than the tolerance
    code = run(["reconstruct", "--family", "gaussian", "--dim", "2",
                "--method", "singular", "--radii", "0:1:0.5", "--eta", "0.9"])
    assert code == 3
    assert "refining (eta, r_max)" in capsys.readouterr().err


def test_reconstruct_hankel_requires_radial(tmp_path):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0,0\n1,0\n")
    code = run(["reconstruct", "--csv", str(atoms), "--method", "hankel"])
    assert code == 2


@pytest.mark.parametrize("source, method, needs", [
    (["--family", "gaussian", "--dim", "2"], "odd-local", "odd d"),
    (["--family", "gaussian", "--dim", "3"], "singular", "even d"),
    (["--family", "cauchy", "--dim", "3"], "hankel", "d = 2"),
    (["--family", "gaussian", "--dim", "3"], "extension", "even-d"),
    ("atoms", "hankel", "closed-form radial"),
    ("atoms", "singular", "extension"),
    ("atoms-d3", "odd-local", "verify_identity_on_test_function"),
], ids=["odd-local-d2", "singular-d3", "hankel-d3", "extension-d3",
        "hankel-csv", "singular-csv-no-points", "odd-local-grid-csv"])
def test_reconstruct_refusals_exit_2(tmp_path, capsys, source, method, needs):
    if source in ("atoms", "atoms-d3"):
        atoms = tmp_path / "atoms.csv"
        atoms.write_text("0,0\n1,0\n0,1\n" if source == "atoms"
                         else "0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
        source = ["--csv", str(atoms)]
    code = run(["reconstruct", *source, "--method", method])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("georank: configuration error:")
    assert needs in err


def test_rank_nan_atom_is_parse_error(tmp_path, capsys):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("x1,x2\n0.5,-0.25\n0.125,nan\n-1,2\n1.5,0.75\n")
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n")
    code = run(["rank", "--csv", str(atoms), "--points", str(pts)])
    assert code == 2
    assert "row 3, column 2" in capsys.readouterr().err


def test_rank_non_finite_point_is_parse_error(tmp_path, capsys):
    # the reported row is the file line: header and blank lines count
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0,0\n\n1,inf\n")
    code = run(["rank", "--family", "gaussian", "--dim", "2",
                "--points", str(pts)])
    assert code == 2
    assert "row 4, column 2" in capsys.readouterr().err


def test_points_bad_cell_reports_file_line(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0,0\n1,oops\n")
    code = run(["rank", "--family", "gaussian", "--dim", "2",
                "--points", str(pts)])
    assert code == 2
    assert "row 3, column 2: not a number" in capsys.readouterr().err


def test_points_header_only_is_no_data_rows(tmp_path, capsys, recwarn):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n")
    code = run(["rank", "--family", "gaussian", "--dim", "2",
                "--points", str(pts)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"georank: configuration error: {pts}: no data rows\n"
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing, good = str(tmp_path / "nope.csv"), tmp_path / "good.csv"
    good.write_text("0,0\n")
    for argv in (["--csv", missing, "--points", str(good)],
                 ["--family", "gaussian", "--dim", "2", "--points", missing]):
        assert run(["rank", *argv]) == 2
        assert "nope.csv: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("bad, where", [
    ("1", "row 3 has 1 columns, expected 2"),
    ("1,oops", "row 3, column 2: not a number"),
    ("1,nan", "row 3, column 2: not a finite number"),
    ("inf,1", "row 3, column 1: not a finite number"),
    ("1,-inf", "row 3, column 2: not a finite number"),
], ids=["ragged", "non-numeric", "nan", "inf", "-inf"])
def test_same_parse_error_through_every_reader(tmp_path, capsys, bad, where):
    # one table parser: --csv and --points report the same file line and
    # column
    table = tmp_path / "table.csv"
    table.write_text(f"r,f_hat\n0.5,0.25\n{bad}\n-1,2\n")
    good = tmp_path / "good.csv"
    good.write_text("0,0\n")
    for argv in (["--csv", str(table), "--points", str(good)],
                 ["--family", "gaussian", "--dim", "2", "--points",
                  str(table)]):
        assert run(["rank", *argv]) == 2
        assert capsys.readouterr().err == \
            f"georank: configuration error: {table}: {where}\n"


def test_reconstruct_json_carries_f_hat(tmp_path):
    # points: the JSON f_hat is the CSV column, and save_json writes the
    # CLI's bytes for the same report
    rng = np.random.default_rng(5)
    atoms, pts = rng.standard_normal((30, 2)), rng.standard_normal((7, 2))
    for name, arr in (("atoms.csv", atoms), ("pts.csv", pts)):
        (tmp_path / name).write_text(csv_text(["x1", "x2"], arr))
    argv = ["reconstruct", "--csv", str(tmp_path / "atoms.csv"), "--method",
            "extension", "--points", str(tmp_path / "pts.csv"), "--height",
            "0.2", "-o"]
    assert run(argv + [str(tmp_path / "f.csv")]) == 0
    assert run(argv + [str(tmp_path / "f.json"), "--format", "json"]) == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    assert doc["kind"] == "points"
    names, table = cli.load_table(tmp_path / "f.csv")
    assert names == ["x1", "x2", "f_hat"]
    assert np.array_equal(np.array(doc["f_hat"]), table[:, 2])
    rep = gr.reconstruct_density(
        gr.RankEvaluator(gr.Empirical(atoms)),
        gr.ReconstructionConfig(method="extension", points=pts,
                                extension_height=0.2))
    rep.save_json(tmp_path / "lib.json")
    assert (tmp_path / "lib.json").read_bytes() == \
        (tmp_path / "f.json").read_bytes()


def test_rank_grid_over_cap_exits_3_without_allocating(tmp_path, capsys):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0,0\n1,1\n")
    tracemalloc.start()
    try:
        code = run(["rank", "--csv", str(atoms), "--grid=-1:1:100000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "cap" in capsys.readouterr().err
    assert peak < 1_000_000


@pytest.mark.parametrize("spec", ["-1:1:x", "-1:1:-3", "-1:1:0",
                                  "-1:1:2.5", "a:1:3", "-1:nan:3", "-1:1"])
def test_rank_bad_grid_spec_is_config_error(spec, capsys):
    code = run(["rank", "--family", "gaussian", "--dim", "2",
                f"--grid={spec}"])
    assert code == 2
    assert "bad grid spec" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:nan:0.1", "0:1:nan", "0:inf:1",
                                  "-inf:1:0.1", "0:1:inf"])
def test_reconstruct_non_finite_radii_is_config_error(spec, capsys):
    code = run(["reconstruct", "--family", "gaussian", "--dim", "3",
                "--method", "odd-local", f"--radii={spec}"])
    assert code == 2
    assert "bad radii spec" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0:1e12:1e-3", "0:1e308:1e-308"])
def test_reconstruct_radii_over_cap_exits_3_without_allocating(spec,
                                                               capsys):
    tracemalloc.start()
    try:
        code = run(["reconstruct", "--family", "gaussian", "--dim", "3",
                    "--method", "odd-local", f"--radii={spec}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "cap" in capsys.readouterr().err
    assert peak < 1_000_000


def test_rank_grid_at_atom_column(tmp_path, monkeypatch):
    # blocks of two points, so the atoms fall in different blocks
    monkeypatch.setattr(rankfield, "_EVAL_BLOCK", 4)
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0,0\n1,1\n")
    out = tmp_path / "grid.csv"
    assert run(["rank", "--csv", str(atoms), "--grid=-1:1:3",
                "-o", str(out)]) == 0
    names, data = cli.load_table(out)
    assert names[-1] == "at_atom"
    flagged = data[data[:, -1] == 1, :2]
    assert flagged.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_reconstruct_threads_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["reconstruct", "--family", "gaussian", "--dim", "2",
             "--method", "singular", "--radii", "0:1:0.5", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--nodes=21", "--box=-2:2", "--fd-order=4"])
def test_reconstruct_grid_flags_are_refused(flag, capsys):
    # they fed only the odd-local grid path, which the CLI cannot take
    with pytest.raises(SystemExit) as exc:
        run(["reconstruct", "--family", "gaussian", "--dim", "3",
             "--method", "odd-local", "--radii", "0:1:0.5", flag])
    assert exc.value.code == 2
    assert flag.split("=")[0] in capsys.readouterr().err


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = run(["rank", "--family", "gaussian", "--dim", "2",
                "--grid=-1:1:3", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"cannot write {out}: No such file or directory" in err
    assert "Traceback" not in err and not out.exists()


def test_memory_error_exits_3(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, "rank", out_of_memory)
    assert run(["rank", "--family", "gaussian", "--dim", "2",
                "--grid=-1:1:3"]) == 3
    assert "numeric failure: out of memory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bit-identical output
# ---------------------------------------------------------------------------

def _inputs(tmp_path):
    rng = np.random.default_rng(5)
    atoms, pts = tmp_path / "atoms.csv", tmp_path / "pts.csv"
    atoms.write_text("x1,x2\n" + "".join(
        "%.17g,%.17g\n" % tuple(r) for r in rng.standard_normal((40, 2))))
    pts.write_text("".join("%.17g,%.17g\n" % tuple(r)
                           for r in rng.standard_normal((9, 2))))
    return str(atoms), str(pts)


def _argv(cmd, atoms, pts):
    return {
        "rank": ["rank", "--csv", atoms, "--points", pts],
        "quantile": ["quantile", "--csv", atoms, "--alpha", "0.4",
                     "--direction", "1,1", "--tol", "1e-8"],
        "reconstruct": ["reconstruct", "--csv", atoms, "--method",
                        "extension", "--points", pts, "--height", "0.2"],
        "contour": ["contour", "--csv", atoms, "--beta", "0.5", "--rays",
                    "12"],
        "content": ["content", "--family", "gaussian", "--dim", "3",
                    "--radius", "1"],
    }[cmd]


@pytest.mark.parametrize("cmd, fmt", [
    (cmd, fmt) for cmd in ("rank", "quantile", "reconstruct", "contour",
                           "content")
    for fmt in ("csv", "json") if (cmd, fmt) != ("content", "csv")])
def test_identical_flags_write_identical_bytes(tmp_path, cmd, fmt):
    argv = _argv(cmd, *_inputs(tmp_path)) + ["--format", fmt]
    written = []
    for k in range(2):
        out = tmp_path / f"{k}.out"
        assert run(argv + ["-o", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] and written[0] == written[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_singular_same_flags_write_identical_bytes(tmp_path, fmt):
    written = []
    for k in range(2):
        out = tmp_path / f"{k}.{fmt}"
        assert run(["reconstruct", "--family", "gaussian", "--dim", "2",
                    "--method", "singular", "--radii", "0:1.5:0.5",
                    "--format", fmt, "-o", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    if fmt == "csv":
        assert len(written[0].splitlines()) == 5
    else:
        assert "workers" not in json.loads(written[0])["config"]


def test_back_to_back_commands_match_fresh_processes(tmp_path):
    # the parser is built once per process and shared by every main() call
    assert cli._build_parser() is cli._build_parser()
    atoms, pts = _inputs(tmp_path)
    argvs = [_argv("rank", atoms, pts), _argv("quantile", atoms, pts)]
    src = os.path.dirname(os.path.dirname(gr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for i, argv in enumerate(argvs):
        subprocess.run([sys.executable, "-m", "georank.cli", *argv,
                        "-o", str(tmp_path / f"alone{i}")], check=True,
                       env=env)
    for i, argv in enumerate(argvs):
        assert run(argv + ["-o", str(tmp_path / f"together{i}")]) == 0
    for i in range(len(argvs)):
        assert ((tmp_path / f"alone{i}").read_bytes()
                == (tmp_path / f"together{i}").read_bytes())


def test_cold_start_loads_no_root_finder_or_integrator(tmp_path):
    # brentq and quad are imported by the two functions that call them
    src = os.path.dirname(os.path.dirname(gr.__file__))
    code = ("import sys, georank\n"
            "from georank import cli\n"
            "rc = cli.main(['rank', '--family', 'gaussian', '--dim', '3', "
            "'--grid=-2:2:5', '-o', sys.argv[1]])\n"
            "print(rc, [m for m in ('scipy.optimize', 'scipy.integrate') "
            "if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "grid.csv")], check=True, env=env,
                          capture_output=True, text=True)
    assert done.stdout.split("\n")[-2] == "0 []"
    assert (tmp_path / "grid.csv").stat().st_size > 0


def test_cli_import_loads_no_fft_or_interpolation():
    # the Hankel route imports scipy.fft inside the function that calls it;
    # scipy.interpolate alone would add 0.19 s and 24 MB to every start
    src = os.path.dirname(os.path.dirname(gr.__file__))
    code = ("import sys\n"
            "import georank.cli\n"
            "print([m for m in ('scipy.fft', 'scipy.interpolate') "
            "if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                          capture_output=True, text=True)
    assert done.stdout.split("\n")[-2] == "[]"


def test_quantile_starting_on_an_atom(tmp_path):
    # the coordinatewise median of these atoms is the atom at the origin
    atoms = tmp_path / "five.csv"
    atoms.write_text("0,0\n1,2\n-1,-2\n2,-1\n-2,1\n")
    out = tmp_path / "q.csv"
    code = run(["quantile", "--csv", str(atoms), "--alpha", "0.6",
                "--direction", "1,0", "-o", str(out)])
    assert code == 0
    vals = [float(v) for v in out.read_text().splitlines()[1].split(",")]
    assert vals[0] == pytest.approx(1.9072, abs=1e-4)
    assert vals[1] == pytest.approx(-0.3926, abs=1e-4)
    assert vals[2] <= 1e-10


def test_quantile_at_an_atom_exits_0_with_the_atom(tmp_path):
    atoms = tmp_path / "five.csv"
    atoms.write_text("0,0\n1,2\n-1,-2\n2,-1\n-2,1\n")
    out = tmp_path / "q.csv"
    code = run(["quantile", "--csv", str(atoms), "--alpha", "0.1",
                "--direction", "1,0", "-o", str(out)])
    assert code == 0
    vals = [float(v) for v in out.read_text().splitlines()[1].split(",")]
    assert vals[:2] == [0.0, 0.0]


def _atoms_csv(tmp_path):
    atoms = tmp_path / "atoms.csv"
    rng = np.random.default_rng(15)
    atoms.write_text("\n".join(",".join("%.17g" % v for v in row)
                               for row in rng.standard_normal((40, 2))))
    return str(atoms)


# flags that crashed (exit 1), wrote NaN or a negative content with exit 0,
# or ended as a numeric failure (3) or non-convergence (4)
_BAD_FLAGS = [
    ("contour --beta 0.5 --rays 0", "--rays"),
    ("contour --beta 0.5 --rays -3", "--rays"),
    ("contour --beta 0.5 --tol nan", "--tol"),
    ("quantile --alpha 0.5 --direction 1,x", "--direction"),
    ("quantile --alpha 0.5 --direction nan,1", "--direction"),
    ("quantile --alpha 0.5 --direction inf,0", "--direction"),
    ("quantile --alpha 0.5 --direction 1,0 --tol nan", "--tol"),
    ("quantile --alpha 0.5 --direction 1,0 --tol -1", "--tol"),
]


@pytest.mark.parametrize("argv, flag", _BAD_FLAGS, ids=[
    a.replace(" --", ":").replace(" ", "=") for a, _ in _BAD_FLAGS])
def test_invalid_flag_values_exit_2_naming_the_flag(tmp_path, capsys, argv,
                                                   flag):
    code = run(argv.split() + ["--csv", _atoms_csv(tmp_path)])
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_content_radius_must_be_finite_and_not_negative(capsys, radius):
    code = run(["content", "--family", "gaussian", "--dim", "3",
                f"--radius={radius}"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--radius" in captured.err and captured.out == ""


def test_content_radius_zero_is_the_empty_ball(capsys):
    assert run(["content", "--family", "gaussian", "--dim", "3",
                "--radius", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["content"] == 0.0


# content flags outside their domain that ran into the library and ended as
# numeric failures (exit 3): an unknown --path, the analytic path (the
# default) on atoms, and a cloud in a dimension with no surface integrand
_CONTENT_REFUSALS = [
    ("--family gaussian --dim 3 --path foo", None, "--path"),
    ("", 3, "--path"),
    ("--path grid", 5, "d = 1 or 3"),
]


@pytest.mark.parametrize("argv, cloud_d, named", _CONTENT_REFUSALS,
                         ids=["unknown-path", "analytic-on-atoms", "d5"])
def test_content_configuration_refusals_exit_2(tmp_path, capsys, argv,
                                               cloud_d, named):
    extra = []
    if cloud_d is not None:
        atoms = tmp_path / "atoms.csv"
        rng = np.random.default_rng(cloud_d)
        np.savetxt(atoms, rng.standard_normal((40, cloud_d)), delimiter=",",
                   fmt="%.17g")
        extra = ["--csv", str(atoms)]
    out = tmp_path / "content.json"
    code = run(["content", "--radius", "1", "-o", str(out)] + argv.split()
               + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and named in err
    assert not out.exists()


def test_config_string_value_acts_as_the_flag(tmp_path):
    # a --config string parses with its flag's type, as on the command line
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"rays": "8"}))
    argv = ["contour", "--beta", "0.5", "--csv", _atoms_csv(tmp_path)]
    assert run(argv + ["--config", str(cfg), "-o", str(tmp_path / "a")]) == 0
    assert run(argv + ["--rays", "8", "-o", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


# --config values that crashed with a TypeError (exit 1) or were taken as
# truthy, each with the key the refusal must name; a number acts as its
# text, so 2.0 is no int
_BAD_CONFIG = [
    ("contour --beta 0.5", {"rays": "8.5"}, "rays"),
    ("contour --beta 0.5", {"rays": 8.5}, "rays"),
    ("contour --beta 0.5", {"rays": True}, "rays"),
    ("contour --beta 0.5", {"tol": "x"}, "tol"),
    ("quantile --alpha 0.5 --direction 1,0", {"tol": "x"}, "tol"),
    ("quantile --direction 1,0", {"alpha": "half"}, "alpha"),
    ("quantile --alpha 0.5 --direction 1,0", {"dim": 2.0}, "dim"),
    ("reconstruct --method extension", {"reference": "yes"}, "reference"),
]


@pytest.mark.parametrize("argv, cfg, key", _BAD_CONFIG,
                         ids=[f"{a.split()[0]}:{c}" for a, c, _ in _BAD_CONFIG])
def test_config_value_not_of_the_flag_type_exits_2(tmp_path, capsys, argv,
                                                   cfg, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = run(argv.split() + ["--csv", _atoms_csv(tmp_path), "--config",
                               str(conf), "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"georank: configuration error: --config value "
                          f"for {key} is not ")
    assert not out.exists()


@pytest.mark.parametrize("data", [b'{"rays": 1' + b"0" * 5000 + b"}",
                                  b'{"rays": "\xff"}'],
                         ids=["int-past-the-digit-limit", "not-utf8"])
def test_config_file_json_cannot_read_exits_2(tmp_path, capsys, data):
    # both raised a ValueError that ended as a numeric failure (exit 3)
    conf = tmp_path / "conf.json"
    conf.write_bytes(data)
    code = run(["contour", "--family", "gaussian", "--dim", "2", "--beta",
                "0.5", "--config", str(conf)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "georank: configuration error: cannot read --config:")


def _readme_commands():
    """Every `georank ...` line of the README's command-line examples,
    continuation lines joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("Examples:\n\n```\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").split("\n")
            if line.startswith("georank ")]


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(8)
    (tmp_path / "pts.csv").write_text(csv_text(["x1", "x2", "x3"],
                                               rng.standard_normal((5, 3))))
    (tmp_path / "atoms.csv").write_text(csv_text(["x1", "x2"],
                                                 rng.standard_normal((30, 2))))
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        assert run(argv[1:]) == 0, argv
        capsys.readouterr()
        if "-o" in argv:
            out = argv[argv.index("-o") + 1]
            if out.endswith(".csv"):
                names, data = _read_table(tmp_path / out)
                assert names and data.size, argv
