import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigh

from conftest import min_support_reference, stall_lanczos_ends
from scargraph.base import lps_graph
from scargraph.certificate import build_certificate
from scargraph.cli import EIGENSPACE_GAP, QE_MAX_VERTICES, main, qe_rows
from scargraph.graphs import MAX_VERTICES, build_graph, save_edge_list
from scargraph.named import cycle_graph, mcgee_graph
from scargraph.qe import min_support_for_mass, scarring_witness
from scargraph.scars import multi_glue
from scargraph.spectral import DENSE_CUTOFF


@pytest.fixture()
def mcgee_file(tmp_path):
    path = tmp_path / "mcgee.edges"
    save_edge_list(mcgee_graph(), path)
    return str(path)


def construct_argv(base, tmp_path, *extra, out="g.edges", cert="c.json"):
    return ["construct", *(["--base", base] if base else []), "--d", "2",
            "--r", "1", "--sites", "1", *extra,
            "--out", out and str(tmp_path / out),
            "--cert", cert and str(tmp_path / cert)]


class TestRunPipeline:
    """The construct command runs the stages itself, through main."""

    def test_end_to_end(self, mcgee_file, tmp_path, capsys):
        code = main(construct_argv(mcgee_file, tmp_path, "--seed", "7"))
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("M=26 ")
        assert "[FAIL]" not in out and "[PASS]" in out
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["M"] == 26 and all(data["checks"].values())
        assert (tmp_path / "g.edges").read_text().startswith("26 39\n")

    def test_exactly_one_base_source(self, mcgee_file, tmp_path, capsys):
        for base, source in [(mcgee_file, ["--lps", "5", "29"]), (None, [])]:
            code = main(construct_argv(base, tmp_path, *source))
            err = capsys.readouterr().err
            assert code == 2
            assert "exactly one base source: --base or --lps P Q" in err
            assert not (tmp_path / "g.edges").exists()
            assert not (tmp_path / "c.json").exists()

    def test_determinism_byte_identical(self, mcgee_file, tmp_path):
        certs = []
        for run in ("a", "b"):
            assert main(construct_argv(mcgee_file, tmp_path, "--seed", "9",
                                       out=f"g_{run}.edges",
                                       cert=f"cert_{run}.json")) == 0
            data = json.loads((tmp_path / f"cert_{run}.json").read_text())
            data["created_utc"] = ""
            certs.append(json.dumps(data, sort_keys=True))
        assert certs[0] == certs[1]

    def test_base_validation_failure(self, mcgee_file, tmp_path, capsys):
        # McGee has girth 7 <= 4r = 8 at r = 2
        code = main(["construct", "--base", mcgee_file, "--d", "2", "--r", "2",
                     "--out", str(tmp_path / "g.edges"),
                     "--cert", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "base validation failed: girth_exceeds_4r" in err
        assert not (tmp_path / "g.edges").exists()
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("base,r,bad", [
        ("mcgee", 2, "girth_exceeds_4r, tree_balls_radius_r_plus_1"),
        ("two-mcgee", 1, "connected"),
        ("cycle", 1, "regular_d_plus_1, girth_exceeds_4r, "
                     "tree_balls_radius_r_plus_1")])
    def test_structural_refusal_message(self, tmp_path, capsys, base, r,
                                        bad):
        # construct refuses a base by its structural checks alone
        e = mcgee_graph().edges()
        g = {"mcgee": mcgee_graph,
             "two-mcgee": lambda: build_graph(48, np.vstack([e, e + 24])),
             "cycle": lambda: cycle_graph(4)}[base]()
        path = str(tmp_path / "base.edges")
        save_edge_list(g, path)
        code = main(["construct", "--base", path, "--d", "2", "--r", str(r),
                     "--out", str(tmp_path / "g.edges"),
                     "--cert", str(tmp_path / "c.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"construction failed: base validation failed: {bad}\n")

    @pytest.mark.parametrize("cert", ["", "c.json"], ids=["both", "out"])
    def test_empty_output_path(self, mcgee_file, tmp_path, capsys, cert):
        # an empty --out is an I/O error, and the certificate is not written
        code = main(construct_argv(mcgee_file, tmp_path, out="", cert=cert))
        err = capsys.readouterr().err
        assert code == 2
        assert "No such file or directory: ''" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c.json").exists()

    def test_unwritable_certificate_leaves_no_edge_list(self, mcgee_file,
                                                        tmp_path, capsys):
        # the edge list is written first and removed again when the
        # certificate's directory does not exist
        code = main(construct_argv(mcgee_file, tmp_path,
                                   cert="nodir/c.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert "No such file or directory" in err
        assert "Traceback" not in err
        assert not (tmp_path / "g.edges").exists()

    def test_zero_sites_certificate_verifies(self, mcgee_file, tmp_path,
                                             capsys):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        assert main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
                     "--sites", "0", "--out", gpath, "--cert", cpath]) == 0
        data = json.loads(open(cpath).read())
        assert data["k"] == 0 and data["M"] == data["m"] == 24
        assert data["r"] == 1 and not data["localized"]
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 0


def test_eigensolver_failure_exits_1(lps_h, lps_sg, tmp_path, monkeypatch,
                                     capsys):
    # every command that runs a Lanczos solve (LPS(5,29) is above the dense
    # cutoff) reports a failed one in one line, exit 1: nothing is certified
    base, gpath, cpath = (str(tmp_path / name)
                          for name in ("h.edges", "g.edges", "c.json"))
    save_edge_list(lps_h, base)
    save_edge_list(lps_sg.graph, gpath)
    build_certificate(lps_sg).save(cpath)
    # each end's error estimate stays beta_k: the recurrence stalls
    stall_lanczos_ends(monkeypatch)
    for argv in (["base", "validate", "--graph", base, "--d", "5", "--r", "1"],
                 ["construct", "--base", base, "--d", "5", "--r", "1",
                  "--out", str(tmp_path / "out.edges"),
                  "--cert", str(tmp_path / "out.json")],
                 ["spectrum", "--graph", gpath, "--out",
                  str(tmp_path / "spec.csv")],
                 ["verify", "--graph", gpath, "--cert", cpath]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert re.fullmatch(r"eigensolver failed: Lanczos \(LM\) did "
                            r"not converge within \d+ iterations\n", err), err
        assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def run_python(*args):
    """``python args`` in a fresh interpreter that imports scargraph from
    this checkout, killed after 60 s."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def run_cli(*args):
    """``python -m scargraph.cli args`` in a subprocess, killed after 60 s."""
    return run_python("-m", "scargraph.cli", *args)


# the names of the scipy modules loaded so far
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestScipyOnFirstUse:
    """scipy is imported inside the functions that use it: importing
    scargraph, and the commands that solve nothing, load numpy only."""

    def test_import_loads_no_scipy(self):
        modules = ", ".join(f"scargraph.{name}" for name in (
            "graphs", "spectral", "trees", "base", "certificate", "qe",
            "scars", "pairing", "named"))
        done = run_python("-c", f"import json, sys, scargraph, scargraph.cli, "
                          f"{modules}\nprint(json.dumps({SCIPY_LOADED}))")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    def test_commands_without_a_solve_load_no_scipy(self, mcgee_sg,
                                                    tmp_path):
        cert = str(tmp_path / "c.json")
        build_certificate(mcgee_sg).save(cert)
        calls = [["base", "lps", "--p", "5", "--q", "29",
                  "--out", str(tmp_path / "h.edges")],
                 ["pair", "--d", "3", "--depth", "3",
                  "--out", str(tmp_path / "p.json")],
                 ["report", "--cert", cert],
                 ["--help"],
                 ["pair", "--d", "three", "--depth", "3",
                  "--out", str(tmp_path / "x.json")]]
        # one fresh process runs every call; the last line holds, per
        # call, its exit code and the scipy modules loaded by then
        done = run_python("-c", "import json, sys\n"
                          "from scargraph.cli import main\n"
                          "seen = [(main(argv), " + SCIPY_LOADED + ")\n"
                          "        for argv in json.loads(sys.argv[1])]\n"
                          "print(json.dumps(seen))", json.dumps(calls))
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.splitlines()[-1])
        assert [code for code, _ in seen] == [0, 0, 0, 0, 2], done.stderr
        assert [loaded for _, loaded in seen] == [[]] * 5

    def test_first_use_import_changes_no_number(self, lps_h, tmp_path):
        # LPS(5,29) is above the dense cutoff: the end solves and the
        # recurrence import scipy in the fresh process, not here
        graph = str(tmp_path / "h.edges")
        save_edge_list(lps_h, graph)
        argv = ["spectrum", "--graph", graph, "--k", "2", "--out"]
        assert main(argv + [str(tmp_path / "here.csv")]) == 0
        done = run_cli(*argv, str(tmp_path / "fresh.csv"))
        assert done.returncode == 0, done.stderr
        assert ((tmp_path / "fresh.csv").read_bytes()
                == (tmp_path / "here.csv").read_bytes())


class TestForestBase:
    """A base without cycles is reported and refused; it used to hang
    while validate_base searched for the largest carving radius."""

    def test_validate_path_reports_null_radius(self, tmp_path):
        path = tmp_path / "path.edges"
        path.write_text("3 2\n0 1\n1 2\n")
        proc = run_cli("base", "validate", "--graph", str(path),
                       "--d", "1", "--r", "1")
        assert proc.returncode == 1
        data = json.loads(proc.stdout)
        assert data["girth"] is None and data["girth_ok_for_r"] is None
        assert '"girth_ok_for_r": null' in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_construct_on_edgeless_base_fails(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("4 0\n")
        proc = run_cli("construct", "--base", str(path), "--d", "2",
                       "--r", "1", "--out", str(tmp_path / "g.edges"),
                       "--cert", str(tmp_path / "c.json"))
        assert proc.returncode == 1
        assert ("base validation failed: regular_d_plus_1, connected"
                in proc.stderr)
        assert "Traceback" not in proc.stderr


def test_zero_site_certificate_with_absurd_depth_fails(tmp_path):
    # a k = 0 certificate edited to r = 10**400: verify exits 1 on
    # effective_alpha, with no overflow traceback
    sg = multi_glue(mcgee_graph(), 0, 9)
    data = build_certificate(sg).to_dict()
    data["r"] = 10 ** 400
    gpath, cpath = tmp_path / "g.edges", tmp_path / "c.json"
    save_edge_list(sg.graph, gpath)
    cpath.write_text(json.dumps(data))
    proc = run_cli("verify", "--graph", str(gpath), "--cert", str(cpath))
    assert proc.returncode == 1
    assert "[FAIL] effective_alpha" in proc.stdout
    assert "verification FAILED" in proc.stdout
    assert "Traceback" not in proc.stderr


class TestSubcommands:
    def test_base_validate(self, mcgee_file, capsys):
        code = main(["base", "validate", "--graph", mcgee_file,
                     "--d", "2", "--r", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["girth"] == 7

    @pytest.mark.parametrize("graph,d,expected", [
        ("mcgee", 2, '{"bipartite": false, "checks": {"connected": true, '
         '"girth_exceeds_4r": true, "non_bipartite": true, '
         '"ramanujan_margin": true, "regular_d_plus_1": true, '
         '"tree_balls_radius_r_plus_1": true}, "degree": 3, "girth": 7, '
         '"girth_ok_for_r": 1, "lambda2_abs": 2.561552812808827, "n": 24, '
         '"ramanujan_ok": true}\n'),
        ("lps_h", 5, '{"bipartite": false, "checks": {"connected": true, '
         '"girth_exceeds_4r": true, "non_bipartite": true, '
         '"ramanujan_margin": true, "regular_d_plus_1": true, '
         '"tree_balls_radius_r_plus_1": true}, "degree": 6, "girth": 9, '
         '"girth_ok_for_r": 2, "lambda2_abs": 4.442016442593805, '
         '"n": 12180, "ramanujan_ok": true}\n')])
    def test_base_validate_bytes(self, request, tmp_path, capsys, graph, d,
                                 expected):
        # pinned before lambda2 took one run of the recurrence: the report
        # keeps every byte, lambda2 to its last bit
        path = str(tmp_path / "base.edges")
        save_edge_list(request.getfixturevalue(graph), path)
        assert main(["base", "validate", "--graph", path, "--d", str(d),
                     "--r", "1"]) == 0
        assert capsys.readouterr().out == expected

    def test_base_lps_writes_graph(self, tmp_path):
        out = tmp_path / "h.edges"
        code = main(["base", "lps", "--p", "5", "--q", "29",
                     "--out", str(out)])
        assert code == 0
        head = out.read_text().splitlines()[0]
        assert head == "12180 36540"

    def test_pair(self, tmp_path):
        out = tmp_path / "pairing.json"
        code = main(["pair", "--d", "2", "--depth", "3", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["girth"] >= 6

    def test_construct_spectrum_qe_verify_report(self, mcgee_file, tmp_path,
                                                 capsys):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        assert main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
                     "--sites", "1", "--seed", "7", "--out", gpath,
                     "--cert", cpath]) == 0
        spath = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--graph", gpath, "--k", "4",
                     "--out", spath]) == 0
        with open(spath) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "lambda", "residual"]
        assert len(rows) > 1

        qpath = str(tmp_path / "qe.csv")
        assert main(["qe", "--graph", gpath, "--cert", cpath,
                     "--out", qpath]) == 0
        with open(qpath) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "multiplicity", "min_support_0.5",
                           "witness", "witness_max"]
        assert len(rows) == 27  # header + 26 eigenvectors

        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 0
        assert main(["report", "--cert", cpath]) == 0
        out = capsys.readouterr().out
        assert "girth" in out

    def test_verify_detects_tampering(self, mcgee_file, tmp_path):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["girth"] += 2
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 1

    def test_verify_disconnected_graph_fails_its_spectral_checks(
            self, mcgee_file, tmp_path, capsys):
        # two disjoint cycles on the glued graph's M vertices: a well-formed
        # graph that fails the certificate (exit 1), not a usage error
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        M = json.loads(open(cpath).read())["M"]
        half = M // 2
        two = str(tmp_path / "two.edges")
        save_edge_list(build_graph(M, [(i, (i + 1) % half) for i in range(half)]
                                   + [(half + i, half + (i + 1) % (M - half))
                                      for i in range(M - half)]), two)
        capsys.readouterr()
        assert main(["verify", "--graph", two, "--cert", cpath]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failed = re.findall(r"^\[FAIL\] (\w+)", captured.out, re.M)
        assert failed == ["regularity", "girth", "lambda_max_nontrivial",
                          "spectral_within_threshold", "localized_0"]

    def test_verify_out_of_range_support_fails(self, mcgee_file, tmp_path,
                                               capsys):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["localized"][0]["support"] = [0, 999]
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] localized_0" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_usage_errors_exit_two(self, tmp_path):
        assert main(["spectrum", "--graph", str(tmp_path / "missing.edges"),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert main(["base", "lps", "--p", "5", "--q", "13",
                     "--out", str(tmp_path / "h.edges")]) == 2
        assert main(["nonsense"]) == 2

    @pytest.mark.parametrize("edit,msg", [
        (lambda d: d.update(extra=1), "unknown keys extra"),
        (lambda d: d.pop("girth"), "missing keys girth"),
        (lambda d: d["localized"][0].update(extra=1),
         "localized[0]: unknown keys extra"),
        (lambda d: d["localized"][0].pop("values"),
         "localized[0]: missing keys values"),
    ], ids=["top-unknown", "top-missing", "localized-unknown",
            "localized-missing"])
    def test_verify_malformed_certificate_exits_two(self, mcgee_file, tmp_path,
                                                    capsys, edit, msg):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        edit(data)
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err

    @pytest.mark.parametrize("edit,msg", [
        (lambda d: d["localized"][0].update(eigenvalue="0"),
         "localized[0]: 'eigenvalue' must be a number"),
        (lambda d: d["localized"][0].update(witness_value="0"),
         "localized[0]: 'witness_value' must be a number"),
        (lambda d: d.update(d="2"), "certificate: 'd' must be an integer"),
        (lambda d: d.update(spectral_method=None),
         "certificate: 'spectral_method' must be a string"),
        (lambda d: d.update(d=1), "d must be at least 2"),
        (lambda d: d.update(lambda_max_nontrivial=10 ** 400),
         "certificate: 'lambda_max_nontrivial' must be a number"),
        (lambda d: d.update(effective_alpha=-10 ** 400),
         "certificate: 'effective_alpha' must be a number"),
        (lambda d: d["localized"][0].update(eigenvalue=10 ** 400),
         "localized[0]: 'eigenvalue' must be a number"),
        (lambda d: d.update(d=10 ** 400), "d must be at least 2 and below"),
    ], ids=["eigenvalue-string", "witness-string", "d-string",
            "method-null", "d-one", "lambda2-beyond-float",
            "alpha-beyond-float", "eigenvalue-beyond-float", "d-huge"])
    def test_verify_wrongly_typed_field_exits_two(self, mcgee_file, tmp_path,
                                                  capsys, edit, msg):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        edit(data)
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err

    @pytest.mark.parametrize("support", [[0, 999], 5, [-1]],
                             ids=["beyond-M", "not-a-list", "negative"])
    @pytest.mark.parametrize("cmd", ["qe", "report"])
    def test_malformed_support_exits_two(self, mcgee_file, tmp_path, capsys,
                                         cmd, support):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["localized"][0]["support"] = support
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        qpath = tmp_path / "qe.csv"
        argv = {"qe": ["qe", "--graph", gpath, "--cert", cpath,
                       "--out", str(qpath)],
                "report": ["report", "--cert", cpath]}[cmd]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "localized[0]: support must hold" in err
        assert "Traceback" not in err and not qpath.exists()

    @pytest.mark.parametrize("cmd,code", [("qe", 2), ("report", 2),
                                          ("verify", 1)])
    def test_value_beyond_float_range(self, mcgee_file, tmp_path, capsys,
                                      cmd, code):
        # an integer that float() cannot read fails its record: qe and
        # report refuse the certificate, verify fails only that record
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out", gpath, "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["localized"][0]["values"][0] = 10 ** 400
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        argv = {"qe": ["qe", "--graph", gpath, "--cert", cpath,
                       "--out", str(tmp_path / "qe.csv")],
                "report": ["report", "--cert", cpath],
                "verify": ["verify", "--graph", gpath, "--cert", cpath]}[cmd]
        capsys.readouterr()
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if cmd == "verify":
            assert [ln for ln in out.splitlines()
                    if ln.startswith("[FAIL]")] == [
                "[FAIL] localized_0: support must hold one id in [0, 26) "
                "per value, and the values must be numbers"]
        else:
            assert "localized[0]: support must hold" in err

    def test_report_refuses_number_beyond_float_range(self, mcgee_file,
                                                      tmp_path, capsys):
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out",
              str(tmp_path / "g.edges"), "--cert", cpath])
        data = json.loads(open(cpath).read())
        data["lambda_max_nontrivial"] = 10 ** 400
        with open(cpath, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert main(["report", "--cert", cpath]) == 2
        err = capsys.readouterr().err
        assert "'lambda_max_nontrivial' must be a number" in err
        assert "Traceback" not in err

    def test_construct_prints_the_verify_items(self, mcgee_file, tmp_path,
                                               capsys):
        gpath = str(tmp_path / "g.edges")
        cpath = str(tmp_path / "cert.json")
        capsys.readouterr()
        assert main(["construct", "--base", mcgee_file, "--d", "2", "--r",
                     "1", "--sites", "1", "--seed", "7", "--out", gpath,
                     "--cert", cpath]) == 0
        built = re.findall(r"^  \[(?:PASS|FAIL)\] (\S+)$",
                           capsys.readouterr().out, re.M)
        assert main(["verify", "--graph", gpath, "--cert", cpath]) == 0
        verified = re.findall(r"^\[(?:PASS|FAIL)\] ([^:\s]+)",
                              capsys.readouterr().out, re.M)
        assert verified[-1] == "recorded_checks"
        assert built == verified[:-1]
        assert "localized_0" in built and "spectral_within_threshold" in built

    def test_qe_rejects_graph_beyond_full_basis_limit(self, mcgee_file,
                                                      tmp_path, capsys):
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out",
              str(tmp_path / "g.edges"), "--cert", cpath])
        big = str(tmp_path / "big.edges")
        save_edge_list(cycle_graph(QE_MAX_VERTICES + 1), big)
        qpath = tmp_path / "qe.csv"
        capsys.readouterr()
        assert main(["qe", "--graph", big, "--cert", cpath,
                     "--out", str(qpath)]) == 2
        err = capsys.readouterr().err
        # reported by main, as every usage error is
        assert err.startswith("error: ")
        assert "full eigenbasis" in err and str(QE_MAX_VERTICES) in err
        assert not qpath.exists()
        # the full-basis limit does not follow the eigensolver's cutoff
        assert QE_MAX_VERTICES == 4096 > DENSE_CUTOFF

    def test_qe_rejects_certificate_of_another_size(self, mcgee_file,
                                                    tmp_path, capsys):
        cpath = str(tmp_path / "cert.json")
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "1", "--seed", "7", "--out",
              str(tmp_path / "g.edges"), "--cert", cpath])
        other = str(tmp_path / "cycle.edges")
        save_edge_list(cycle_graph(100), other)
        qpath = tmp_path / "qe.csv"
        capsys.readouterr()
        assert main(["qe", "--graph", other, "--cert", cpath,
                     "--out", str(qpath)]) == 2
        err = capsys.readouterr().err
        assert "M = 26" in err and "100" in err and "Traceback" not in err
        assert not qpath.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    @pytest.mark.parametrize("graph", ["mcgee", "lps13", "missing"])
    def test_spectrum_rejects_k_below_one(self, tmp_path, capsys, graph, k):
        # McGee takes the dense path and LPS(13,17) the Lanczos path; a
        # missing file shows that --k is checked before the graph is read
        gpath = tmp_path / f"{graph}.edges"
        if graph != "missing":
            save_edge_list(mcgee_graph() if graph == "mcgee"
                           else lps_graph(13, 17), gpath)
        spath = tmp_path / "spec.csv"
        assert main(["spectrum", "--graph", str(gpath), "--k", k,
                     "--out", str(spath)]) == 2
        err = capsys.readouterr().err
        assert f"--k must be at least 1, got {k}" in err
        assert "Traceback" not in err and not spath.exists()


class TestSpectrumRows:
    """--k lists k pairs per end, each with its measured residual; the
    Ritz value that gives lambda2 on the Lanczos path has no pair."""

    @pytest.fixture(scope="class")
    def lps13_glued_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("lps13") / "glued.edges"
        save_edge_list(multi_glue(lps_graph(13, 17), 1, 1, seed=1).graph,
                       path)
        return str(path)

    @pytest.mark.parametrize("graph,k,rows,top", [
        ("lps13_glued_file", "1", 2, 14.0), ("lps13_glued_file", "4", 8, 14.0),
        ("mcgee_file", "1", 2, 3.0)])
    def test_row_count(self, request, tmp_path, graph, k, rows, top):
        spath = tmp_path / "spec.csv"
        assert main(["spectrum", "--graph", request.getfixturevalue(graph),
                     "--k", k, "--out", str(spath)]) == 0
        with open(spath, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == ["index", "lambda", "residual"]
        assert len(body) == rows
        assert abs(float(body[0][1]) - top) <= 1e-8
        assert all(float(res) <= 1e-8 for _, _, res in body)
        lams = [float(lam) for _, lam, _ in body]
        assert lams == sorted(lams, reverse=True)


def _certified_support(sg):
    cert = build_certificate(sg)
    return sorted({v for rec in cert.localized for v in rec.support})


@pytest.fixture(scope="module", params=["petersen", "mcgee",
                                        "glued-cubic6-k4"])
def degenerate_case(request):
    """A graph with repeated eigenvalues and a vertex set S: Petersen and
    McGee with a fixed S, and four r=1 sites glued on a 200-vertex cubic
    graph, whose localized eigenvalue has multiplicity 4, with the
    certified supports as S."""
    if request.param == "petersen":
        return request.getfixturevalue("petersen"), [0, 1, 2, 3]
    if request.param == "mcgee":
        return request.getfixturevalue("mcgee"), [0, 1, 2, 3, 4, 5]
    sg = multi_glue(request.getfixturevalue("cubic6"), 4, 1, seed=2)
    return sg.graph, _certified_support(sg)


def _eigenspaces(w):
    """(lo, hi) column ranges of eigenvalues equal within 1e-6, a grouping
    kept independent of the table's own gap."""
    cuts = np.flatnonzero(np.diff(w) > 1e-6) + 1
    return list(zip(np.r_[0, cuts], np.r_[cuts, len(w)]))


def _assert_same_table(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x[1], x[2]) == (y[1], y[2])  # multiplicity, min_support_0.5
        for u, v in zip((x[0], x[3], x[4]), (y[0], y[3], y[4])):
            assert abs(u - v) <= 1e-12


class TestQeTable:
    def test_invariant_under_rotation_inside_eigenspaces(self,
                                                         degenerate_case):
        g, S = degenerate_case
        w, vecs = eigh(g.csr().toarray())
        spaces = _eigenspaces(w)
        assert max(hi - lo for lo, hi in spaces) > 1
        rng = np.random.default_rng(17)
        rotated = vecs.copy()
        for lo, hi in spaces:
            q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
            rotated[:, lo:hi] = vecs[:, lo:hi] @ q
        table = qe_rows(w, vecs, S)
        _assert_same_table(table, qe_rows(w, rotated, S))
        assert [row[1] for row in table] == [
            hi - lo for lo, hi in spaces for _ in range(lo, hi)]

    def test_witnesses_are_the_eigenspace_mean_and_maximum(self,
                                                           degenerate_case):
        g, S = degenerate_case
        w, vecs = eigh(g.csr().toarray())
        table = qe_rows(w, vecs, S)
        own = [scarring_witness(vecs[:, i], S, g.n).value for i in range(g.n)]
        for lo, hi in _eigenspaces(w):
            wit, top = table[lo][3], table[lo][4]
            assert abs(wit - np.mean(own[lo:hi])) <= 1e-12
            assert max(own[lo:hi]) <= top + 1e-12

    def test_same_table_from_evr_and_evd(self, degenerate_case):
        g, S = degenerate_case
        a = g.csr().toarray()
        _assert_same_table(qe_rows(*eigh(a, driver="evr"), S),
                           qe_rows(*eigh(a, driver="evd"), S))

    @pytest.mark.parametrize("case", ["glued-mcgee", "cubic6"])
    def test_simple_spectrum_rows_are_the_eigenvector_statistics(
            self, request, case):
        if case == "glued-mcgee":
            sg = request.getfixturevalue("mcgee_sg")
            g, S = sg.graph, _certified_support(sg)
        else:
            g, S = request.getfixturevalue("cubic6"), list(range(0, 200, 9))
        w, vecs = eigh(g.csr().toarray())
        table = qe_rows(w, vecs, S)
        for i, (lam, k, size, wit, top) in enumerate(table):
            v = vecs[:, i]
            assert (lam, k) == (w[i], 1)
            assert size == min_support_for_mass(v, 0.5)[0]
            ref = scarring_witness(v / np.linalg.norm(v), S, g.n).value
            assert abs(wit - ref) <= 1e-12 and abs(top - ref) <= 1e-12

    def test_scarred_eigenspace_reaches_full_mass_on_the_supports(self,
                                                                  cubic6):
        # each localized eigenvector puts all its mass on S, so the best
        # unit vector of their eigenspace has witness 1 - |S|/M
        sg = multi_glue(cubic6, 4, 1, seed=2)
        S = _certified_support(sg)
        w, vecs = eigh(sg.graph.csr().toarray())
        top = max(row[4] for row in qe_rows(w, vecs, S))
        assert abs(top - (1 - len(S) / sg.graph.n)) <= 1e-12


def _qe_rows_loop(w, vecs, S):
    """The qe table one eigenspace at a time, with the minimal support from
    a full stable argsort and witness_max from np.linalg.norm(V_S, 2): the
    reference the batched qe_rows must match byte for byte."""
    n = len(w)
    cuts = np.flatnonzero(np.diff(w) > EIGENSPACE_GAP) + 1
    rows = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
        k = int(hi - lo)
        V = vecs[:, lo:hi]
        amp = np.sqrt(np.einsum("ij,ij->i", V, V) / k)
        size, _ = min_support_reference(amp, 0.5)
        wit = top = 0.0
        if S:
            wit = scarring_witness(amp, S, n).value
            top = np.linalg.norm(V[S], 2) ** 2 - len(S) / n
        rows += [(float(w[lo:hi].mean()), k, size, wit, float(top))] * k
    return rows


def _assert_rows_identical(w, vecs, S):
    table = qe_rows(w, vecs, S)
    assert [tuple(map(repr, row)) for row in table] == [
        tuple(map(repr, row)) for row in _qe_rows_loop(w, vecs, S)]
    return table


class TestQeRowsMatchLoop:
    @pytest.mark.parametrize("case", ["glued-mcgee", "cubic6", "cubic6-no-S"])
    def test_simple_and_empty_support(self, request, case):
        if case == "glued-mcgee":
            sg = request.getfixturevalue("mcgee_sg")
            g, S = sg.graph, _certified_support(sg)
        else:
            g = request.getfixturevalue("cubic6")
            S = list(range(0, 200, 9)) if case == "cubic6" else []
        table = _assert_rows_identical(*eigh(g.csr().toarray()), S)
        if not S:
            assert all(row[3:] == (0.0, 0.0) for row in table)

    def test_degenerate(self, degenerate_case):
        g, S = degenerate_case
        w, vecs = eigh(g.csr().toarray())
        for support in (S, []):
            _assert_rows_identical(w, vecs, support)

    def test_glued_lps13(self):
        # the dense-lps13 graph: 1379 eigenspaces, multiplicities up to 188
        sg = multi_glue(lps_graph(13, 17), 1, 1, seed=1)
        w, vecs = eigh(sg.graph.csr().toarray(order="F"), driver="evd",
                       overwrite_a=True, check_finite=False)
        table = _assert_rows_identical(w, vecs, _certified_support(sg))
        assert max(row[1] for row in table) >= 100

    @pytest.mark.filterwarnings("error")
    def test_no_vertices(self, mcgee_file, tmp_path, capsys):
        cpath = tmp_path / "cert.json"
        main(["construct", "--base", mcgee_file, "--d", "2", "--r", "1",
              "--sites", "0", "--out", str(tmp_path / "g.edges"),
              "--cert", str(cpath)])
        data = json.loads(cpath.read_text())
        cpath.write_text(json.dumps(dict(data, M=0, m=0)))
        empty = tmp_path / "empty.edges"
        empty.write_text("0 0\n")
        qpath = tmp_path / "qe.csv"
        assert main(["qe", "--graph", str(empty), "--cert", str(cpath),
                     "--out", str(qpath)]) == 0
        assert qpath.read_text().splitlines() == [
            "lambda,multiplicity,min_support_0.5,witness,witness_max"]
        assert qe_rows(np.zeros(0), np.zeros((0, 0)), []) == []
        assert "wrote 0 rows" in capsys.readouterr().out


class TestMalformedEdgeList:
    CONTENT = "4 3\n0 1\n2 3\n1 0\n"
    MESSAGE = "line 4: duplicate edge (0, 1)"

    def test_exit_two_with_the_line(self, tmp_path, capsys):
        bad = tmp_path / "dup.edges"
        bad.write_text(self.CONTENT)
        code = main(["spectrum", "--graph", str(bad), "--k", "1",
                     "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert self.MESSAGE in err and "Traceback" not in err

    def test_subprocess_has_no_traceback(self, tmp_path):
        import os
        import subprocess
        import sys
        bad = tmp_path / "big.edges"
        bad.write_text("4 1\n0 123456789012345678901234567890\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "scargraph.cli", "base", "validate",
             "--graph", str(bad), "--d", "2", "--r", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "line 2: endpoint out of range [0, 4)" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOversizedHeader:
    """A header n above graphs.MAX_VERTICES exits 2 naming line 1, without
    a traceback, before any array of that size is made."""

    @pytest.mark.parametrize("n", [99999999999999999999, 4000000000,
                                   MAX_VERTICES + 1])
    def test_exit_two_in_process(self, tmp_path, capsys, n):
        bad = tmp_path / "big.edges"
        bad.write_text(f"{n} 1\n0 1\n")
        code = main(["base", "validate", "--graph", str(bad), "--d", "2",
                     "--r", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line 1: n must be at most {MAX_VERTICES}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [99999999999999999999, 4000000000])
    def test_subprocess_has_no_traceback(self, tmp_path, n):
        import os
        import subprocess
        import sys
        bad = tmp_path / "big.edges"
        bad.write_text(f"{n} 1\n0 1\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "scargraph.cli", "base", "validate",
             "--graph", str(bad), "--d", "2", "--r", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "line 1: n must be at most" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOversizedLps:
    """An LPS(p, q) with more than graphs.MAX_VERTICES vertices exits 2
    with a message, before PSL(2, q) is enumerated and with no output."""

    def test_exit_two_in_process(self, tmp_path, capsys):
        out = tmp_path / "big.edges"
        code = main(["base", "lps", "--p", "5", "--q", "521",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"gives 70710120 vertices > {MAX_VERTICES}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_construct_exit_two(self, tmp_path, capsys):
        code = main(["construct", "--lps", "5", "521", "--d", "5", "--r", "1",
                     "--out", str(tmp_path / "g.edges"),
                     "--cert", str(tmp_path / "c.json")])
        assert code == 2
        assert f"> {MAX_VERTICES}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOversizedPair:
    """A glued tree pair above graphs.MAX_VERTICES exits 2 naming the bound,
    before any id array is made and with no output."""

    def test_exit_two_in_process(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        code = main(["pair", "--d", "2", "--depth", "40", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"glues more than {MAX_VERTICES} vertices" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_subprocess_has_no_traceback(self, tmp_path):
        out = tmp_path / "big.json"
        proc = run_cli("pair", "--d", "2", "--depth", "40", "--out", str(out))
        assert proc.returncode == 2
        assert f"more than {MAX_VERTICES}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestNegativeSeed:
    """--seed -1 exits 2 with a message naming the seed, no traceback."""

    def test_pair(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["pair", "--d", "2", "--depth", "3", "--seed", "-1",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed must be nonnegative" in err
        assert not out.exists()

    def test_construct(self, mcgee_file, tmp_path, capsys):
        code = main(["construct", "--base", mcgee_file, "--d", "2",
                     "--r", "1", "--seed", "-1",
                     "--out", str(tmp_path / "g.edges"),
                     "--cert", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed must be nonnegative" in err
        assert "Traceback" not in err
